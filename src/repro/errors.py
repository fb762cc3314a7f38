"""Exception hierarchy for the Dynamo reproduction.

Every library-raised exception derives from :class:`ReproError` so callers
can catch the whole family with a single ``except`` clause while tests can
assert on precise subtypes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class TopologyError(ReproError):
    """The power-delivery topology is malformed (cycles, orphans, ...)."""


class SimulationError(ReproError):
    """The discrete-event engine was driven incorrectly."""


class RpcError(ReproError):
    """An RPC to an agent or controller failed."""


class RpcTimeoutError(RpcError):
    """An RPC did not complete within its deadline."""


class AgentError(RpcError):
    """A Dynamo agent operation failed.

    Subclasses :class:`RpcError` because controllers observe agent
    failures through the RPC fabric: a crashed agent looks like a failed
    call, and the controller's failure-estimation path must engage.
    """


class CappingError(ReproError):
    """A power-capping command could not be applied."""


class ControllerError(ReproError):
    """A power controller encountered an unrecoverable condition."""


class ServeError(ReproError):
    """A serve-layer request was invalid or could not be satisfied."""


class UnknownSessionError(ServeError):
    """A serve request named a session id the manager does not hold.

    Attributes:
        session_id: the id the request asked for.
    """

    def __init__(self, session_id: str) -> None:
        super().__init__(f"unknown session {session_id!r}")
        self.session_id = session_id


class SnapshotError(ReproError):
    """A world snapshot could not be captured, saved, loaded, or restored."""


class SnapshotIntegrityError(SnapshotError):
    """A snapshot file's content hash does not match its envelope."""


class SnapshotVersionError(SnapshotError):
    """A snapshot was written with an incompatible schema version.

    Attributes:
        found: the schema version in the file.
        supported: the version this library reads and writes.
    """

    def __init__(self, found: int, supported: int) -> None:
        super().__init__(
            f"snapshot schema version {found} is incompatible with the "
            f"supported version {supported}; re-capture the snapshot"
        )
        self.found = found
        self.supported = supported
