"""Versioned, content-hashed world snapshots.

A :class:`WorldSnapshot` is a plain-data capture of one built world: a
*recipe* naming the deterministic builder that rewires the world's
structure, plus the *state* dict the :class:`~repro.state.registry.SnapshotRegistry`
walked out of every component.  The on-disk format is a JSON envelope::

    {
      "format": "repro-world-snapshot",
      "schema_version": 2,
      "recipe": {"builder": ..., "kwargs": {...}},
      "integrity": "sha256:<hex of the canonical recipe and state>",
      "state": {...}
    }

The integrity hash covers the canonical (sorted-keys) serialization of
the recipe and the state payload together, so any corruption or
hand-editing of either — a changed seed rebuilds a different world
under the same state — is detected at load.  Loading a snapshot written by a different schema version raises
:class:`~repro.errors.SnapshotVersionError` — there is deliberately no
best-effort migration path: a snapshot is a precise machine state, and
a partially understood one is worse than none.

Event closures are never serialized.  Pending schedules are stored as
(absolute fire time, original sequence number) pairs and re-registered
on restore; see :mod:`repro.state.registry` for the ordering argument
that makes resumed runs bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import (
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)

#: The on-disk format marker (guards against loading arbitrary JSON).
FORMAT_MARKER = "repro-world-snapshot"

#: Current schema version.  Bump on ANY change to the captured state
#: layout; old snapshots are then rejected, not misread.
SCHEMA_VERSION = 2


def canonical_json(payload: Any) -> str:
    """Canonical serialization: sorted keys, no whitespace drift.

    Used both for the integrity hash and for fingerprinting, so two
    state dicts are byte-compared in a representation independent of
    dict insertion order.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def state_digest(state: dict) -> str:
    """``sha256:<hex>`` over the canonical state payload."""
    digest = hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def _integrity(recipe: dict, state: dict) -> str:
    """The envelope's content hash: recipe and state together."""
    return state_digest({"recipe": recipe, "state": state})


@dataclass(frozen=True)
class WorldSnapshot:
    """One captured world: rebuild recipe + per-component state."""

    recipe: dict
    state: dict
    schema_version: int = SCHEMA_VERSION
    meta: dict = field(default_factory=dict)

    @property
    def builder(self) -> str:
        """The world-builder name in the recipe."""
        return str(self.recipe["builder"])

    @property
    def time_s(self) -> float:
        """Simulation time at capture."""
        return float(self.state["engine"]["now"])

    def integrity(self) -> str:
        """The content hash of this snapshot's recipe and state."""
        return _integrity(self.recipe, self.state)

    def to_envelope(self) -> dict:
        """The JSON envelope written to disk."""
        return {
            "format": FORMAT_MARKER,
            "schema_version": self.schema_version,
            "recipe": self.recipe,
            "meta": self.meta,
            "integrity": self.integrity(),
            "state": self.state,
        }

    def save(self, path: str | Path) -> Path:
        """Write the envelope to ``path`` (pretty-printed JSON)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_envelope(), indent=1, sort_keys=True),
            encoding="utf-8",
        )
        return path

    @classmethod
    def from_envelope(
        cls, envelope: Any, *, origin: str = "envelope"
    ) -> "WorldSnapshot":
        """Verify and adopt an already-parsed JSON envelope.

        This is the validation core of :meth:`load`, split out so
        callers holding an in-memory payload — the serve layer accepts
        snapshots POSTed over HTTP — get the same format, version, and
        integrity guarantees as the file path.

        Raises:
            SnapshotError: not a snapshot envelope, or one whose
                version, recipe or state is malformed.
            SnapshotVersionError: written by an incompatible schema.
            SnapshotIntegrityError: recipe and state do not match the
                recorded content hash.
        """
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != FORMAT_MARKER
        ):
            raise SnapshotError(
                f"{origin} is not a {FORMAT_MARKER!r} envelope"
            )
        raw_version = envelope.get("schema_version", -1)
        try:
            version = int(raw_version)
        except (TypeError, ValueError):
            raise SnapshotError(
                f"{origin} has a malformed schema_version {raw_version!r}"
            ) from None
        if version != SCHEMA_VERSION:
            raise SnapshotVersionError(version, SCHEMA_VERSION)
        # The recipe's shape is checked here, its kwargs by build_world.
        recipe = envelope.get("recipe")
        if not isinstance(recipe, dict) or not isinstance(
            recipe.get("builder"), str
        ):
            raise SnapshotError(
                f"{origin} has a malformed recipe {recipe!r}; expected "
                "{'builder': <name>, 'kwargs': {...}}"
            )
        state = envelope.get("state")
        if not isinstance(state, dict):
            raise SnapshotError(f"{origin} has no state payload")
        recorded = envelope.get("integrity", "")
        actual = _integrity(recipe, state)
        if recorded != actual:
            raise SnapshotIntegrityError(
                f"snapshot {origin} failed integrity verification: "
                f"recorded {recorded}, computed {actual}"
            )
        return cls(
            recipe=recipe,
            state=state,
            schema_version=version,
            meta=envelope.get("meta", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "WorldSnapshot":
        """Read and verify a snapshot envelope.

        Raises:
            SnapshotError: not a snapshot file, or malformed JSON.
            SnapshotVersionError: written by an incompatible schema.
            SnapshotIntegrityError: recipe and state do not match the
                recorded content hash.
        """
        path = Path(path)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        return cls.from_envelope(envelope, origin=str(path))


def _normalize_sequences(state: dict) -> dict:
    """Replace absolute scheduler sequence numbers by their rank.

    A resumed run re-registers pending events with fresh sequence
    numbers, so absolute values differ from an uninterrupted run even
    though the *relative* order — the only thing that affects behaviour
    — is identical.  Fingerprints therefore compare ranks, not values.
    """
    entries: list[tuple[int, Any, Any]] = []

    def collect(node: Any, container: Any, key: Any) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "sequence" and isinstance(v, int):
                    entries.append((v, node, k))
                else:
                    collect(v, node, k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                collect(v, node, i)

    clone = json.loads(canonical_json(state))
    collect(clone, None, None)
    for rank, (_, container, key) in enumerate(
        sorted(entries, key=lambda e: e[0])
    ):
        container[key] = rank
    return clone


def fingerprint(state: dict) -> str:
    """A run-comparable digest of a captured state payload.

    Identical for an uninterrupted run and a snapshot/restore-resumed
    run of the same world at the same simulation time: pending-event
    sequence numbers are compared by rank (see
    :func:`_normalize_sequences`), and wall-clock stage durations are
    zeroed at capture time by the trace buffer.
    """
    return state_digest(_normalize_sequences(state))
