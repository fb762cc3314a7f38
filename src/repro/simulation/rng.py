"""Named, independently seeded random-number streams.

Simulations need many independent sources of randomness (per-service load
noise, sensor noise, RPC failures, ...).  Drawing them all from one
generator couples unrelated subsystems: adding a sensor-noise draw would
perturb the workload sequence.  :class:`RngStreams` derives a stable child
generator per name from a single experiment seed so each subsystem has its
own reproducible stream.

The batched backends consume those per-server streams a block at a time
(:class:`PrefetchedNormals`) without disturbing any stream's draw order.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

import numpy as np


class RngStreams:
    """Factory of named, deterministic ``numpy`` generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root experiment seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields the same sequence,
        regardless of creation order of other streams.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self._seed}:{name}".encode("utf-8")
            ).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def fork(self, name: str) -> "RngStreams":
        """Derive an independent child stream family (e.g. per server)."""
        digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
        return RngStreams(int.from_bytes(digest[8:16], "little"))

    def snapshot_state(self) -> dict:
        """Serializable state of every stream created so far.

        ``bit_generator.state`` is a plain dict of ints/strings, so the
        result round-trips through JSON losslessly.
        """
        return {
            "seed": self._seed,
            "streams": {
                name: gen.bit_generator.state
                for name, gen in self._streams.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore stream states in place.

        Generator objects are mutated (not replaced), so components
        holding a reference to a stream see the restored state too.
        Streams in the snapshot that were never drawn here are created
        first; streams created here but absent from the snapshot keep
        their derived state (they are at their origin by construction).
        """
        self._seed = int(state["seed"])
        for name, gen_state in state["streams"].items():
            self.stream(name).bit_generator.state = gen_state


class StreamGuard:
    """Generator proxy that rewinds a prefetched block before any use.

    Installed in place of a generator once :class:`PrefetchedNormals`
    may have drawn speculatively from it.  Any attribute access
    (``normal``, ``exponential``, ``bit_generator``, ...) first rewinds
    the row's block so the underlying generator sits at its logical draw
    position, then delegates.
    """

    __slots__ = ("_gen", "_flush", "_row")

    def __init__(
        self,
        gen: np.random.Generator,
        flush: Callable[[int], None],
        row: int,
    ) -> None:
        self._gen = gen
        self._flush = flush
        self._row = row

    def __getattr__(self, name: str) -> Any:
        self._flush(self._row)
        return getattr(self._gen, name)


class PrefetchedNormals:
    """Blocks of pre-drawn normals, one row per independently owned stream.

    ``gen.normal(0.0, scale, size=k)`` produces the same sequence as
    ``k`` scalar ``gen.normal(0.0, scale)`` calls, so a batched consumer
    can draw a block per stream up front and hand the values out one per
    tick — as long as every *other* use of the stream (a burst arrival,
    a snapshot reading ``bit_generator.state``) first sees the generator
    at its logical position.  :meth:`attach` returns the
    :class:`StreamGuard` that guarantees it: the block is rewound
    (restore the state word saved at the block's start, re-draw the
    consumed prefix) before the foreign access goes through.

    The rewind point is one plain int per row, not a retained copy of
    the ``bit_generator.state`` dicts: a normal draw moves nothing but
    PCG64's 128-bit state word.  Streams on any other bit generator
    cannot be attached (:meth:`rewindable`); their owners keep them on
    the scalar lane.
    """

    def __init__(self, n: int, block: int) -> None:
        self._block = int(block)
        self._buf = np.zeros((n, self._block))
        self._lo = np.zeros(n, dtype=np.intp)
        self._hi = np.zeros(n, dtype=np.intp)
        #: Row -> attached generator (``None`` until :meth:`attach`).
        self._gens: list[Any] = [None] * n
        self._scale = [1.0] * n
        self._rewind_word = [0] * n
        #: One bound method serves every row's guard.
        self._flush = self.flush

    @staticmethod
    def rewindable(gen: Any) -> bool:
        """Whether ``gen`` is a stream :meth:`attach` can take."""
        return type(getattr(gen, "bit_generator", None)) is np.random.PCG64

    def attach(
        self, row: int, gen: np.random.Generator, scale: float = 1.0
    ) -> StreamGuard:
        """Serve ``row`` from ``gen``; returns the guard to install."""
        self._gens[row] = gen
        self._scale[row] = float(scale)
        return StreamGuard(gen, self._flush, row)

    def generator(self, row: int) -> np.random.Generator:
        """``row``'s underlying generator at its logical position."""
        self.flush(row)
        return self._gens[row]

    def flush(self, row: int) -> None:
        """Rewind ``row``'s speculative block to the logical position."""
        if self._hi[row] == 0:
            return
        gen = self._gens[row]
        bit_generator = gen.bit_generator
        state = bit_generator.state
        state["state"]["state"] = self._rewind_word[row]
        bit_generator.state = state
        consumed = int(self._lo[row])
        if consumed:
            gen.normal(0.0, self._scale[row], size=consumed)
        self._lo[row] = 0
        self._hi[row] = 0

    def draw(self, rows: np.ndarray) -> np.ndarray:
        """One buffered sample per row, preserving each stream's order."""
        need = rows[self._lo[rows] >= self._hi[rows]]
        if need.size:
            buf, gens, scale = self._buf, self._gens, self._scale
            words, block = self._rewind_word, self._block
            for row in need.tolist():
                gen = gens[row]
                words[row] = gen.bit_generator.state["state"]["state"]
                buf[row] = gen.normal(0.0, scale[row], size=block)
            self._lo[need] = 0
            self._hi[need] = block
        z = self._buf[rows, self._lo[rows]]
        self._lo[rows] += 1
        return z

    def sync(self) -> None:
        """Flush every block.

        After this, every generator's raw state equals its logical draw
        position — required before RNG state is snapshotted externally
        (the guards also trigger it lazily on any foreign access).
        """
        for row in np.nonzero(self._hi > 0)[0]:
            self.flush(int(row))
