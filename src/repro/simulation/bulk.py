"""Holding the cyclic collector off while a bulk loop fills the heap.

A world builder allocates millions of long-lived objects in one loop.
CPython's generational collector answers heap growth with a full
collection each time the old generation has grown by a quarter, so a
build that takes the heap from 30 k to 4 M tracked objects pays some
fifteen full scans of a heap that holds no garbage — 4-5 s at 100,800
servers, a fifth of the whole build.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_held_off() -> Iterator[None]:
    """Run the body with the cyclic collector disabled.

    The collector is restored exactly as found — enabled if and only if
    it was enabled on entry, thresholds never touched — whether the body
    returns or raises; nesting is safe (an inner hold inside a disabled
    outer one changes nothing).

    What the body allocated is then promoted straight to the oldest
    generation.  Left in the youngest, it would be scanned twice on its
    way up (1.2 s at 100,800 servers) the moment the collector is back.
    ``gc.freeze()`` followed by ``gc.unfreeze()`` is the promotion: the
    first splices every generation into the permanent one, the second
    splices that into the oldest, and neither looks at an object.  It is
    skipped when the caller has frozen objects of its own, which the
    pair would thaw.  Nothing stays frozen, so cyclic garbage is still
    found, and the one full collection that counts the new world as
    old comes when the interpreter next decides on one — soon, because
    its threshold still reflects the heap before the build.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
