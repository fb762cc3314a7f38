"""Tests for named RNG streams."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import PrefetchedNormals, RngStreams


def test_same_name_same_stream_object():
    streams = RngStreams(7)
    assert streams.stream("a") is streams.stream("a")


def test_determinism_across_instances():
    a = RngStreams(7).stream("workload").random(5)
    b = RngStreams(7).stream("workload").random(5)
    assert np.array_equal(a, b)


def test_different_names_independent():
    streams = RngStreams(7)
    a = streams.stream("a").random(5)
    b = streams.stream("b").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random(5)
    b = RngStreams(2).stream("x").random(5)
    assert not np.array_equal(a, b)


def test_creation_order_does_not_matter():
    s1 = RngStreams(7)
    s1.stream("first")
    x1 = s1.stream("target").random(3)
    s2 = RngStreams(7)
    x2 = s2.stream("target").random(3)
    assert np.array_equal(x1, x2)


def test_fork_is_deterministic():
    a = RngStreams(7).fork("child").stream("x").random(3)
    b = RngStreams(7).fork("child").stream("x").random(3)
    assert np.array_equal(a, b)


def test_fork_differs_from_parent():
    parent = RngStreams(7)
    child = parent.fork("child")
    assert child.seed != parent.seed


def test_seed_property():
    assert RngStreams(42).seed == 42


# ---------------------------------------------------------------------------
# Snapshot round-trips (property-based)
# ---------------------------------------------------------------------------

_NAMES = ("workload.web", "sensor.0", "chaos.campaign", "rpc")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    plan=st.lists(
        st.tuples(
            st.sampled_from(_NAMES), st.integers(min_value=1, max_value=6)
        ),
        max_size=24,
    ),
    probe=st.integers(min_value=1, max_value=8),
)
def test_snapshot_roundtrip_reproduces_next_draws(seed, plan, probe):
    """save → load reproduces the exact next-draw sequence per stream.

    Draws are interleaved across named streams and a fork before the
    snapshot, and the state passes through JSON (the on-disk format) to
    prove nothing is lost in serialization.
    """
    streams = RngStreams(seed)
    fork = streams.fork("child")
    for name, count in plan:
        streams.stream(name).random(count)
        fork.stream(name).random(count)

    root_state = json.loads(json.dumps(streams.snapshot_state()))
    fork_state = json.loads(json.dumps(fork.snapshot_state()))

    expected = {
        name: streams.stream(name).random(probe).tolist() for name in _NAMES
    }
    expected_fork = {
        name: fork.stream(name).random(probe).tolist() for name in _NAMES
    }

    restored = RngStreams(0)
    restored.restore_state(root_state)
    restored_fork = RngStreams(0)
    restored_fork.restore_state(fork_state)
    for name in _NAMES:
        assert restored.stream(name).random(probe).tolist() == expected[name]
        assert (
            restored_fork.stream(name).random(probe).tolist()
            == expected_fork[name]
        )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    drawn=st.integers(min_value=0, max_value=32),
)
def test_restore_untouched_stream_matches_origin(seed, drawn):
    """Streams absent from a snapshot stay at their derived origin."""
    streams = RngStreams(seed)
    if drawn:
        streams.stream("drawn").random(drawn)
    state = streams.snapshot_state()
    restored = RngStreams(seed)
    restored.restore_state(state)
    # "fresh" was never created before the snapshot: both sides derive
    # it from (seed, name) and must agree from the origin.
    a = streams.stream("fresh").random(4)
    b = restored.stream("fresh").random(4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Prefetched blocks: speculative draws that any foreign use rewinds
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    block=st.integers(min_value=1, max_value=9),
    plan=st.lists(
        st.sampled_from(["tick", "tick", "tick", "exponential", "integers"]),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_prefetched_rows_interleave_like_scalar_draws(seed, block, plan):
    """Buffered normals and guarded foreign draws, in any order, read the
    streams exactly as the same calls made one at a time would."""
    scales = (1.0, 0.005)
    reference = [np.random.default_rng([seed, row]) for row in range(2)]
    normals = PrefetchedNormals(2, block)
    guards = [
        normals.attach(row, np.random.default_rng([seed, row]), scales[row])
        for row in range(2)
    ]
    rows = np.arange(2)
    for step in plan:
        if step == "tick":
            expected = [g.normal(0.0, s) for g, s in zip(reference, scales)]
            assert normals.draw(rows).tolist() == expected
        elif step == "exponential":
            assert guards[0].exponential(900.0) == reference[0].exponential(900.0)
        else:  # a 32-bit draw leaves half a word buffered in the state
            assert guards[1].integers(0, 2) == reference[1].integers(0, 2)
    normals.sync()
    for row in range(2):
        assert (
            normals.generator(row).bit_generator.state
            == reference[row].bit_generator.state
        )


def test_only_pcg64_streams_are_rewindable():
    assert PrefetchedNormals.rewindable(np.random.default_rng(1))
    assert not PrefetchedNormals.rewindable(
        np.random.Generator(np.random.MT19937(1))
    )
    assert not PrefetchedNormals.rewindable(object())
