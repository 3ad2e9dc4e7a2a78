"""BatchedRandom must reproduce ``random.Random`` draw-for-draw.

The campaign datasets are pinned bit-identical across refactors, so the
batched generator is only admissible if every draw -- through any stdlib
distribution, under any interleaving with ``getrandbits`` -- matches the
CPython Mersenne Twister exactly.  These tests pin that contract.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.rng import _BLOCK_MIN, BatchedRandom
from tests.oracles import stdlib_rng


def test_random_sequence_exact_across_refills():
    ref = random.Random(1234)
    bat = BatchedRandom(1234)
    # 3 * _BLOCK_MAX words' worth of draws crosses several refills.
    for _ in range(20_000):
        assert bat.random() == ref.random()


@pytest.mark.parametrize("k", [1, 5, 31, 32, 33, 64, 65, 100, 128])
def test_getrandbits_exact(k):
    ref = random.Random(99)
    bat = BatchedRandom(99)
    for _ in range(500):
        assert bat.getrandbits(k) == ref.getrandbits(k)


def test_getrandbits_edge_cases():
    assert BatchedRandom(0).getrandbits(0) == random.Random(0).getrandbits(0)
    with pytest.raises(ValueError):
        BatchedRandom(0).getrandbits(-1)


@pytest.mark.parametrize("seed", [0, 7, 2**40, "string-seed", 3.5])
def test_seed_types_match(seed):
    ref = random.Random(seed)
    bat = BatchedRandom(seed)
    assert [bat.random() for _ in range(10)] == [ref.random() for _ in range(10)]


def test_derived_distributions_match():
    """Inherited stdlib methods reduce to the overridden primitives."""
    ref = random.Random(55)
    bat = BatchedRandom(55)
    for _ in range(300):
        assert bat.uniform(0, 10) == ref.uniform(0, 10)
        assert bat.gauss(5.0, 2.0) == ref.gauss(5.0, 2.0)
        assert bat.expovariate(0.5) == ref.expovariate(0.5)
        assert bat.randint(0, 1 << 40) == ref.randint(0, 1 << 40)
        assert bat.choice(range(97)) == ref.choice(range(97))
    items_a = list(range(50))
    items_b = list(range(50))
    bat.shuffle(items_a)
    ref.shuffle(items_b)
    assert items_a == items_b


def test_odd_parity_alignment():
    """getrandbits consumes single words, so random() must stay exact
    from both even and odd buffer positions."""
    ref = random.Random(77)
    bat = BatchedRandom(77)
    for _ in range(2_000):
        assert bat.getrandbits(32) == ref.getrandbits(32)  # odd step
        assert bat.random() == ref.random()
        assert bat.random() == ref.random()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from(["random", "bits1", "bits33", "gauss", "randrange"]),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_arbitrary_interleavings_match(ops, seed):
    ref = random.Random(seed)
    bat = BatchedRandom(seed)
    for op in ops:
        if op == "random":
            assert bat.random() == ref.random()
        elif op == "bits1":
            assert bat.getrandbits(1) == ref.getrandbits(1)
        elif op == "bits33":
            assert bat.getrandbits(33) == ref.getrandbits(33)
        elif op == "gauss":
            assert bat.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)
        else:
            assert bat.randrange(1000) == ref.randrange(1000)


def test_getstate_round_trips_to_stdlib():
    """State captured mid-stream transplants into a plain random.Random."""
    bat = BatchedRandom(31337)
    for _ in range(_BLOCK_MIN + 17):  # land mid-block
        bat.random()
    ref = random.Random()
    ref.setstate(bat.getstate())
    for _ in range(1000):
        assert bat.random() == ref.random()


def test_setstate_from_stdlib():
    ref = random.Random(4242)
    for _ in range(123):
        ref.random()
    bat = BatchedRandom(0)
    bat.setstate(ref.getstate())
    for _ in range(1000):
        assert bat.random() == ref.random()


def test_getstate_setstate_self_round_trip():
    bat = BatchedRandom(9)
    for _ in range(100):
        bat.random()
    state = bat.getstate()
    tail = [bat.random() for _ in range(50)]
    bat.setstate(state)
    assert [bat.random() for _ in range(50)] == tail


# ----------------------------------------------------------------- gauss
#
# BatchedRandom.gauss is an override, not the inherited method: it reads
# its two uniforms straight from the pre-folded float blocks.


@pytest.mark.parametrize("parity", [0, 1])
def test_gauss_exact_per_call_both_parities(parity):
    """Per call, from even and odd word positions, across many refills."""
    ref = random.Random(2024)
    bat = BatchedRandom(2024)
    if parity:
        assert bat.getrandbits(32) == ref.getrandbits(32)
    for i in range(6_000):
        mu, sigma = i % 7 - 3.0, 0.5 + i % 5
        assert bat.gauss(mu, sigma) == ref.gauss(mu, sigma)
    assert bat.gauss() == ref.gauss()


@pytest.mark.parametrize("left", range(6))
def test_gauss_refills_at_a_block_edge(left):
    """A pair of uniforms that straddles or ends the first block."""
    ref = random.Random(61)
    bat = BatchedRandom(61)
    for _ in range(_BLOCK_MIN - left):
        assert bat.getrandbits(32) == ref.getrandbits(32)
    for _ in range(8):
        assert bat.gauss(1.0, 2.0) == ref.gauss(1.0, 2.0)
    assert bat.random() == ref.random()


def test_gauss_interleaved_with_random():
    ref = random.Random(8)
    bat = BatchedRandom(8)
    for i in range(3_000):
        assert bat.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)
        assert bat.random() == ref.random()
        if i % 3 == 0:
            assert bat.getrandbits(32) == ref.getrandbits(32)


def test_gauss_state_round_trip_with_pending_gauss_next():
    bat = BatchedRandom(404)
    for _ in range(_BLOCK_MIN // 2 + 1):
        bat.random()
    bat.gauss()  # leaves the second normal of the pair in gauss_next
    state = bat.getstate()
    assert state[2] is not None
    tail = [bat.gauss(3.0, 0.5) for _ in range(200)]
    ref = random.Random()
    ref.setstate(state)
    assert [ref.gauss(3.0, 0.5) for _ in range(200)] == tail
    bat.setstate(state)
    assert [bat.gauss(3.0, 0.5) for _ in range(200)] == tail


# ------------------------------------------------------------- simulator


def test_make_random_modes_agree():
    """The simulator's batched stream matches the stdlib oracle's."""
    batched = Simulator(5)
    with stdlib_rng():
        stdlib = Simulator(5)
        stdlib_fork = stdlib.fork_rng("x")
    assert isinstance(batched.rng, BatchedRandom)
    assert type(stdlib.rng) is type(stdlib_fork) is random.Random
    for a, b in ((batched.rng, stdlib.rng), (batched.fork_rng("x"), stdlib_fork)):
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]
