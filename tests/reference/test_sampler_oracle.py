"""The bulk negative sampler against its one-call-per-draw loop.

``repro.datasets.base._sample_negative_keys`` draws the within-family
attempts thousands per call; the oracle ``reference.datasets`` makes one
``rng.integers`` and one ``rng.choice`` call per attempt.  Every case
requires the same list, order included, and the same generator state
afterwards, so that the random top-up and everything generated after it are
unchanged.  The cases are the calls ``build_benchmark`` makes, family layouts
that reach each kind of draw, and guesses that are wrong on purpose.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.datasets import sample_negative_keys
from repro.datasets import base
from repro.datasets.base import EntityProfile
from repro.datasets.registry import available_benchmarks, load_benchmark


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def assert_matches_oracle(entities, num_negatives, hard_fraction, state):
    shipped_rng, oracle_rng = _generator(state), _generator(state)
    keys = base._sample_negative_keys(entities, num_negatives, hard_fraction,
                                      shipped_rng)
    assert keys == sample_negative_keys(entities, num_negatives, hard_fraction,
                                        oracle_rng)
    assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state


def entities_in_families(sizes, order=None):
    """One entity per member of families of the given sizes."""
    families = [f"f{family}" for family, size in enumerate(sizes) for _ in range(size)]
    order = range(len(families)) if order is None else order
    return [EntityProfile(f"e{index}", {}, families[index]) for index in order]


def captured_call(name, scale, seed, monkeypatch):
    """The arguments ``build_benchmark`` passes the sampler, with the state of
    its generator at the call."""
    calls = []
    sample = base._sample_negative_keys

    def recording_sample(entities, num_negatives, hard_fraction, rng):
        calls.append((entities, num_negatives, hard_fraction, rng.bit_generator.state))
        return sample(entities, num_negatives, hard_fraction, rng)

    monkeypatch.setattr(base, "_sample_negative_keys", recording_sample)
    load_benchmark(name, scale=scale, random_state=seed)
    monkeypatch.setattr(base, "_sample_negative_keys", sample)
    [call] = calls
    return call


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("name", available_benchmarks())
def test_benchmark_calls_match_the_oracle(name, scale, seed, monkeypatch):
    assert_matches_oracle(*captured_call(name, scale, seed, monkeypatch))


#: ``(family sizes, negatives, hard fraction, chunk)``.  With 64 attempts a
#: chunk, a budget of 1,000 or 1,200 attempts ends in a partial chunk.
LAYOUTS = {
    # Floyd's first draw has bound 1 and consumes nothing.
    "two-member families": ([2] * 12 + [1, 3], 40, 0.7, 64),
    # The family draw has bound 1 and consumes nothing.
    "one multi-member family": ([5, 1, 1, 1, 1], 30, 0.7, 64),
    "no multi-member family": ([1] * 20, 10, 0.7, 64),
    "no hard share": ([3, 4, 5], 30, 0.0, 64),
    "only hard negatives": ([2, 3, 4, 5, 6], 30, 1.0, 64),
    # 110 within-family pairs for a target of 14: met in the first chunk.
    "target met mid-chunk": ([6, 6, 6, 5], 20, 0.7, base._ATTEMPT_CHUNK),
    # 20 within-family pairs for a target of 42: 1,200 attempts.
    "target never met": ([2, 3, 4, 1, 1], 60, 0.7, 64),
    # 5,000 attempts: one full chunk and a partial one.
    "budget past one chunk": ([2, 3, 4, 5, 1], 250, 0.7, base._ATTEMPT_CHUNK),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_family_layouts_match_the_oracle(layout, monkeypatch):
    sizes, num_negatives, hard_fraction, chunk = LAYOUTS[layout]
    monkeypatch.setattr(base, "_ATTEMPT_CHUNK", chunk)
    state = np.random.default_rng(3).bit_generator.state
    assert_matches_oracle(entities_in_families(sizes), num_negatives,
                          hard_fraction, state)


@st.composite
def layouts(draw):
    """Shuffled entities in families of 1-6 members, in one of four shapes."""
    shape = draw(st.sampled_from(("mixed", "pairs", "one family", "singletons")))
    if shape == "mixed":
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=20))
    elif shape == "pairs":
        sizes = [2] * draw(st.integers(2, 20)) + draw(
            st.lists(st.integers(1, 6), max_size=3))
    elif shape == "one family":
        sizes = [draw(st.integers(2, 6))] + [1] * draw(st.integers(0, 10))
    else:
        sizes = [1] * draw(st.integers(2, 30))
    return entities_in_families(sizes, draw(st.permutations(range(sum(sizes)))))


@settings(max_examples=100, deadline=None)
@given(entities=layouts(), num_negatives=st.integers(1, 60),
       hard_fraction=st.sampled_from((0.0, 0.7, 1.0)),
       chunk=st.sampled_from((3, 64, base._ATTEMPT_CHUNK)),
       seed=st.integers(0, 2**32 - 1))
def test_hypothesis_layouts_match_the_oracle(entities, num_negatives,
                                             hard_fraction, chunk, seed):
    state = np.random.default_rng(seed).bit_generator.state
    with mock.patch.object(base, "_ATTEMPT_CHUNK", chunk):
        assert_matches_oracle(entities, num_negatives, hard_fraction, state)


def recorded_guesses(passes, wrong_from=None):
    """A ``_guess_families`` that records the length of every guess and, from
    attempt ``wrong_from`` of each guess on, names the next family instead."""
    guess_families = base._guess_families

    def guess(family_sizes, count, rng):
        families = guess_families(family_sizes, count, rng)
        if wrong_from is not None:
            families[wrong_from:] = (families[wrong_from:] + 1) % len(family_sizes)
        passes.append(count)
        return families

    return guess


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_the_guess_is_right_on_benchmark_data(scale, monkeypatch):
    # Neither catalog meets its target, so the whole budget is drawn, and
    # with a right guess every pass keeps the whole chunk it drew.
    entities, num_negatives, hard_fraction, state = captured_call(
        "amazon_google", scale, 0, monkeypatch)
    passes = []
    monkeypatch.setattr(base, "_guess_families", recorded_guesses(passes))
    base._sample_negative_keys(entities, num_negatives, hard_fraction,
                               _generator(state))
    assert sum(passes) == 20 * num_negatives
    assert len(passes) == -(-sum(passes) // base._ATTEMPT_CHUNK)


def test_a_wrong_guess_keeps_the_attempts_before_it(monkeypatch):
    # A real draw almost never disagrees with the guess (a Lemire rejection
    # on a bound of a few dozen has a probability of about 1e-8), so the
    # guess is made wrong from attempt 5 of every pass.  Each pass then keeps
    # 5 attempts: 240 passes spend the budget of 1,200.
    passes = []
    monkeypatch.setattr(base, "_guess_families", recorded_guesses(passes, 5))
    state = np.random.default_rng(11).bit_generator.state
    assert_matches_oracle(entities_in_families([2, 3, 4, 1, 5]), 60, 1.0, state)
    assert len(passes) == 240


def test_a_wrong_guess_on_benchmark_data(monkeypatch):
    entities, num_negatives, hard_fraction, state = captured_call(
        "amazon_google", "tiny", 0, monkeypatch)
    passes = []
    monkeypatch.setattr(base, "_guess_families", recorded_guesses(passes, 1000))
    assert_matches_oracle(entities, num_negatives, hard_fraction, state)
    assert len(passes) == -(-20 * num_negatives // 1000)


@settings(max_examples=40, deadline=None)
@given(entities=layouts(), num_negatives=st.integers(1, 60),
       hard_fraction=st.sampled_from((0.7, 1.0)),
       chunk=st.sampled_from((7, 64)), attempt=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1))
def test_wrong_guesses_match_the_oracle(entities, num_negatives, hard_fraction,
                                        chunk, attempt, seed):
    state = np.random.default_rng(seed).bit_generator.state
    with mock.patch.object(base, "_ATTEMPT_CHUNK", chunk), \
            mock.patch.object(base, "_guess_families", recorded_guesses([], attempt)):
        assert_matches_oracle(entities, num_negatives, hard_fraction, state)
