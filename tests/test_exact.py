"""Exact number tower: streams, activations, affine forms, scalars."""

import itertools
import signal as signal_module
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnnlab import (
    ExactScalar,
    HorizonExceeded,
    Interval,
    PrecisionBudget,
    ShapeError,
    UnitReal,
    UnknownSign,
    affine_combine,
    saturated_sigma,
    signal,
)
from arnnlab.langcodec import encode_language

from conftest import abstar_language


# -- digit_at ---------------------------------------------------------------


def test_digit_at_abstar_expansion():
    r = encode_language(abstar_language(), 25)
    assert r.digit_at(2) == 1
    assert r.digit_at(1) == 0


def test_digit_at_one_third():
    # long-division oracle: 1/3 = 0.010101...
    r = UnitReal.from_fraction(Fraction(1, 3))
    assert r.digit_at(4) == 1
    assert r.prefix(8) == (0, 1, 0, 1, 0, 1, 0, 1)


def test_digit_at_beyond_finite_horizon_pads_zero():
    r = UnitReal.from_digits([1, 0, 1])
    assert r.digit_at(5) == 0
    assert r.horizon == 3


def test_from_digits_rejects_out_of_range_digit():
    with pytest.raises(ValueError):
        UnitReal.from_digits([0, 2])


def test_digit_at_strict_horizon_raises():
    r = UnitReal.from_digits([1, 0, 1], strict_horizon=True)
    with pytest.raises(HorizonExceeded):
        r.digit_at(4)


def test_digit_memo_deterministic_and_order_independent():
    pulled = []

    def gen():
        for i in range(100):
            pulled.append(i)
            yield i % 2

    r = UnitReal(gen=gen(), base=2)
    out_of_order = [r.digit_at(6), r.digit_at(2), r.digit_at(6)]
    in_order = [UnitReal(gen=itertools.cycle([0, 1])).digit_at(n) for n in (6, 2, 6)]
    assert out_of_order == in_order
    assert r.digit_at(6) == out_of_order[0]
    assert len(pulled) == 6  # memoised, not re-pulled


def test_exhausted_generator_becomes_finite():
    r = UnitReal(gen=iter([1, 1]), base=2)
    assert r.digit_at(5) == 0
    assert r.horizon == 2


# -- activations --------------------------------------------------------------


def test_sigma_clamps():
    assert saturated_sigma(-5) == 0
    assert saturated_sigma(Fraction(1, 2)) == Fraction(1, 2)
    assert saturated_sigma(Fraction(3, 2)) == 1


@given(st.fractions(min_value=-10, max_value=10))
def test_sigma_idempotent_and_ranged(x):
    once = saturated_sigma(x)
    assert 0 <= once <= 1
    assert saturated_sigma(once) == once


def test_signal_threshold_cases():
    assert signal(0) == 0
    assert signal(-1) == 0
    assert signal(Fraction(1, 2)) == 1


@given(st.fractions(min_value=-10, max_value=10))
def test_signal_is_binary(x):
    assert signal(x) in (0, 1)


def test_signal_on_stream_needs_budget():
    r = UnitReal(gen=itertools.repeat(0))
    with pytest.raises(ValueError):
        signal(r)


def test_signal_on_lazy_stream():
    budget = PrecisionBudget(max_digits=8)
    positive = UnitReal(gen=iter([0, 0, 1] + [0] * 50), base=2)
    assert signal(positive, budget) == 1
    zero_finite = UnitReal.from_digits([0, 0, 0])
    assert signal(zero_finite, budget) == 0
    dark = UnitReal(gen=itertools.repeat(0))
    with pytest.raises(UnknownSign):
        signal(dark, budget)


def test_sigma_on_interval_clamps_endpoints():
    box = Interval(Fraction(-1, 2), Fraction(3, 2))
    assert saturated_sigma(box) == Interval(0, 1)


# -- affine_combine -----------------------------------------------------------


def test_affine_bias_only():
    assert affine_combine([], [], [], [], Fraction(1, 2)) == Fraction(1, 2)


def test_affine_single_product():
    assert affine_combine([2], [Fraction(3, 4)], [], [], 0) == Fraction(3, 2)


def test_affine_cantor_pop_value():
    # hand arithmetic: 4 * 13/16 - 3 = 1/4 (the Cantor-4 pop gadget)
    got = affine_combine(
        [ExactScalar.integer(4)], [Fraction(13, 16)], [], [], ExactScalar.integer(-3)
    )
    assert got == Fraction(1, 4)


def test_affine_shape_errors():
    with pytest.raises(ShapeError):
        affine_combine([1, 2], [Fraction(1)], [], [], 0)
    with pytest.raises(ShapeError):
        affine_combine([], [], [1], [], 0)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-4, max_value=4),
            st.fractions(min_value=-4, max_value=4),
        ),
        max_size=6,
    ),
    st.fractions(min_value=-4, max_value=4),
)
def test_affine_matches_naive_fraction_oracle(terms, bias):
    weights = [t[0] for t in terms]
    states = [t[1] for t in terms]
    expected = sum((w * x for w, x in terms), Fraction(0)) + bias
    got = affine_combine(weights, states, [], [], bias)
    assert isinstance(got, Fraction)
    assert got == expected


@given(
    st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
    st.fractions(min_value=-3, max_value=3),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60)
def test_affine_enclosure_sound_and_tight(hidden, coef, max_digits):
    # a stream of a known rational, entered as an opaque generator
    digits = UnitReal.from_fraction(hidden).prefix(64)
    stream = UnitReal(gen=iter(digits), base=2)
    budget = PrecisionBudget(max_digits=max_digits)
    got = affine_combine([coef], [stream], [], [], Fraction(1, 3), budget=budget)
    true = coef * hidden + Fraction(1, 3)
    if isinstance(got, Fraction):
        assert got == true
    else:
        assert got.lo <= true <= got.hi
        assert got.width <= Fraction(1, 2**max_digits)


def finishes(call, seconds=10):
    """The result of ``call``, or a test failure if it runs past ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal_module.signal(signal_module.SIGALRM, expire)
    signal_module.setitimer(signal_module.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal_module.setitimer(signal_module.ITIMER_REAL, 0)
        signal_module.signal(signal_module.SIGALRM, previous)


def test_affine_interval_times_horizonless_stream_terminates():
    # A fixed interval operand wider than the per-term share keeps the term
    # wide however far the stream is refined.
    stream = ExactScalar.from_stream(UnitReal(gen=itertools.repeat(1)))
    box = Interval(Fraction(0), Fraction(1, 2))
    got = finishes(lambda: affine_combine([stream], [box], budget=PrecisionBudget(8)))
    # the digits 0.111... denote 1, so the true product is [0, 1/2]
    assert got.lo <= 0 and got.hi >= Fraction(1, 2)
    assert got.width <= Fraction(1, 2) + Fraction(1, 2**8)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
    st.sampled_from([2, 4]),
    st.fractions(min_value=-2, max_value=2),
    st.fractions(min_value=0, max_value=2),
    st.booleans(),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=80, deadline=None)
def test_affine_interval_times_stream_encloses_product(
    period, base, lo, width, stream_first, max_digits
):
    period = [d % base for d in period]
    stream = UnitReal(gen=itertools.cycle(period), base=base)
    # the value of the repeating expansion 0.(period)(period)...
    value = Fraction(int("".join(map(str, period)), base), base ** len(period) - 1)
    box = Interval(lo, lo + width)
    pair = ([stream], [box]) if stream_first else ([box], [stream])
    got = finishes(lambda: affine_combine(*pair, budget=PrecisionBudget(max_digits)), seconds=2)
    assert got.lo <= value * box.lo and got.hi >= value * box.hi
    assert got.width <= value * box.width + Fraction(1, 2**max_digits)


# -- scalars -------------------------------------------------------------------


def test_rational_scalar_always_lowest_terms():
    s = ExactScalar.rational(6, 8)
    assert (s.value.numerator, s.value.denominator) == (3, 4)
    assert ExactScalar.rational(4, 2).kind.value == "integer"


def test_stream_scalar_is_exact_iff_its_horizon_is_known():
    # finitely many digits denote a rational, whether the horizon is strict
    for strict in (False, True):
        real = UnitReal([1, 0, 1], strict_horizon=strict)
        assert ExactScalar.from_stream(real).exact_fraction() == Fraction(5, 8)
    lazy = ExactScalar.from_stream(UnitReal(gen=itertools.cycle([1, 0])))
    assert lazy.exact_fraction() is None
    # an infinite expansion of a known rational is lazy too: no horizon
    third = ExactScalar.from_stream(UnitReal.from_fraction(Fraction(1, 3)))
    assert third.exact_fraction() is None


def test_integer_and_rational_carry_bottom_label():
    assert ExactScalar.integer(7).degree_label == "0"
    assert ExactScalar.rational(1, 3).degree_label == "0"


def test_budget_validation():
    with pytest.raises(ValueError):
        PrecisionBudget(max_digits=0)
