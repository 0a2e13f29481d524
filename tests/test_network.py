"""Synchronous dynamics, the word protocol, and exactness of the simulator."""

import contextlib
import dis
import functools
import gc
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnnlab import (
    CANTOR4,
    ConfigError,
    ExactScalar,
    Interval,
    Network,
    OracleNetSpec,
    OracleTable,
    PrecisionBudget,
    ShapeError,
    UnitReal,
    UnknownSign,
    Verdict,
    compose_nets,
    composed_oracle_budget,
    dfa_budget,
    dfa_to_net,
    oracle_budget,
    oracle_net,
    oracle_net_parts,
    run,
    step,
    two_stack_budget,
    two_stack_to_net,
    zero_state,
)
from arnnlab.exact import ScalarKind, affine_combine, saturated_sigma, signal
import arnnlab.network as network
from arnnlab.network import _IntState, _Plan, _compiled, _fast_step

from conftest import (
    AB, abstar_language, anbn_machine, copy_machine, parity_dfa, two_stack_machines, words_up_to,
)


def one_neuron(a=0, c=0, act="sat"):
    weights = {(0, 0): ExactScalar.from_fraction(a)} if a else {}
    biases = {0: ExactScalar.from_fraction(c)} if c else {}
    return Network(1, 0, state_weights=weights, biases=biases, activations=(act,))


def test_step_bias_only():
    net = one_neuron(c=Fraction(1, 2))
    assert step(net, (Fraction(7, 8),)) == (Fraction(1, 2),)


def test_step_saturates():
    net = one_neuron(a=2)
    assert step(net, (Fraction(3, 4),)) == (1,)


def test_step_pop_gadget():
    net = one_neuron(a=4, c=-3)
    assert step(net, (Fraction(13, 16),)) == (Fraction(1, 4),)


def test_step_shape_checks():
    net = one_neuron(a=1)
    with pytest.raises(ShapeError):
        step(net, (0, 0))
    with pytest.raises(ShapeError):
        step(net, (0,), inputs=(1,))
    wired = Network(1, 1, input_weights={(0, 0): ExactScalar.rational(1, 4)})
    assert step(wired, (0,), inputs=(1,)) == (Fraction(1, 4),)
    for inputs, validation in (((2,), 0), ((1,), 2)):
        with pytest.raises(ShapeError, match="carry bits"):
            step(wired, (0,), inputs, validation)


def test_step_rejects_state_outside_the_unit_interval():
    # the integer kernel's tick plans assume every source lies in [0, 1]
    net = Network(
        2,
        0,
        state_weights={(1, 0): ExactScalar.integer(1)},
        biases={1: ExactScalar.integer(-1)},
    )
    for state in ((2, 0), (Fraction(3, 2), 0), (0, -1), (Fraction(-1, 4), 1)):
        with pytest.raises(ShapeError, match="outside \\[0, 1\\]"):
            step(net, state)
    assert step(net, (1, 0)) == (0, 0)
    assert step(net, (Fraction(1, 2), 1)) == (0, 0)


def test_repeated_input_symbol_is_shape_error():
    with pytest.raises(ShapeError, match="repeat a symbol"):
        Network(1, 2, input_symbols=("a", "a"))
    assert Network(1, 2, input_symbols=("a", "b")).line_for_symbol("b") == 1


def test_multi_character_input_symbol_is_shape_error():
    with pytest.raises(ShapeError, match="input symbol 'ab' is not one character"):
        Network(1, 1, out_data=0, out_valid=0, input_symbols=("ab",))
    with pytest.raises(ShapeError, match="input symbol '' is not one character"):
        Network(1, 2, input_symbols=("a", ""))


def test_step_state_confinement_under_iteration():
    net = one_neuron(a=3, c=Fraction(-1, 3))
    x = (Fraction(9, 10),)
    for _ in range(50):
        x = step(net, x)
        assert 0 <= x[0] <= 1


def test_step_with_lazy_weight_interval_and_unknown_sign():
    stream = UnitReal(gen=iter([0, 1] + [0] * 200), base=2)
    net = Network(
        2,
        0,
        state_weights={(0, 1): ExactScalar.from_stream(stream), (1, 1): ExactScalar.integer(1)},
        activations=("sat", "sat"),
    )
    budget = PrecisionBudget(max_digits=16)
    out = step(net, (0, 1), budget=budget)
    from arnnlab import Interval

    assert isinstance(out[0], Interval)
    assert out[0].lo <= Fraction(1, 4) <= out[0].hi

    sig_net = Network(
        2,
        0,
        state_weights={(0, 1): ExactScalar.from_stream(
            UnitReal(gen=iter([0] * 400), base=2)
        )},
        activations=("sig", "sat"),
    )
    with pytest.raises(UnknownSign) as err:
        step(sig_net, (0, 1), budget=PrecisionBudget(max_digits=8))
    assert "neuron 0" in str(err.value)


def test_fast_step_matches_step_on_random_nets():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(0, 2)
        sw = {
            (i, j): ExactScalar.rational(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.5
        }
        iw = {
            (i, j): ExactScalar.integer(rng.randint(-2, 2))
            for i in range(n)
            for j in range(m + 1)
            if rng.random() < 0.4
        }
        bias = {
            i: ExactScalar.rational(rng.randint(-3, 3), 2) for i in range(n) if rng.random() < 0.5
        }
        acts = tuple(rng.choice(["sat", "sig"]) for _ in range(n))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        cn = _compiled(net)
        fast = [0] * n
        slow = zero_state(net)
        for _ in range(20):
            bits = tuple(rng.randint(0, 1) for _ in range(m))
            v = rng.randint(0, 1)
            fast = _fast_step(cn, fast, bits, v)
            want = fraction_tick(net, slow, bits, v)
            slow = step(net, slow, bits, v)
            assert [Fraction(x) for x in fast] == [Fraction(x) for x in slow] == want


def fraction_tick(net, state, inputs, validation):
    """The update equation recomputed in plain Fractions, neuron by neuron."""
    lines = [*inputs, validation]
    new = []
    for i in range(net.n_neurons):
        total = net.biases[i].exact_fraction() if i in net.biases else Fraction(0)
        for j in range(net.n_neurons):
            if (i, j) in net.state_weights:
                total += net.state_weights[(i, j)].exact_fraction() * state[j]
        for j, u in enumerate(lines):
            if (i, j) in net.input_weights:
                total += net.input_weights[(i, j)].exact_fraction() * u
        if net.activations[i] == "sig":
            new.append(Fraction(1 if total > 0 else 0))
        else:
            new.append(min(max(total, Fraction(0)), Fraction(1)))
    return new


def test_memoised_kernel_matches_fraction_recomputation():
    rng = random.Random(5)
    ticks = hits = 0
    for trial in range(150):
        n = rng.randint(1, 10)
        m = rng.randint(0, 2)

        def scalar(lo, hi):
            # dyadic and non-dyadic (thirds, sixths) weights alike
            return ExactScalar.rational(rng.randint(lo, hi), rng.choice([1, 2, 4, 3, 6]))

        sw = {(i, j): scalar(-4, 4) for i in range(n) for j in range(n) if rng.random() < 0.4}
        iw = {(i, j): scalar(-2, 3) for i in range(n) for j in range(m + 1) if rng.random() < 0.4}
        bias = {i: scalar(-3, 3) for i in range(n) if rng.random() < 0.6}
        acts = tuple(rng.choice(["sat", "sig"]) for _ in range(n))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        cn = _compiled(net)
        # a short input period, repeated, so that signatures repeat and plans replay
        period = [
            (tuple(rng.randint(0, 1) for _ in range(m)), rng.randint(0, 1))
            for _ in range(rng.randint(1, 4))
        ]
        schedule = period * 8
        start = [rng.choice([0, 0, 1, Fraction(1, 2), Fraction(1, 3)]) for _ in range(n)]
        trajectories = []
        for _ in range(2):  # a cold memo, then the warm one it left
            state, ref, trajectory = list(start), list(start), []
            for bits, v in schedule:
                state = _fast_step(cn, state, bits, v)
                ref = fraction_tick(net, ref, bits, v)
                got = [Fraction(x) for x in state]
                assert got == ref, trial
                trajectory.append(got)
            trajectories.append(trajectory)
            if len(trajectories) == 1:
                ticks += len(schedule)
                hits += len(schedule) - len(cn.tick_plans)
        assert trajectories[0] == trajectories[1], trial
    assert hits > ticks // 2


def test_kernel_matches_fractions_across_reductions():
    """Long runs with denominators over 3, 6 and 4, so that the shared
    denominator grows past the slack and is reduced again, several times."""
    rng = random.Random(23)
    slack = network._SLACK_BITS
    plans = reductions = 0
    for trial in range(12):
        n = rng.randint(2, 8)
        m = rng.randint(1, 2)

        def scalar(lo, hi):
            return ExactScalar.rational(rng.randint(lo, hi), rng.choice([3, 6, 4]))

        sw = {(i, j): scalar(-4, 4) for i in range(n) for j in range(n) if rng.random() < 0.4}
        # a contracting self-loop keeps neuron 0 fractional, with a growing denominator
        sw[(0, 0)] = ExactScalar.rational(1, 3)
        iw = {(i, j): scalar(-2, 3) for i in range(n) for j in range(m + 1) if rng.random() < 0.4}
        iw[(0, 0)] = ExactScalar.rational(1, 4)
        bias = {i: scalar(-3, 3) for i in range(n) if rng.random() < 0.6}
        bias[0] = ExactScalar.rational(1, 6)
        acts = ("sat",) + tuple(rng.choice(["sat", "sig"]) for _ in range(n - 1))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        cn = _compiled(net)
        d_bits = cn.d.bit_length()
        period = [
            (tuple(rng.randint(0, 1) for _ in range(m)), rng.randint(0, 1))
            for _ in range(rng.randint(1, 5))
        ]
        schedule = (period * 240)[:240]
        start = [rng.choice([0, 0, 1, Fraction(1, 2), Fraction(1, 3)]) for _ in range(n)]
        trajectories = []
        for _ in range(2):  # a cold memo, then the warm one it left
            state, ref, trajectory = start, list(start), []
            den = lcm(*(Fraction(x).denominator for x in start))
            floor = den.bit_length()
            for bits, v in schedule:
                sig = _IntState.of(state) if isinstance(state, list) else state
                state = _fast_step(cn, state, bits, v)
                ref = fraction_tick(net, ref, bits, v)
                got = [Fraction(x) for x in state]
                assert got == ref, trial
                least = lcm(*(x.denominator for x in ref))
                # a replay scales by its plan's scale, a sighting before it by d
                plan = plan_of(cn, sig.units, sig.fracs, bits, v)
                scale = plan.shape[2] if plan else cn.d
                if state.den != den * scale:  # the gcd was divided out, all of it
                    assert state.den == least, trial
                    reductions += 1
                if state.den == least:
                    floor = least.bit_length()
                assert state.den.bit_length() <= floor + slack + d_bits, trial
                den = state.den
                trajectory.append((got, state.units, state.fracs))
            trajectories.append(trajectory)
        # a replayed plan orders the new state as the plain path did
        assert trajectories[0] == trajectories[1], trial
        plans += len(built_plans(cn))
    assert plans > 0 and reductions > 12


def entries(links):
    """The ``(key, value)`` pairs of a node's or a plan's map."""
    head = [] if links.key is None else [(links.key, links.value)]
    return head + list((links.more or {}).items())


def built_plans(cn):
    """Every plan built on ``cn``, from the nodes that hold them."""
    return [
        entry
        for node in cn.tick_plans.values()
        for _, entry in entries(node)
        if isinstance(entry, _Plan)
    ]


def plan_of(cn, units, fracs, bits, v):
    """The plan built for one signature and feed item, or None while it
    has none."""
    node = cn.tick_plans.get((units, fracs))
    entry = None if node is None else node.get((bits, v))
    return entry if isinstance(entry, _Plan) else None


unit_values = st.one_of(st.sampled_from([0, 1]), st.fractions(0, 1, max_denominator=30))


@settings(max_examples=200, deadline=None)
@given(st.lists(unit_values, min_size=1, max_size=12))
def test_int_state_is_its_signature(values):
    state = _IntState.of(values)
    assert list(state) == values
    assert state.units == tuple(j for j, x in enumerate(values) if x == 1)
    assert state.fracs == tuple(j for j, x in enumerate(values) if 0 < x < 1)
    assert len(state.xs) == len(state.fracs)
    assert all(0 < x < state.den for x in state.xs)


@pytest.mark.parametrize("w0, w1, c, act", [
    (Fraction(1, 2), Fraction(1, 2), 0, "sat"),
    (Fraction(3, 2), -1, Fraction(1, 4), "sat"),
    (-2, 3, Fraction(-1, 2), "sig"),
    (1, 1, 0, "sig"),
])
def test_row_with_two_fractional_sources(w0, w1, c, act):
    """Neuron 2 is reached by both fractional sources, so its plan row
    carries a second term in ``more``."""
    weights = {(2, 0): w0, (2, 1): w1, (0, 0): Fraction(1, 2)}
    net = Network(
        3,
        0,
        state_weights={k: ExactScalar.from_fraction(Fraction(w)) for k, w in weights.items()},
        biases={2: ExactScalar.from_fraction(Fraction(c))} if c else {},
        activations=("sat", "sat", act),
    )
    cn = _compiled(net)
    state = [Fraction(1, 3), Fraction(3, 4), Fraction(1, 5)]
    want = fraction_tick(net, state, (), 0)
    orders = []
    for _ in range(network._SIGHTINGS + 1):  # plain path, plan build, replay
        got = _fast_step(cn, state, (), 0)
        assert [Fraction(x) for x in got] == want
        orders.append((got.units, got.fracs))
    assert orders == [orders[0]] * len(orders)
    [plan] = built_plans(cn)
    [(i, p, w, base, sat, more)] = [row for row in plan.shape[0] if row[0] == 2]
    assert (p, len(more)) == (0, 1) and more[0][0] == 1
    assert sat == (act == "sat")


def test_reduction_with_no_fractional_neuron():
    """Once the gcd runs on a state of 0s and 1s only, its denominator is 1."""
    net = Network(
        3,
        0,
        state_weights={
            (0, 0): ExactScalar.integer(3),
            (1, 1): ExactScalar.integer(2),
            (2, 0): ExactScalar.integer(-1),
        },
        activations=("sat", "sig", "sat"),
    )
    cn = _compiled(net)
    start = [Fraction(1, 3), Fraction(1, 4), 0]
    want = fraction_tick(net, start, (), 0)
    assert want == [1, 1, 0]
    for limit, den in ((None, 12), (0, 1)):  # unreduced, then the gcd forced
        state = _IntState.of(start)
        if limit is not None:
            state.limit = limit
        got = _fast_step(cn, state, (), 0)
        assert [Fraction(x) for x in got] == want
        assert (got.units, got.fracs, got.xs, got.den) == ((0, 1), (), [], den)


def reached_and_rows(cn):
    """For each built plan, the neurons its fractional sources reach and
    the rows it kept."""
    return [
        (len({i for j in node.fracs for i, _ in cn.state_edges[j]}), len(entry.shape[0]))
        for node in cn.tick_plans.values()
        for _, entry in entries(node)
        if isinstance(entry, _Plan)
    ]


@st.composite
def gated_nets(draw):
    """A random exact net with a closed gate, and a state in [0, 1].

    Neurons 0..n-1 are wired at random; then come a source y held strictly
    between 0 and 1, a gate at 0 and a candidate sigma(y + gate - 1), the
    gadget by which compiled nets read and write their stacks."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 2))
    scalar = st.fractions(-2, 2, max_denominator=6).map(ExactScalar.from_fraction)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    sw = draw(st.dictionaries(pairs, scalar, max_size=3 * n))
    y, gate, cand = n, n + 1, n + 2
    sw[(cand, y)] = sw[(cand, gate)] = ExactScalar.integer(1)
    iw = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, m)), scalar))
    bias = draw(st.dictionaries(st.integers(0, n - 1), scalar))
    bias[cand] = ExactScalar.integer(-1)
    acts = draw(st.lists(st.sampled_from(["sat", "sig"]), min_size=n + 3, max_size=n + 3))
    net = Network(n + 3, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
    unit = st.one_of(st.sampled_from([0, 1]), st.fractions(0, 1, max_denominator=12))
    state = draw(st.lists(unit, min_size=n, max_size=n))
    y_value = draw(st.fractions(0, 1, max_denominator=12).filter(lambda x: 0 < x < 1))
    state += [y_value, 0, draw(unit)]
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    return net, state, bits, draw(st.integers(0, 1))


@settings(max_examples=150, deadline=None)
@given(gated_nets())
def test_plain_plan_and_replay_ticks_match_fractions(case):
    """One signature ``_SIGHTINGS + 1`` times on a fresh net: the
    sightings before the last two take the plain path, the next builds the
    plan and the last replays it."""
    net, state, bits, v = case
    cn = _compiled(net)
    want = fraction_tick(net, state, bits, v)
    orders = []
    for _ in range(network._SIGHTINGS + 1):
        got = _fast_step(cn, state, bits, v)
        assert [Fraction(x) for x in got] == want
        orders.append((got.units, got.fracs))
    assert orders == [orders[0]] * len(orders)
    # the candidate behind the closed gate is reached but gets no row
    [(reached, rows)] = reached_and_rows(cn)
    assert rows < reached


@settings(max_examples=150, deadline=None)
@given(gated_nets())
def test_plan_scale_is_the_least_denominator_it_reads(case):
    """A plan's ``scale`` divides ``d`` and is the least common
    denominator of its bases, term weights and scaled unit sums."""
    net, state, bits, v = case
    cn = _compiled(net)
    want = fraction_tick(net, state, bits, v)
    for _ in range(network._SIGHTINGS):  # plain path, then plan build and replay
        assert [Fraction(x) for x in _fast_step(cn, state, bits, v)] == want
    [plan] = built_plans(cn)
    rows, scaled, scale = plan.shape
    assert cn.d % scale == 0
    values = [u for _, u in scaled]
    for _, _, w, base, _, more in rows:
        values += [w, base, *(w for _, w in more)]
    assert lcm(*(Fraction(x, scale).denominator for x in values)) == scale


def test_plan_leaves_out_weights_it_does_not_read():
    """Neuron 0 holds 1/2 on a self-loop of weight 1; the 1/3 edge out of
    neuron 2 is read only while neuron 2 is not 0, and it stays at 0."""
    net = Network(
        3,
        0,
        state_weights={(0, 0): ExactScalar.integer(1), (1, 2): ExactScalar.rational(1, 3)},
    )
    cn = _compiled(net)
    assert cn.d == 3
    state, dens = _IntState.of([Fraction(1, 2), 0, 0]), []
    last = network._SIGHTINGS - 1
    for _ in range(last + 2):  # plain path, plan build, replay
        state = _fast_step(cn, state, (), 0)
        assert list(state) == [Fraction(1, 2), 0, 0]
        dens.append(state.den)
    [plan] = built_plans(cn)
    # a sighting before the plan multiplies den by d, a replay by its scale
    assert plan.shape[2] == 1
    assert dens == [2 * 3 ** min(t, last) for t in range(1, last + 3)]


@settings(max_examples=150, deadline=None)
@given(gated_nets())
def test_generated_tick_writes_what_the_plain_path_writes(case):
    """Called directly, a plan's generated ``tick`` gives the numerators,
    over its ``top``, that ``fraction_tick`` gives; each row's two bits of
    its ``code`` say whether the row is at 1 or fractional, and the code
    links to the node of the ``(units, fracs)`` the plain path wrote, order
    included."""
    net, state, bits, v = case
    cn = _compiled(net)
    want = fraction_tick(net, state, bits, v)
    start = _IntState.of(state)
    plain = _fast_step(cn, start, bits, v)
    for _ in range(network._SIGHTINGS):  # the other plain sightings, the build, a replay
        got = _fast_step(cn, start, bits, v)
        assert (got.units, got.fracs, list(got)) == (plain.units, plain.fracs, want)
    [plan] = built_plans(cn)
    rows, _, scale = plan.shape
    code, xs, top = plan.tick(list(start.xs), start.den)
    assert top == scale * start.den
    assert [Fraction(x, top) for x in xs] == [want[i] for i in plain.fracs]
    assert code >> 2 * len(rows) == 0
    for k, row in enumerate(rows):
        assert code >> 2 * k & 3 == (1 if want[row[0]] == 1 else 2 if want[row[0]] else 0)
    node = plan.get(code)
    assert (node.units, node.fracs) == (plain.units, plain.fracs)


def test_generated_plans_cover_each_kind_of_row():
    """Seeded random nets on a repeated input period, ticked until their
    plans replay, match ``fraction_tick`` on every tick.  The plans they
    build hold each case that ``_gen`` writes differently, and plans of
    equal shape share one function, the one ``interned`` holds."""
    rng = random.Random(31)
    kinds = Counter()
    for trial in range(80):
        n = rng.randint(2, 8)
        m = rng.randint(0, 2)

        def scalar(lo, hi):
            return ExactScalar.rational(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 4]))

        sw = {
            (i, j): ExactScalar.integer(1) if rng.random() < 0.3 else scalar(-3, 3)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.4
        }
        iw = {(i, j): scalar(-2, 2) for i in range(n) for j in range(m + 1) if rng.random() < 0.4}
        bias = {i: scalar(-2, 2) for i in range(n) if rng.random() < 0.6}
        acts = tuple(rng.choice(["sat", "sig"]) for _ in range(n))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        cn = _compiled(net)
        period = [
            (tuple(rng.randint(0, 1) for _ in range(m)), rng.randint(0, 1))
            for _ in range(rng.randint(1, 3))
        ]
        state = ref = [rng.choice([0, 1, Fraction(1, 2), Fraction(2, 3)]) for _ in range(n)]
        for bits, v in period * (network._SIGHTINGS + 3):
            state = _fast_step(cn, state, bits, v)
            ref = fraction_tick(net, ref, bits, v)
            assert [Fraction(x) for x in state] == ref, trial
        functions = {}
        for plan in built_plans(cn):
            assert functions.setdefault(plan.shape, plan.tick) is plan.tick
            assert cn.interned[plan.shape] == (plan.tick, plan.shape)
            rows, scaled, scale = plan.shape
            kinds.update({"scale 1": scale == 1, "scale > 1": scale > 1, "scaled": bool(scaled)})
            for _, _, w, base, sat, more in rows:
                weights = [w, *(v for _, v in more)]
                kinds.update({
                    "more": bool(more), "negative weight": min(weights) < 0, "sig row": not sat,
                    "sat row": sat, "base 0": base == 0, "weight 1": 1 in weights,
                })
        assert len(functions) == len(cn.interned), trial
    assert all(kinds.values()) and len(kinds) == 9, kinds


def bound_class(row, scale):
    """What a plan row's bound over its signature leaves to test (see
    ``_gen``): with its base plus its negative weights as ``lo`` and plus
    its positive ones as ``hi``, ``a > 0`` can fail only when ``lo < 0``,
    and ``a < top`` only when ``hi > scale``; a saturating row with
    ``lo >= scale`` is at 1 whatever either says."""
    _, _, w, base, sat, more = row
    weights = [w, *(v for _, v in more)]
    lo = base + sum(v for v in weights if v < 0)
    hi = base + sum(v for v in weights if v > 0)
    if not sat:
        return "sig at 1" if lo >= 0 else "sig a > 0"
    if lo >= scale:
        return "sat at 1"
    return {
        (True, True): "fractional", (False, True): "a > 0", (True, False): "a < top",
        (False, False): "both",
    }[lo >= 0, hi <= scale]


#: The comparisons a generated row keeps, by its bound class.
TESTS_LEFT = {
    "sig at 1": 0, "sig a > 0": 1, "sat at 1": 0, "fractional": 0, "a > 0": 1,
    "a < top": 1, "both": 2,
}


def evaluate_rows(rows, scaled, scale, xs, den):
    """What ``rows`` and ``scaled`` write from numerators ``xs`` over
    ``den``: every row's sum, compared with 0 and, on a saturating row,
    with ``top``, on every call."""
    top = scale * den
    code, nx = 0, []
    for k, (_, p, w, base, sat, more) in enumerate(rows):
        a = base * den + sum(v * xs[q] for q, v in ((p, w), *more))
        if a > 0:
            if sat and a < top:
                nx.append(a)
                code |= 2 << 2 * k
            else:
                code |= 1 << 2 * k
    return code, nx + [u * den for _, u in scaled], top


@st.composite
def plan_shapes(draw):
    """Plan rows of every bound class, ``scaled``, a ``scale`` and
    numerators ``0 < x < den`` of the sources the rows read.  Each row's
    base is drawn across the edges of its bound, so rows at 1,
    fractional, with one test and with both come up, saturating or not,
    with one source or more."""
    n = draw(st.integers(1, 4))
    den = draw(st.one_of(st.integers(2, 64), st.integers(2, 2**80)))
    xs = draw(st.lists(st.integers(1, den - 1), min_size=n, max_size=n))
    scale = draw(st.integers(1, 6))
    rows = []
    for i in range(draw(st.integers(0, 6))):
        ps = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        ws = draw(st.lists(st.integers(-8, 8).filter(bool), min_size=len(ps), max_size=len(ps)))
        neg, pos = sum(w for w in ws if w < 0), sum(w for w in ws if w > 0)
        base = draw(st.integers(-pos - 1, scale - neg + 1))
        (p, w), *more = zip(ps, ws)
        rows.append((draw(st.integers(0, 99)), p, w, base, draw(st.booleans()), tuple(more)))
    scaled = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(1, 6)), max_size=2))
    return tuple(rows), tuple(scaled), scale, xs, den


@settings(max_examples=400, deadline=None)
@given(plan_shapes())
def test_gen_matches_a_reference_row_evaluator(case):
    """A generated ``tick`` returns what evaluating every row in full
    gives, and it keeps only the comparisons its rows' bounds leave
    open."""
    rows, scaled, scale, xs, den = case
    tick = network._gen(rows, scaled, scale)
    assert tick(list(xs), den) == evaluate_rows(rows, scaled, scale, xs, den)
    compares = sum(op.opname == "COMPARE_OP" for op in dis.get_instructions(tick))
    assert compares == sum(TESTS_LEFT[bound_class(row, scale)] for row in rows)


def multiplies(tick):
    """The multiplies in ``tick``'s bytecode: ``BINARY_MULTIPLY`` on Python
    3.10, ``BINARY_OP`` with ``*`` from 3.11 on."""
    return sum(
        op.opname == "BINARY_MULTIPLY" or (op.opname == "BINARY_OP" and op.argrepr == "*")
        for op in dis.get_instructions(tick)
    )


@settings(max_examples=400, deadline=None)
@given(plan_shapes())
def test_gen_computes_each_product_once(case):
    """A generated ``tick`` multiplies once for each distinct product its
    written rows, ``top`` and ``scaled`` read, ``|w| * x_q`` or ``|b| *
    den``, and never by 1 or -1: a weight of -1 is a subtraction and a
    weight of 1 the source alone."""
    rows, scaled, scale, _, _ = case
    products = {(scale, "den"), *((u, "den") for _, u in scaled)}
    for row in rows:
        if bound_class(row, scale) not in ("sig at 1", "sat at 1"):
            _, p, w, base, _, more = row
            products |= {(abs(base), "den"), *((abs(v), q) for q, v in ((p, w), *more))}
    products = {(m, source) for m, source in products if m not in (0, 1)}
    assert multiplies(network._gen(rows, scaled, scale)) == len(products)


def test_generated_plans_reach_every_bound_class():
    """Seeded random nets, and the a^n b^n net in lockstep with
    ``fraction_tick``, build plans whose rows fall in every bound class
    ``_gen`` writes differently, and each tick matches ``fraction_tick``.
    The a^n b^n net alone reaches every class but a saturating row at 1."""
    rng = random.Random(47)
    classes = Counter()
    for trial in range(60):
        n = rng.randint(2, 8)
        m = rng.randint(0, 2)

        def scalar(lo, hi):
            return ExactScalar.rational(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))

        sw = {(i, j): scalar(-3, 3) for i in range(n) for j in range(n) if rng.random() < 0.4}
        iw = {(i, j): scalar(-2, 3) for i in range(n) for j in range(m + 1) if rng.random() < 0.4}
        bias = {i: scalar(-2, 3) for i in range(n) if rng.random() < 0.6}
        acts = tuple(rng.choice(["sat", "sig"]) for _ in range(n))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        cn = _compiled(net)
        period = [
            (tuple(rng.randint(0, 1) for _ in range(m)), rng.randint(0, 1))
            for _ in range(rng.randint(1, 3))
        ]
        state = ref = [rng.choice([0, 1, Fraction(1, 2), Fraction(1, 3)]) for _ in range(n)]
        for bits, v in period * (network._SIGHTINGS + 3):
            state = _fast_step(cn, state, bits, v)
            ref = fraction_tick(net, ref, bits, v)
            assert [Fraction(x) for x in state] == ref, trial
        classes.update(bound_class(row, plan.shape[2]) for plan in built_plans(cn)
                       for row in plan.shape[0])
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    lockstep(net, "aabb", two_stack_budget(4, machine.execute("aabb", 100)[1]))
    anbn = Counter(bound_class(row, plan.shape[2]) for plan in built_plans(_compiled(net))
                   for row in plan.shape[0])
    assert set(anbn) == set(TESTS_LEFT) - {"sat at 1"}, anbn
    assert set(classes + anbn) == set(TESTS_LEFT), classes


def test_equal_plan_shapes_share_one_function():
    """On the a^n b^n net, many plans share a shape and so one generated
    function, which each holds by the very ``shape`` object it is
    interned under."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    cn = _compiled(net)
    for word in ("aabb", "aab") * (network._SIGHTINGS + 1):
        run(net, word, two_stack_budget(len(word), machine.execute(word, 10_000)[1]))
    plans = built_plans(cn)
    functions = {}
    for plan in plans:
        assert functions.setdefault(plan.shape, plan.tick) is plan.tick
        assert cn.interned[plan.shape][1] is plan.shape
    assert len(functions) == len(cn.interned) < len(plans)


def test_gen_refuses_values_that_are_not_ints(monkeypatch):
    """Only ``%d``-formatted ints reach the source ``_gen`` and ``_fuse``
    hand to ``exec``: a Fraction, a str, a float or a bool in any field of
    a shape, or in a cycle's or a chain's code, is refused, and ``_fuse``
    refuses it before any source is run, for a loop or a chain, the
    composed map and tests and the jump's closed form included."""
    row = (0, 0, 3, -1, True, ((1, 1),))
    # -5 + 3*3 + 1 = 5 over top 10: fractional, then the scaled 1 * 5
    assert network._gen((row,), ((2, 1),), 2)([3, 1], 5) == (2, [5, 5], 10)

    def cycle(rows, scaled, scale, key=2):
        # one plan that links its code to itself: a cycle of one tick
        plan = _Plan(None, (rows, scaled, scale), ())
        plan.key = key
        return [plan]

    # x -> 3x - den over 2*den is separable, so its cycle is a loop: from 3
    # over 5 it writes 4, then the scaled 1 * 5, over 10; row's map reads
    # two registers and does not jump, so it makes no loop
    sep = (0, 0, 3, -1, True, ())
    assert network._fuse(cycle((sep,), ((2, 1),), 2))([3, 1], 5, 1) == (1, 0, 2, [4, 5], 10)
    assert network._fuse(cycle((row,), ((2, 1),), 2)) is None
    # the same plan twice over as a chain from 2 registers: its tests hold
    # on [3, 1] over 5, through [5, 5] over 10 to 15 + 5 - 10 = 10 over 20;
    # on [1, 1] the row is at 0 (3 + 1 - 5), so the head ticks alone
    plan = cycle((row,), ((2, 1),), 2)[0]
    plan.tick = network._gen((row,), ((2, 1),), 2)
    chain = network._fuse([plan, plan], 2, False)
    assert chain([3, 1], 5, 2) == (2, 1, 2, [10, 10], 20)
    assert chain([1, 1], 5, 2) == (1, 0, 0, [5], 10)
    # from just under 1, sep's loop jumps to the tick on which ticking the
    # plan leaves the cycle
    xs, den, ticks, tick = [(1 << 20) - 1], 1 << 20, 0, network._gen((sep,), (), 2)
    code = 2
    while code == 2:
        code, xs, den = tick(xs, den)
        ticks += 1
    assert ticks > 30
    [jumps] = cycle((sep,), (), 2)
    jumps.tick = tick  # which the loop calls on the cycle it leaves
    assert network._fuse([jumps])([(1 << 20) - 1], 1 << 20, 99) == (ticks, 0, code, xs, den)
    ran = []
    monkeypatch.setattr(network, "exec", lambda *args: ran.append(args), raising=False)
    for bad in (Fraction(1, 2), "1", "den); import os; (", 1.5, True):
        cases = [
            ((row[:2] + (bad,) + row[3:],), (), 1),  # weight
            ((row[:3] + (bad,) + row[4:],), (), 1),  # base
            (((0, bad, 3, -1, True, ()),), (), 1),  # position
            ((row[:5] + (((1, bad),),),), (), 1),  # weight of a further source
            ((row,), ((2, bad),), 1),  # scaled unit sum
            ((row,), (), bad),  # scale
            ((sep[:2] + (bad,) + sep[3:],), (), 2),  # weight, in a map that jumps
            ((sep[:3] + (bad,) + sep[4:],), (), 2),  # base, in a map that jumps
            ((sep,), (), bad),  # scale, of a map that jumps
        ]
        for rows, scaled, scale in cases:
            with pytest.raises(TypeError, match="ints only"):
                network._gen(rows, scaled, scale)
            with pytest.raises(TypeError, match="ints only"):
                network._fuse(cycle(rows, scaled, scale))
            with pytest.raises(TypeError, match="ints only"):
                network._fuse(cycle(rows, scaled, scale) * 2, 2, False)  # a chain
        with pytest.raises(TypeError, match="ints only"):
            network._fuse(cycle((row,), ((2, 1),), 2, key=bad))  # code
        with pytest.raises(TypeError, match="ints only"):
            network._fuse(cycle((sep,), (), 2, key=bad))  # code, of a map that jumps
        with pytest.raises(TypeError, match="ints only"):
            network._fuse(cycle((row,), ((2, 1),), 2, key=bad) * 2, 2, False)  # a chain's code
    assert not ran


@st.composite
def word_nets(draw):
    """A random exact net with output lines and input symbols, a word over
    those symbols and a budget."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 2))
    scalar = st.fractions(-2, 2, max_denominator=6).map(ExactScalar.from_fraction)
    neuron = st.integers(0, n - 1)
    iw = draw(st.dictionaries(st.tuples(neuron, st.integers(0, m)), scalar))
    bias = draw(st.dictionaries(neuron, scalar))
    valid = draw(neuron)
    if draw(st.booleans()):  # out_valid tends to rise once the word ends
        iw[(valid, m)], bias[valid] = ExactScalar.integer(-1), ExactScalar.rational(1, 2)
    net = Network(
        n,
        m,
        state_weights=draw(st.dictionaries(st.tuples(neuron, neuron), scalar, max_size=3 * n)),
        input_weights=iw,
        biases=bias,
        activations=draw(st.lists(st.sampled_from(["sat", "sig"]), min_size=n, max_size=n)),
        out_data=draw(neuron),
        out_valid=valid,
        out_flag=draw(st.none() | neuron),
        input_symbols="ab"[:m],
    )
    word = draw(st.text("ab"[:m], max_size=6))
    return net, word, draw(st.integers(len(word) + 1, len(word) + 30))


@settings(max_examples=150, deadline=None)
@given(word_nets())
def test_run_matches_a_loop_of_fast_step(case):
    """``run`` makes one kernel call; ticking the same word one
    ``_fast_step`` at a time, on the plan memo that ``run`` left, reaches
    the same ``(units, fracs)`` and values as the state that call returns,
    and the same verdict, flag and ticks, read on the first tick that
    ``out_valid`` is positive."""
    net, word, budget = case
    kernel, seen = network._ticks, []

    def recorded(cn, state, feed):
        ticks, reached = kernel(cn, state, feed)
        seen.append(reached)
        return ticks, reached

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_ticks", recorded)
        result = run(net, word, budget)
    [final] = seen
    cn = _compiled(net)
    state, ticks, verdict, flagged = [0] * net.n_neurons, budget, Verdict.TIMEOUT, False
    for t in range(budget):
        line = net.line_for_symbol(word[t]) if t < len(word) else None
        bits = tuple(int(j == line) for j in range(net.n_inputs))
        state = _fast_step(cn, state, bits, int(t < len(word)))
        values = list(state)
        if values[net.out_valid] > 0:
            ticks = t + 1
            verdict = Verdict.ACCEPT if values[net.out_data] > 0 else Verdict.REJECT
            flagged = net.out_flag is not None and values[net.out_flag] > 0
            break
    assert (state.units, state.fracs) == (final.units, final.fracs)
    assert list(state) == list(final)
    assert (result.verdict, result.ticks, result.flagged) == (verdict, ticks, flagged)


@settings(max_examples=100, deadline=None)
@given(word_nets())
def test_generated_plans_match_fractions_on_words(case):
    """Every tick of a word, pass after pass until each tick's plan is built
    and replayed, gives ``fraction_tick``'s values in the plain path's
    order; ``run``, which feeds the net's own item objects, then agrees on
    the ticks."""
    net, word, budget = case
    ticks = lockstep(net, word, budget)
    assert built_plans(_compiled(net))
    assert run(net, word, budget).ticks == ticks


def test_lazy_run_stops_on_its_verdict_tick():
    """Nets with a stream of no known horizon run on interval enclosures:
    one reaches its verdict once the word ends, on a flagged tick; the
    other never raises ``out_valid`` and times out.  Each agrees with
    ``reference_run``."""
    for valid_bias, want in ((Fraction(1, 2), Verdict.ACCEPT), (-1, Verdict.TIMEOUT)):
        stream = UnitReal(gen=iter([1] + [0] * 500), base=2)
        net = Network(
            3,
            1,
            state_weights={(2, 0): ExactScalar.integer(1)},
            input_weights={(1, 1): ExactScalar.integer(-1)},
            biases={0: ExactScalar.from_stream(stream),
                    1: ExactScalar.from_fraction(Fraction(valid_bias))},
            activations=("sat", "sig", "sat"),
            out_data=0,
            out_valid=1,
            out_flag=2,
            input_symbols=("a",),
        )
        assert not net.is_exact()
        result = run(net, "aa", 6)
        assert result.verdict == want
        if want == Verdict.ACCEPT:
            assert (result.ticks, result.flagged) == (3, True)
        else:
            assert (result.ticks, result.flagged) == (6, False)
        assert (result.verdict, result.ticks, result.flagged) == reference_run(net, "aa", 6)


def test_lazy_run_reads_output_data_on_its_verdict_tick_only():
    """``out_data`` (neuron 0) has a stream bias that is 0 through every
    digit a run may read, so on tick 1 its enclosure straddles 0 and its
    sign is undecidable.  ``out_valid`` first rises on tick 2, where
    neuron 2 pushes neuron 0 up to 1.  The run reads neuron 0 on that tick
    only, and decides as ``reference_run`` does, instead of raising
    ``UnknownSign``."""
    net = Network(
        3,
        1,
        state_weights={(1, 2): ExactScalar.integer(1), (0, 2): ExactScalar.integer(1)},
        input_weights={(2, 1): ExactScalar.integer(1)},
        biases={0: ExactScalar.from_stream(UnitReal(gen=iter([0] * 500), base=2))},
        activations=("sat", "sig", "sat"),
        out_data=0,
        out_valid=1,
        out_flag=2,
        input_symbols=("a",),
    )
    assert not net.is_exact()
    result = run(net, "a", 4)
    assert (result.verdict, result.ticks, result.flagged) == (Verdict.ACCEPT, 2, False)
    assert (result.verdict, result.ticks, result.flagged) == reference_run(net, "a", 4)


def test_plan_fires_when_it_writes_out_valid():
    """A plan fires on an outcome that writes ``out_valid``: a row's target
    at 1 or fractional, in ``tops`` or in ``scaled``.  That outcome's link
    leads to a node that ``stops``, and no other does; each node stops
    exactly when ``out_valid`` is in its signature.  Repeated words build
    the plans of their verdict ticks, so both values occur."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    cn = _compiled(net)
    for word in ("aabb", "aab", "abab") * (network._SIGHTINGS + 1):
        run(net, word, two_stack_budget(len(word), machine.execute(word, 10_000)[1]))
    valid = net.out_valid
    for node in cn.tick_plans.values():
        assert node.stops == (valid in node.units or valid in node.fracs)
    fires = []
    for plan in built_plans(cn):
        rows, scaled, _ = plan.shape
        for code, node in entries(plan):
            written = {row[0] for k, row in enumerate(rows) if code >> 2 * k & 3}
            written |= set(plan.tops) | {i for i, _ in scaled}
            assert node.stops == (valid in written)
            fires.append(node.stops)
    assert set(fires) == {True, False}


@pytest.mark.parametrize("way", ["row", "tops", "scaled"])
def test_run_stops_where_out_valid_is_written(way):
    """``out_valid`` (neuron 1) written by a row, a top or a scaled unit
    sum: on a cold memo, the plan build and its replay, ``run`` stops on
    the tick a ``_fast_step`` loop first sees it positive.  Neuron 0
    counts up by 1/4 per tick for the row (``out_valid`` rises once it
    passes 1/2), and is held at 1 for the other two."""
    q = ExactScalar.rational
    if way == "row":
        weights, biases = {(0, 0): q(1, 1), (1, 0): q(1, 1)}, {0: q(1, 4), 1: q(-1, 2)}
    else:
        weights, biases = {(1, 0): q(1, 1) if way == "tops" else q(1, 2)}, {0: q(1, 1)}

    def build():
        return Network(
            2, 1, state_weights=weights, biases=biases,
            activations=("sat", "sig" if way == "row" else "sat"),
            out_data=0, out_valid=1, input_symbols=("a",),
        )

    ref = _compiled(build())  # its own memo, so run's is cold at first
    state = [0, 0]
    for t in range(1, 9):
        state = _fast_step(ref, state, (0,), 0)
        if list(state)[1] > 0:
            break
    net = build()
    for _ in range(network._SIGHTINGS + 1):
        result = run(net, "", 8)
        assert (result.verdict, result.ticks) == (Verdict.ACCEPT, t)
    [plan] = [
        plan for plan in built_plans(_compiled(net))
        if any(node.stops for _, node in entries(plan))
    ]
    rows, scaled, _ = plan.shape
    where = {"row": [row[0] for row in rows], "tops": plan.tops, "scaled": [i for i, _ in scaled]}
    assert [w for w, written in where.items() if 1 in written] == [way]


def test_fast_step_leaves_its_argument_untouched():
    """``_fast_step`` returns a new state and leaves its argument as it
    was, on the plain path, the plan build, a replay and a forced gcd
    alike."""
    net = Network(
        3,
        0,
        state_weights={(0, 0): ExactScalar.rational(1, 2), (1, 0): ExactScalar.integer(1),
                       (2, 1): ExactScalar.rational(2, 3)},
        biases={0: ExactScalar.rational(1, 3)},
    )
    cn = _compiled(net)
    state = _IntState.of([Fraction(1, 5), Fraction(1, 2), 1])
    for limit in (None, None, None, 0):
        if limit is not None:
            state.limit = limit
        before = (state.units, state.fracs, list(state.xs), state.den, state.limit)
        got = _fast_step(cn, state, (), 0)
        assert (state.units, state.fracs, state.xs, state.den, state.limit) == before
        assert got is not state
        assert [Fraction(x) for x in got] == fraction_tick(net, list(state), (), 0)


def lockstep(net, word, budget):
    """Run ``word`` tick by tick on ``_fast_step`` and ``fraction_tick``,
    on a cold plan memo and then on the warm one it left, until each tick's
    plan is built and replayed, and until the output validation line
    rises; return the ticks."""
    cn = _compiled(net)
    ref = [Fraction(0)] * net.n_neurons
    trajectory = []
    for t in range(budget):
        line = net.line_for_symbol(word[t]) if t < len(word) else None
        bits = tuple(int(j == line) for j in range(net.n_inputs))
        v = int(t < len(word))
        ref = fraction_tick(net, ref, bits, v)
        trajectory.append((bits, v, ref))
        if ref[net.out_valid]:
            break
    passes = []
    for _ in range(network._SIGHTINGS + 1):  # a cold memo, then the warm one it left
        state, orders = [0] * net.n_neurons, []
        for bits, v, want in trajectory:
            state = _fast_step(cn, state, bits, v)
            assert [Fraction(x) for x in state] == want, (word, len(orders))
            orders.append((state.units, state.fracs))
        passes.append(orders)
    # a replayed plan orders the new state as the plain path did
    assert passes == [passes[0]] * len(passes), word
    return len(trajectory)


def test_pruned_plans_match_fractions_on_compiled_words():
    machine = anbn_machine()
    table = OracleTable.from_language(abstar_language(), 25)
    spec = OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB)
    cases = [
        ("anbn", two_stack_to_net(machine), word,
         two_stack_budget(len(word), machine.execute(word, 10_000)[1]))
        for word in ("", "ab", "aabb", "aab", "abab", "aaabbb")
    ]
    cases += [
        ("composed", compose_nets(*oracle_net_parts(spec)), word, composed_oracle_budget(word, AB))
        for word in ("", "a")
    ]
    pruned = set()
    for kind, net, word, budget in cases:  # a fresh net, so a cold memo, per word
        assert lockstep(net, word, budget) == run(net, word, budget).ticks
        if any(rows < reached for reached, rows in reached_and_rows(_compiled(net))):
            pruned.add(kind)
    # closed gates really are left out of replayed plans, on both kinds of net
    assert pruned == {"anbn", "composed"}


def fused_loops(cn):
    """The ``_Loop`` of each hot cycle fused on ``cn``, under the blank
    item or an input symbol's."""
    return [
        entry
        for node in cn.tick_plans.values()
        for _, entry in entries(node)
        if isinstance(entry, network._Loop)
    ]


def test_tick_plans_are_emptied_at_their_cap(monkeypatch):
    """With the cap lowered, every tick is as before while nodes, links and
    generated functions are emptied together.  At the cap of the nodes that
    ``ab``'s passes meet, those passes build their plans, and the first new
    signature of ``aaabbb`` empties the map; at a cap of 5 nothing is ever
    built.  These words close no blank cycle; with ``a^12 b^12`` after
    them, whose stack drains long enough to close some, fused loops are
    built between emptyings at the first cap, every tick is still as
    before, and no loop outlives the emptying of its nodes."""
    machine = anbn_machine()
    words = ["ab"] * (network._SIGHTINGS + 1) + ["aaabbb"] * 2

    def trajectory(cap, words=words):
        net = two_stack_to_net(machine)
        cn = _compiled(net)
        out, sizes, nodes, dropped, loops = [], [], set(), [], []
        for word in words:
            state = [0] * net.n_neurons
            for t in range(two_stack_budget(len(word), machine.execute(word, 10_000)[1])):
                line = net.line_for_symbol(word[t]) if t < len(word) else None
                bits = tuple(int(j == line) for j in range(net.n_inputs))
                state = _fast_step(cn, state, bits, int(t < len(word)))
                out.append(tuple(Fraction(x) for x in state))
                if sizes and len(cn.tick_plans) < sizes[-1][0]:  # emptied on this tick
                    dropped += loops
                    assert not set(loops) & set(fused_loops(cn))
                sizes.append((len(cn.tick_plans), len(cn.interned), len(built_plans(cn))))
                assert len(cn.tick_plans) <= cap
                nodes.update(cn.tick_plans.values())
                loops = fused_loops(cn)
        # a node emptied at the cap keeps no plan, link or count
        assert all(not entries(node) for node in nodes - set(cn.tick_plans.values()))
        # and no loop outlives it: only this test holds one once its node is emptied
        assert not dropped or gc.get_referrers(*dropped) == [dropped]
        return out, sizes, dropped

    full = network._TICK_PLAN_CAP
    reference, sizes, _ = trajectory(full)
    ab_ticks = (network._SIGHTINGS + 1) * two_stack_budget(2, machine.execute("ab", 10_000)[1])
    cap, functions, plans = sizes[ab_ticks - 1]
    assert functions > 0 and plans > functions and max(sizes)[0] > cap
    ab_cap = cap
    for cap in (cap, 5):
        monkeypatch.setattr(network, "_TICK_PLAN_CAP", cap)
        capped, sizes, _ = trajectory(cap)
        assert capped == reference
        assert max(sizes)[0] == cap
        # it filled up and was emptied, the functions and links with it
        emptied = [t for t in range(1, len(sizes)) if sizes[t][0] < sizes[t - 1][0]]
        assert emptied and all(sizes[t][1:] == (0, 0) for t in emptied)
        assert (1, 0, 0) in sizes
        assert (max(sizes[t - 1][2] for t in emptied) > 0) == (cap > 5)
    longer = words + ["a" * 12 + "b" * 12]
    monkeypatch.setattr(network, "_TICK_PLAN_CAP", full)
    reference, _, _ = trajectory(full, longer)
    monkeypatch.setattr(network, "_TICK_PLAN_CAP", ab_cap)
    capped, _, dropped = trajectory(ab_cap, longer)
    assert dropped and capped == reference


def test_a_chain_head_that_branches_on_a_new_node_at_the_cap_empties_the_map(monkeypatch):
    """Warm on ``ab`` and then ``a``, the a^n b^n net builds a chain on
    ``b`` whose head links a second code to a node not met before.  With
    the cap at the nodes held just before that node, that link empties the
    map, chains and their records with it, and ``run`` still reaches what
    ``_fast_step`` reaches tick by tick."""
    machine = anbn_machine()
    link, events = network._link, []

    def counted(cn, plan, code, item):  # (nodes before, nodes after) of a head's new code
        head, before = plan.__class__ is network._Chain and plan.get(code) is None, \
            len(cn.tick_plans)
        node = link(cn, plan, code, item)
        if head:
            events.append((before, len(cn.tick_plans)))
        return node

    def warmed():
        net = two_stack_to_net(machine)
        for word in ["ab"] * (network._SIGHTINGS + 3) + ["a"]:
            run(net, word, word_budget(machine, word))
        events.clear()
        return net

    monkeypatch.setattr(network, "_link", counted)
    probe = "b"
    run(warmed(), probe, word_budget(machine, probe))
    [cap, _] = next(event for event in events if event[1] > event[0])
    net = warmed()
    monkeypatch.setattr(network, "_TICK_PLAN_CAP", cap)
    run_matches_fast_step(net, probe, word_budget(machine, probe))
    assert (cap, 1) in events
    check_chains(_compiled(net))


@pytest.fixture
def loop_exits(monkeypatch):
    """How each call of a loop fused while the test runs ended, as
    ``(ticks, how)``: "miss" where the cycle's tests failed, so that its
    head ticked alone after the whole cycles, and "end" when no whole
    cycle was left.  Chains, which ``_fuse`` also makes, are not counted."""
    exits, fuse = [], network._fuse

    def counted(cycle, m=None, closes=True):
        loop = fuse(cycle, m, closes)
        if not closes or loop is None:
            return loop

        def call(xs, den, left):
            got = n, k, code, _, _ = loop(xs, den, left)
            how = "miss" if code != cycle[k].key or n % len(cycle) else "end"
            assert n <= left and (how == "miss" or n + len(cycle) > left)
            exits.append((n, how))
            return got

        return call

    monkeypatch.setattr(network, "_fuse", counted)
    return exits


def run_matches_fast_step(net, word, budget):
    """``run`` once, and then the same word one ``_fast_step`` at a time on
    the memo it left: both reach the same ``(units, fracs)`` and values,
    verdict, flag and ticks, as ``test_run_matches_a_loop_of_fast_step``
    asks.  Returns ``run``'s result."""
    kernel, seen = network._ticks, []

    def recorded(cn, state, feed):
        ticks, reached = kernel(cn, state, feed)
        seen.append(reached)
        return ticks, reached

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_ticks", recorded)
        result = run(net, word, budget)
    [final] = seen
    cn = _compiled(net)
    state, ticks, verdict, flagged = [0] * net.n_neurons, budget, Verdict.TIMEOUT, False
    for t in range(budget):
        line = net.line_for_symbol(word[t]) if t < len(word) else None
        bits = tuple(int(j == line) for j in range(net.n_inputs))
        state = _fast_step(cn, state, bits, int(t < len(word)))
        values = list(state)
        if values[net.out_valid] > 0:
            ticks = t + 1
            verdict = Verdict.ACCEPT if values[net.out_data] > 0 else Verdict.REJECT
            flagged = net.out_flag is not None and values[net.out_flag] > 0
            break
    assert (state.units, state.fracs) == (final.units, final.fracs), word
    assert list(state) == list(final), word
    assert (result.verdict, result.ticks, result.flagged) == (verdict, ticks, flagged), word
    return result


def test_fused_loops_match_fast_step_on_anbn_words(loop_exits):
    """Once a^n b^n's stack drains often enough, its blank cycles are fused
    and ``run`` enters them; a loop that runs while the machine turns from
    one digit to the next misses its guard there, and the run goes on tick
    by tick exactly as ``_fast_step`` does."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    for n in (20, 12, 21, 16):
        for word in ("a" * n + "b" * n, "a" * (n + 1) + "b" * n, "a" * n + "b" * (n + 1)):
            accepted, steps = machine.execute(word, 10_000)
            result = run_matches_fast_step(net, word, two_stack_budget(len(word), steps))
            assert result.verdict == (Verdict.ACCEPT if accepted else Verdict.REJECT)
    assert fused_loops(_compiled(net))
    hows = Counter(how for _, how in loop_exits)
    assert hows["miss"] > 0 and sum(n for n, _ in loop_exits) > 1000


def test_budgets_that_end_inside_a_fused_loop_time_out_on_them(loop_exits):
    """A budget that runs out while a loop goes round stops the loop at the
    last whole cycle that fits, and the run takes exactly ``budget`` ticks
    and times out, as tick by tick."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    word = "a" * 20 + "b" * 20
    verdict_tick = run(net, word, 10_000).ticks  # and the cycles are fused
    loop_exits.clear()
    for budget in range(len(word) + 1, verdict_tick, 23):
        result = run_matches_fast_step(net, word, budget)
        assert (result.verdict, result.ticks) == (Verdict.TIMEOUT, budget)
    assert "end" in {how for _, how in loop_exits}


def test_fused_loops_match_fast_step_on_an_oracle_net(loop_exits):
    """The horizon-64 ``oracle_net`` reads its weight's digits for ``b^5``
    (index 62) in blank cycles that are fused and entered."""
    net = oracle_net(OracleNetSpec(
        ExactScalar.oracle(OracleTable.from_language(abstar_language(), 64), CANTOR4, "0'"), AB
    ))
    word = "b" * 5
    for _ in range(2):
        result = run_matches_fast_step(net, word, oracle_budget(word, AB))
        assert result.verdict == Verdict.REJECT
    assert fused_loops(_compiled(net)) and loop_exits


def test_a_cycle_that_cannot_jump_goes_round_as_before(loop_exits):
    """``x -> 1 - 2x/3`` closes a blank cycle of one plan whose map reads
    its register with a negative ratio, so the value swings round 3/5 and
    ``_jump`` refuses the map: no ``_Loop`` is fused, the plan lies in no
    chain and ticks alone, and ``run`` still reaches what ``_fast_step``
    reaches tick by tick."""
    net = Network(
        2, 1, state_weights={(0, 0): ExactScalar.rational(-2, 3)},
        input_weights={(0, 0): ExactScalar.rational(1, 2)}, biases={0: ExactScalar.integer(1)},
        activations=("sat", "sig"), out_data=0, out_valid=1, input_symbols=("a",),
    )
    for _ in range(2):
        assert run_matches_fast_step(net, "a", 800).verdict == Verdict.TIMEOUT
    cn = _compiled(net)
    [turn] = [plan for node in cn.tick_plans.values() for item, plan in entries(node)
              if item == cn.blank and isinstance(plan, _Plan) and plan.value is node]
    assert turn.__class__ is _Plan and cn.chained.get(turn) is None
    assert network._jump(*network._compose([turn]), lambda ts: "0") is None
    assert not fused_loops(cn) and not loop_exits


@st.composite
def long_words(draw, shortest=24, longest=60):
    """A word of ``shortest`` to ``longest`` letters made of runs of one
    letter, so that a stack it loads holds long runs of equal digits to
    drain."""
    runs = draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 30)), min_size=1,
                         max_size=5))
    n = draw(st.integers(shortest, longest))
    return ("".join(ch * k for ch, k in runs) * n)[:n]


@settings(max_examples=30, deadline=None)
@given(two_stack_machines(), long_words())
def test_fused_loops_match_fast_step_on_random_machines(machine, word):
    """On random two-stack machines, the blank cycles that a long word's
    drains close are composed and entered, and ``run`` still reaches what
    ``_fast_step`` reaches tick by tick; a machine that does not halt
    within 200 steps times out on both."""
    _, steps = machine.execute(word, 200)
    run_matches_fast_step(two_stack_to_net(machine), word, two_stack_budget(len(word), steps))


@settings(max_examples=12, deadline=None)
@given(two_stack_machines(), long_words(100, 300))
def test_fused_loops_jump_on_random_machines(machine, word):
    """As above, on words of 100 to 300 letters, whose drains go round
    their composed cycles long enough to jump."""
    _, steps = machine.execute(word, 600)
    run_matches_fast_step(two_stack_to_net(machine), word, two_stack_budget(len(word), steps))


def test_warm_anbn_drains_take_one_loop_call_each(loop_exits):
    """Warm, each input run of a^400 b^400 is one loop call that jumps to
    the run's end (its first ``a`` enters the cycle's signature from the
    zero state, so 399 and 400 ticks), and each of its four drains is one
    loop call that jumps to the cycle that leaves it and ticks that
    cycle's head: 397 or 398 whole cycles of 7 and one tick; the run is
    as before."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    word = "a" * 400 + "b" * 400
    budget = two_stack_budget(len(word), machine.execute(word, 10_000)[1])
    first = run(net, word, budget)
    loop_exits.clear()
    assert run(net, word, budget) == first == network.RunResult(Verdict.ACCEPT, 12_024)
    assert loop_exits == [(399, "end"), (400, "end"),
                          (2780, "miss"), (2780, "miss"), (2780, "miss"), (2787, "miss")]


def shown_loops(cn):
    """The ``_Loop`` of each hot cycle fused on ``cn`` under an input
    symbol's feed item."""
    items = list(cn.shown.values())
    return [
        entry
        for node in cn.tick_plans.values()
        for item, entry in entries(node)
        if isinstance(entry, network._Loop) and item in items
    ]


@pytest.mark.parametrize("machine, runs", [
    (anbn_machine(), (30, 1, 30)),
    (copy_machine(), (40, 1, 3, 2, 17, 1, 1, 4)),
])
def test_loops_under_input_symbols_stop_at_the_end_of_their_run(loop_exits, machine, runs):
    """Warm, each input run of one letter, a^30 b a^30 on the a^n b^n net
    and runs of 1-40 letters on the copy machine, is one call of the loop
    fused under that letter's feed item when it holds 3 whole cycles of
    it: the call takes the run to its end, where the other letter stops
    it, and no further; the first letter enters the cycle's signature from
    the zero state, so its run takes one tick less.  ``run`` still reaches
    what ``_fast_step`` reaches tick by tick."""
    net = two_stack_to_net(machine)
    word = "".join("ab"[i % 2] * k for i, k in enumerate(runs))
    budget = two_stack_budget(len(word), machine.execute(word, 10_000)[1])
    for _ in range(3):  # each letter that runs long enough is met 8 times
        run_matches_fast_step(net, word, budget)
    assert shown_loops(_compiled(net))
    loop_exits.clear()
    run_matches_fast_step(net, word, budget)
    inputs = [(k - (i == 0), "end") for i, k in enumerate(runs) if k - (i == 0) >= 3]
    assert loop_exits[:len(inputs)] == inputs


@st.composite
def letter_runs(draw):
    """A word of 1 to 4 runs of one letter, each of 1 to 40 letters."""
    runs = draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 40)), min_size=1,
                         max_size=4))
    return "".join(ch * k for ch, k in runs)


@functools.cache
def warm_copy_net():
    """The copy machine's net, with the loops under both letters fused."""
    net = two_stack_to_net(copy_machine())
    for _ in range(2):
        run(net, "a" * 12 + "b" * 12, 10_000)
    assert len(shown_loops(_compiled(net))) == 2
    return net


@settings(max_examples=15, deadline=None)
@given(letter_runs())
def test_loops_under_input_symbols_match_fast_step_on_copy_words(word):
    """On the warm copy machine net, words of runs of 1-40 letters go round
    the loops under each letter for as long as their runs, and ``run``
    reaches what ``_fast_step`` reaches tick by tick."""
    steps = copy_machine().execute(word, 10_000)[1]
    run_matches_fast_step(warm_copy_net(), word, two_stack_budget(len(word), steps))


def test_fast_step_ticks_once_where_a_loop_is_met():
    """``_fast_step`` feeds one item, so where its state's node holds a
    fused loop for that item, under an input symbol on the a^n b^n net or
    under a blank-valued item on a net whose blank cycle is one plan, it
    still takes exactly one tick, the one the Fraction equation gives."""
    anbn = two_stack_to_net(anbn_machine())
    run(anbn, "a" * 20, 21)  # the loop under a is fused
    # x -> x/2 + 1/4, separable, stays strictly between 0 and 1
    halve = Network(
        2, 1, state_weights={(0, 0): ExactScalar.rational(1, 2)},
        input_weights={(0, 0): ExactScalar.rational(1, 2)}, biases={0: ExactScalar.rational(1, 4)},
        activations=("sat", "sig"), out_data=0, out_valid=1, input_symbols=("a",),
    )
    run(halve, "a", 40)  # the loop under the blank item is fused
    # from the zero state, the first tick of a or of the blank item
    # reaches the cycle's signature
    for net, item in ((anbn, ((1, 0), 1)), (halve, ((0,), 0))):
        cn, met = _compiled(net), 0
        state = _fast_step(cn, [0] * net.n_neurons, *item)
        for _ in range(12):
            node = cn.tick_plans[state.units, state.fracs]
            met += isinstance(node.get(item), network._Loop)
            expected = fraction_tick(net, list(state), *item)
            state = _fast_step(cn, state, *item)
            assert list(state) == expected
        assert met == 12


@contextlib.contextmanager
def chain_calls():
    """Each call of a chain made inside the block, as ``(length, ticks,
    left)``: ``ticks`` is the chain's length when its tests held and 1 when
    its head ticked alone.  A call is made only when ``left``, the ticks
    left in its item's run, covers the chain."""
    calls, fuse = [], network._fuse

    def counted(path, m=None, closes=True):
        chain = fuse(path, m, closes)
        if closes:
            return chain

        def call(xs, den, left):
            got = chain(xs, den, left)
            assert left >= len(path) and got[0] in (1, len(path))
            assert got[1:3] == ((len(path) - 1, path[-1].key) if got[0] > 1 else (0, got[2]))
            calls.append((len(path), got[0], left))
            return got

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_fuse", counted)
        yield calls


def chains(cn):
    """Each chain on ``cn``, as ``(item, node, path)``: the feed item, the
    node of its head and its plans in order."""
    return [
        (item, node, (entry, *entry.rest))
        for node in cn.tick_plans.values()
        for item, entry in entries(node)
        if entry.__class__ is network._Chain
    ]


def walk(cn, node, item, plan):
    """The path that ``_chain``'s walk takes from ``plan``, the plan for
    ``item`` in ``node``."""
    path = []
    while (plan.__class__ is _Plan and plan.more is None and cn.chained.get(plan) is None
           and not node.stops and plan not in path):
        path.append(plan)
        node = plan.value
        plan = node.get(item)
    return path


def check_chains(cn):
    """Each plan sits in at most one chain, and each chain is a straight
    path: from its head's node, each plan is the plan of the node the one
    before linked and has linked one code, each after the head is a plain
    plan, no chain's or loop's head, that ``cn.chained`` maps to the head,
    and no node it ticks from stops.  ``cn.chained`` maps no other plan
    to a chain, and none to anything but a chain or None; a walk from a
    plan it maps to None, as starting no chain, still stops after it.
    Returns the number of chains."""
    seen, members = set(), set()
    for item, node, path in chains(cn):
        members.update(path[1:])
        for k, plan in enumerate(path):
            assert plan not in seen
            seen.add(plan)
            assert node.get(item) is plan and not node.stops
            assert plan.more is None and (k == 0 or plan.__class__ is _Plan)
            assert k == 0 or cn.chained[plan] is path[0]
            node = plan.value
    assert {plan for plan, head in cn.chained.items() if head is not None} == members
    assert all(head is None or head.__class__ is network._Chain for head in cn.chained.values())
    for node in cn.tick_plans.values():
        for item, plan in entries(node):
            if cn.chained.get(plan, 0) is None:
                assert len(walk(cn, node, item, plan)) <= 1
    return len(chains(cn))


def word_budget(machine, word, steps=10_000):
    return two_stack_budget(len(word), machine.execute(word, steps)[1])


@settings(max_examples=40, deadline=None)
@given(two_stack_machines(), st.text("ab", min_size=1, max_size=10), st.text("ab", max_size=10))
def test_chains_match_fast_step_on_random_machines(machine, word, other):
    """On random two-stack machines, a word run often enough builds chains
    that its blank tail enters, and then words that leave those paths
    (another word, the word with it appended, the word cut short), which
    fail a chain's tests where the new path takes a code the chain's
    plans never linked: the head ticks alone there, the plan that takes
    the new code splits the chain, and ``run`` still reaches what
    ``_fast_step`` reaches tick by tick, in ticks and values."""
    net = two_stack_to_net(machine)
    with chain_calls() as calls:
        for _ in range(network._SIGHTINGS + 2):
            run(net, word, word_budget(machine, word, 200))
        run_matches_fast_step(net, word, word_budget(machine, word, 200))
        assert calls and check_chains(_compiled(net))
        for w in (other, word + other, word[:-1], other, word):
            run_matches_fast_step(net, w, word_budget(machine, w, 200))
        check_chains(_compiled(net))


@pytest.mark.parametrize("machine, warm, probe", [
    (anbn_machine(), "abab", "abba"),
    (anbn_machine(), "aaabbb", "aaabb"),
    (copy_machine(), "aabbab", "aabbaa"),
    (copy_machine(), "aaaa", "aaab"),
])
def test_a_chain_whose_tests_fail_ticks_its_head_alone(machine, warm, probe):
    """Warm on one word, a chain's tests fail on the first entry of a word
    that takes a new code inside it: the call makes the head's tick alone,
    as ticking plan by plan would, and the run goes on from there to what
    ``_fast_step`` reaches; no chain is left holding the plan that
    branched, and the next runs pass every chain they call."""
    net = two_stack_to_net(machine)
    with chain_calls() as calls:
        for _ in range(network._SIGHTINGS + 3):
            run(net, warm, word_budget(machine, warm))
        calls.clear()
        run_matches_fast_step(net, probe, word_budget(machine, probe))
        assert any(ticks == 1 for _, ticks, _ in calls)
        check_chains(_compiled(net))
        calls.clear()
        for word in (warm, probe) * 2:
            run_matches_fast_step(net, word, word_budget(machine, word))
    assert calls and all(ticks == length for length, ticks, _ in calls)


def test_budgets_that_end_inside_a_chain_time_out_on_them():
    """A budget that runs out inside a chain's path does not enter the
    chain, whose ticks it does not cover: the run ticks plan by plan to
    the budget and times out there, on exactly the tick ``_fast_step``
    reaches plan by plan."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    word, budget = "aabbab", 1000
    with chain_calls() as calls:
        for _ in range(network._SIGHTINGS + 3):
            run(net, word, budget)
        calls.clear()
        ticks = run(net, word, budget).ticks
        # the blank tail runs to the budget, so a call with left ticks left
        # starts on tick budget - left + 1
        spans = [(budget - left + 1, length) for length, n, left in calls if n == length]
        assert spans
        cut = 0
        for start, length in spans:
            for end in range(start, start + length - 1):
                assert end < ticks
                calls.clear()
                result = run_matches_fast_step(net, word, end)
                assert (result.verdict, result.ticks) == (Verdict.TIMEOUT, end)
                assert all(left >= length for length, _, left in calls)
                cut += 1
    assert cut > 10


def test_chains_are_straight_and_disjoint_on_warm_nets():
    """On the warm a^n b^n net, the copy machine and the horizon-64
    ``oracle_net``, each plan sits in at most one chain, and no chain runs
    through a node that stops, a loop's head or another chain's head;
    every chain holds at least two plans."""
    anbn, copy = anbn_machine(), copy_machine()
    nets = [
        (two_stack_to_net(anbn), [(w, word_budget(anbn, w)) for w in
                                  ("aabb", "abab", "aaabbb", "a" * 12 + "b" * 11, "ab")]),
        (two_stack_to_net(copy), [(w, word_budget(copy, w)) for w in
                                  ("abba", "aaab", "ab" * 6, "b" * 9)]),
        (oracle_net(OracleNetSpec(ExactScalar.oracle(
            OracleTable.from_language(abstar_language(), 64), CANTOR4, "0'"), AB)),
         [(w, oracle_budget(w, AB)) for w in ("ab", "bb", "abb", "b" * 5)]),
    ]
    for net, words in nets:
        for _ in range(network._SIGHTINGS + 3):
            for word, budget in words:
                run(net, word, budget)
        cn = _compiled(net)
        assert check_chains(cn) >= 2
        assert all(len(path) >= 2 for _, _, path in chains(cn))
        assert set(map(id, fused_loops(cn))).isdisjoint(
            id(plan) for _, _, path in chains(cn) for plan in path)


def test_a_cycle_that_closes_through_a_chain_head_becomes_a_loop():
    """A cycle of three identity plans ``x -> x`` on three nodes, two of
    them a chain, whose third plan links back to the chain's head last:
    ``_close`` follows the chain's head as its plan, and the cycle becomes
    a ``_Loop`` there, headed by the plan that headed the chain; the chain
    is gone, its plans with it from ``cn.chained``, and the loop goes round
    the cycle."""
    cn = _compiled(one_neuron())
    item = ((), 0)
    shape = (((0, 0, 1, 0, True, ()),), (), 1)  # x -> x, fractional
    nodes = [network._Node((), (0,), False) for _ in range(3)]
    plans = [_Plan(network._gen(*shape), shape, ()) for _ in range(3)]
    for k, (node, plan) in enumerate(zip(nodes, plans)):
        cn.tick_plans[(k,), (0,)] = node
        node.put(item, plan)
    plans[1].put(2, nodes[2])
    plans[2].put(2, nodes[0])
    network._settle(cn, plans[1:], 1)
    assert plans[1].__class__ is network._Chain and cn.chained[plans[2]] is plans[1]
    plans[0].put(2, nodes[1])  # the last first link, which closes the cycle
    network._close(cn, nodes[1], item)
    loop = nodes[1].get(item)
    assert loop is plans[1] and loop.__class__ is network._Loop
    assert loop.rest == (plans[2], plans[0]) and not chains(cn) and not cn.chained
    assert loop.run([3], 5, 30) == (30, 2, 2, [3], 5)


def identity_plans(cn, item, links):
    """Nodes on ``cn``, one more than ``links``, the last one a node that
    stops, and one identity plan ``x -> x`` for ``item`` in each of the
    others, plan k linking its code to node ``links[k]``."""
    shape = (((0, 0, 1, 0, True, ()),), (), 1)  # x -> x, fractional
    nodes = [network._Node((), (0,), k == len(links)) for k in range(len(links) + 1)]
    plans = [_Plan(network._gen(*shape), shape, ()) for _ in links]
    for k, node in enumerate(nodes):
        cn.tick_plans[(k,), (0,)] = node
    for node, plan, link in zip(nodes, plans, links):
        node.put(item, plan)
        plan.put(2, nodes[link])
    return nodes, plans


def test_a_plan_recorded_in_front_of_a_chain_joins_it_once_it_breaks_up():
    """Three identity plans in a line to a node that stops, the last two
    a chain: a walk from the first stops at the chain's head and records
    the first plan as starting no chain.  When the chain's last plan links
    a second code, the chain breaks up, the record goes with it, and the
    next walk from the first plan chains it with the plan after it, up to
    the plan that now branches."""
    cn = _compiled(one_neuron())
    item = ((), 0)
    nodes, plans = identity_plans(cn, item, [1, 2, 3])
    network._settle(cn, plans[1:], 1)
    assert network._chain(cn, nodes[0], item, plans[0]) == (plans[0], True)
    assert cn.chained == {plans[0]: None, plans[2]: plans[1]}
    assert check_chains(cn) == 1
    network._link(cn, plans[2], 0, item)  # a second code, to a new node
    assert plans[1].__class__ is _Plan and not cn.chained
    assert network._chain(cn, nodes[0], item, plans[0]) == (plans[0], False)
    assert plans[0].__class__ is network._Chain and plans[0].rest == (plans[1],)
    assert cn.chained == {plans[1]: plans[0]} and check_chains(cn) == 1
    assert plans[0].run([3], 5, 2) == (2, 1, 2, [3], 5)


def test_a_path_that_ends_at_a_chains_last_plan_leaves_that_chain_whole():
    """Two identity plans lead into the node of a third, whose plan leads
    to a node that stops; the second and third are a chain.  A walk from
    the first ends at the chain's last plan, which alone would start no
    chain: the chain stays whole, the first plan is recorded as starting
    none, and a walk from it still stops after it."""
    cn = _compiled(one_neuron())
    item = ((), 0)
    nodes, plans = identity_plans(cn, item, [2, 2, 3])
    network._settle(cn, plans[1:], 1)
    assert network._chain(cn, nodes[0], item, plans[0]) == (plans[0], True)
    assert plans[1].__class__ is network._Chain and plans[1].rest == (plans[2],)
    assert cn.chained == {plans[0]: None, plans[2]: plans[1]} and check_chains(cn) == 1


def test_a_walk_into_a_node_not_yet_met_records_nothing():
    """Warm on ``ab`` with budgets that end the blank tail one, then two
    ticks after its first plan, a walk from that plan leads to a node that
    has not met the blank item, or not built its plan: nothing is built or
    recorded, so once full budgets build the plans after it, the chain
    that the blank tail enters starts at that first plan."""
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    cn = _compiled(net)
    for budget in (3, 4, word_budget(machine, "ab")):
        for _ in range(network._SIGHTINGS + 2):
            run(net, "ab", budget)
            check_chains(cn)
    state = [0] * net.n_neurons
    for bits in ((1, 0), (0, 1)):
        state = _fast_step(cn, state, bits, 1)
    assert cn.tick_plans[state.units, state.fracs].get(cn.blank).__class__ is network._Chain


def test_replaying_a_warm_word_set_makes_no_chain_walk(monkeypatch):
    """On the a^n b^n net, the copy machine and the horizon-64
    ``oracle_net``, once a set of words has been run often enough, every
    entry of a straight path meets a chain, a loop or a plan recorded as
    starting none: one more pass over the set makes no ``_chain`` call."""
    walks, chain = [], network._chain

    def counted(*args):
        walks.append(args)
        return chain(*args)

    monkeypatch.setattr(network, "_chain", counted)
    anbn, copy = anbn_machine(), copy_machine()
    nets = [
        (two_stack_to_net(anbn), [(w, word_budget(anbn, w)) for w in
                                  ("aabb", "abab", "aaabbb", "a" * 12 + "b" * 11, "ab")]),
        (two_stack_to_net(copy), [(w, word_budget(copy, w)) for w in
                                  ("abba", "aaab", "ab" * 6, "b" * 9)]),
        (oracle_net(OracleNetSpec(ExactScalar.oracle(
            OracleTable.from_language(abstar_language(), 64), CANTOR4, "0'"), AB)),
         [(w, oracle_budget(w, AB)) for w in ("ab", "bb", "abb", "b" * 5)]),
    ]
    for net, words in nets:
        for _ in range(network._SIGHTINGS + 3):
            for word, budget in words:
                run(net, word, budget)
        assert walks
        walks.clear()
        for word, budget in words:
            run(net, word, budget)
        assert not walks
        check_chains(_compiled(net))


@functools.cache
def composed_cycles():
    """Each cycle closed on the a^n b^n net, the copy machine and the
    horizon-64 ``oracle_net``, fused or not, by net, each with the ``(xs,
    den)`` that each round of its loop calls started from: ticked on from
    each call's start, round after round, up to the round that leaves the
    cycle or the last whole round within the call's ``left`` ticks, since
    a cycle under an input symbol may have no tests and never leave.  A
    cycle no call entered has no starts."""
    anbn, copy = anbn_machine(), copy_machine()
    words = {
        anbn: ["a" * n + "b" * n for n in (20, 12, 21, 16)] + ["a" * 21 + "b" * 20],
        copy: ["a" * 20, "b" * 20, "ab" * 10, "aab" * 8, "b" * 12 + "a" * 12],
    }
    runs = {
        label: (two_stack_to_net(machine), [
            (word, two_stack_budget(len(word), machine.execute(word, 10_000)[1]))
            for word in words[machine] * 2
        ])
        for label, machine in (("anbn", anbn), ("copy", copy))
    }
    net = oracle_net(OracleNetSpec(
        ExactScalar.oracle(OracleTable.from_language(abstar_language(), 64), CANTOR4, "0'"), AB
    ))
    runs["oracle"] = (net, [("b" * 5, oracle_budget("b" * 5, AB))] * 2)
    found, fuse = {}, network._fuse

    def recorded(cycle, m=None, closes=True):
        loop, starts = fuse(cycle, m, closes), []
        if not closes:
            return loop
        found[label].append((tuple(cycle), starts))
        if loop is None:
            return None

        def call(xs, den, left):
            starts.append((tuple(xs), den, left))
            return loop(xs, den, left)

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_fuse", recorded)
        for label, (net, words) in runs.items():
            found[label] = []
            for word, budget in words:
                run(net, word, budget)
    for cycles in found.values():
        for cycle, starts in cycles:
            calls, starts[:] = starts[:], []
            for xs, den, left in calls:
                for _ in range(left // len(cycle)):
                    starts.append((tuple(xs), den))
                    went_round, xs, den = tick_through(cycle, xs, den)
                    if not went_round:
                        break
    return found


def value(form, xs, den):
    """A form's value on registers ``xs`` over ``den``."""
    return sum(c * v for c, v in zip(form, (*xs, den)))


def holds(test, xs, den):
    """Whether ``(form, up)`` holds on registers ``xs`` over ``den``."""
    form, up = test
    return value(form, xs, den) > 0 if up else value(form, xs, den) <= 0


def tick_through(cycle, xs, den):
    """Tick ``cycle``'s plans one by one from ``xs`` over ``den``: whether
    each returned its ``key``, and the numerators and top reached."""
    for plan in cycle:
        code, xs, den = plan.tick(list(xs), den)
        if code != plan.key:
            return False, xs, den
    return True, xs, den


def check_composed(cycle, xs, den):
    """``_compose(cycle)``'s tests all hold on ``xs`` over ``den`` exactly
    when ticking ``cycle`` returns each plan's key, and then its map writes
    what the ticks write; returns whether they held."""
    nx, scale, tests = network._compose(cycle)
    ok, ticked, top = tick_through(cycle, xs, den)
    assert all(holds(test, xs, den) for test in tests) == ok
    if ok:
        assert [value(form, xs, den) for form in nx] == ticked
        assert scale * den == top
    return ok


def test_composed_cycles_agree_with_their_ticks_where_loops_started():
    """On every start state a fused loop was called with, on each of the
    three nets, the hoisted tests agree with ticking the cycle; on each
    net some of those states go round the cycle and some leave it."""
    for label, cycles in composed_cycles().items():
        outcomes = {check_composed(cycle, xs, den) for cycle, starts in cycles
                    for xs, den in starts}
        assert outcomes == {True, False}, label


def edge(cycle, xs, den, j, toward):
    """The last value of register j, from ``xs[j]`` toward ``toward``, at
    which ticking ``cycle`` from ``xs`` over ``den`` still goes round it,
    found by bisection on the ticks alone; None when ``xs`` does not go
    round, or goes round all the way to ``toward``.  The states that go
    round are those that pass every comparison of the ticks, each linear
    in the registers, so along one register they form an interval."""

    def round_at(x):
        return tick_through(cycle, [*xs[:j], x, *xs[j + 1:]], den)[0]

    inside, outside = xs[j], toward
    if not round_at(inside) or round_at(outside):
        return None
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        inside, outside = (mid, outside) if round_at(mid) else (inside, mid)
    return inside


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_composed_cycles_hoist_exactly_the_tests_their_ticks_make(data):
    """Start registers ``0 < x < den`` drawn around those the loops met,
    scaled by a factor no reduction divided out, each kept, moved by a
    few units, set at or just past the edge where ticking stops going
    round the cycle, or drawn anew: the hoisted tests hold exactly when
    the cycle's ticks return their keys, and the map then writes what
    they write."""
    cycles = [entry for cycles in composed_cycles().values() for entry in cycles if entry[1]]
    cycle, starts = data.draw(st.sampled_from(cycles))
    xs, den = data.draw(st.sampled_from(starts))
    factor = data.draw(st.integers(1, 3))
    xs, den = [x * factor for x in xs], den * factor
    for j in range(len(xs)):
        how = data.draw(st.sampled_from(["keep", "keep", "shift", "edge", "any"]))
        if how == "shift":
            xs[j] += data.draw(st.integers(-3, 3))
        elif how == "edge":
            last = edge(cycle, xs, den, j, data.draw(st.sampled_from([1, den - 1])))
            if last is not None:
                xs[j] = last + data.draw(st.sampled_from([0, 1, -1])) * (1 if xs[j] < last else -1)
        elif how == "any":
            xs[j] = data.draw(st.integers(1, den - 1))
        xs[j] = min(max(xs[j], 1), den - 1)
    check_composed(cycle, xs, den)


@settings(max_examples=400, deadline=None)
@given(plan_shapes(), st.data())
def test_composed_tests_cover_every_kind_of_row(case, data):
    """A cycle of one plan drawn by ``plan_shapes``, with rows of every
    bound class, saturating or not, whose key is the code it returns on
    the drawn state: there, and on a second state drawn anew, the hoisted
    tests hold exactly when the tick returns that key.  The plan gets one
    ``scaled`` entry, or the state one register, more for each register
    it reads and does not write, or writes and does not read."""
    rows, scaled, scale, xs, den = case
    key, nx, _ = evaluate_rows(rows, scaled, scale, xs, den)
    scaled += ((99, 1),) * (len(xs) - len(nx))
    xs = xs + [data.draw(st.integers(1, den - 1)) for _ in range(len(nx) - len(xs))]
    plan = _Plan(network._gen(rows, scaled, scale), (rows, scaled, scale), ())
    plan.key = key
    assert check_composed([plan], xs, den)
    check_composed([plan], [data.draw(st.integers(1, den - 1)) for _ in xs], den)


def test_anbn_cycles_are_separable_with_positive_ratios():
    """Every composed cycle of the a^n b^n net tests its start registers
    one at a time: each test reads exactly one register, and the map
    writes that register from itself alone, with a positive ratio, and
    den.  So the registers a cycle tests follow ``x -> r*x + c*den``, with
    ``r > 0``, on their own; each of the 4 blank cycles, one ring cycle
    of 7 ticks, has 3 or 4 tests and a 4-entry map; each test is divided
    by the gcd of its coefficients, and no two are equal.  The 2 cycles
    under the input symbols are one tick each, a push onto the input
    buffer: 1 register, no tests, ratio 1/16."""
    cycles = composed_cycles()["anbn"]
    assert sorted(len(cycle) for cycle, _ in cycles) == [1, 1, 7, 7, 7, 7]
    for cycle, _ in cycles:
        nx, scale, tests = network._compose(cycle)
        m = len(nx)
        if len(cycle) == 1:
            [(ratio, _)] = nx
            assert (m, tests, Fraction(ratio, scale)) == (1, (), Fraction(1, 16)), nx
            continue
        assert m == 4 and 3 <= len(tests) <= 4, tests
        assert len(set(tests)) == len(tests) and all(gcd(*form) == 1 for form, _ in tests)
        for form, _ in tests:
            [j] = [j for j in range(m) if form[j]]
            assert [i for i in range(m) if nx[j][i]] == [j] and nx[j][j] > 0, (nx, form)


def test_every_composed_cycle_met_jumps():
    """Every cycle closed on the a^n b^n net, the copy machine and the
    horizon-64 ``oracle_net`` is separable, so each is fused into a loop
    that jumps."""
    for label, cycles in composed_cycles().items():
        for cycle, _ in cycles:
            assert network._jump(*network._compose(cycle), lambda ts: "0") is not None, label


def jump_through(nx, scale, tests, size, xs, den, left):
    """``_fuse``'s loop over the composed map ``(nx, scale, tests)``, for a
    cycle of ``size`` plans that pass their registers through and never
    return their key: the loop goes round the map and, where a test fails,
    its head's tick passes on the registers it reached.  Returns the whole cycles it went
    round and the values reached, as ``Fraction``s."""
    m = len(xs)
    rows = tuple((j, j, 1, 0, True, ()) for j in range(m))
    cycle = [_Plan(network._gen(rows, (), 1), (rows, (), 1), ()) for _ in range(size)]
    for plan in cycle:
        plan.key = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_compose", lambda *_: (nx, scale, tests))
        loop = network._fuse(cycle)
    n, k, code, ys, top = loop(list(xs), den, left)
    missed = code != 0  # on the first tick of the cycle that fails
    assert (k, code) == ((0, sum(2 << 2 * j for j in range(m))) if missed else (size - 1, 0))
    assert (n - missed) % size == 0
    return (n - missed) // size, [Fraction(y, top) for y in ys]


def iterate_map(nx, scale, tests, xs, den, cap):
    """The whole cycles, at most ``cap``, for which the tests hold when the
    map is iterated from ``xs`` over ``den``, and the values reached."""
    k = 0
    while k < cap and all(holds(test, xs, den) for test in tests):
        xs, den, k = [value(f, xs, den) for f in nx], scale * den, k + 1
    return k, [Fraction(x, den) for x in xs]


@st.composite
def separable_maps(draw):
    """A separable composed map, a start state and ``left``: each of 1-3
    registers maps to ``a*x + b*den`` over ``scale*den``, with ``a/scale``
    below, at or above 1, and one register more may read one of them.  Each
    register gets up to two one-register tests, each a lower or an upper
    bound, strict or not, on ``x / den``: one drawn around the start value,
    or one exactly at the value the register reaches after some cycles,
    so that the loop stops on that cycle or the next."""
    s, m, extra = draw(st.integers(1, 9)), draw(st.integers(1, 3)), draw(st.booleans())
    den = draw(st.integers(2, 1 << 40))
    xs = [draw(st.integers(1, den - 1)) for _ in range(m + extra)]
    nx, tests = [], []
    for j in range(m + extra):
        a = draw(st.sampled_from([s, draw(st.integers(1, 3 * s))]))
        form = [0] * (m + extra + 1)
        form[draw(st.integers(0, m - 1)) if j == m else j] = a
        form[-1] = b = draw(st.integers(-3 * s, 3 * s))
        nx.append(tuple(form))
        for _ in range(0 if j == m else draw(st.integers(0, 2))):
            start = y = Fraction(xs[j], den)
            if draw(st.booleans()):  # where the register is after some cycles
                for _ in range(draw(st.integers(1, 40))):
                    y = (a * y + b) / s
            else:
                y += Fraction(draw(st.integers(-64, 64)), draw(st.integers(1, 64)))
            form = [0] * (m + extra + 1)
            # y > start: x < y*den (or <=); else x > y*den (or >=)
            form[j], form[-1] = (-y.denominator, y.numerator) if y > start else (
                y.denominator, -y.numerator)
            strict = draw(st.booleans())
            tests.append((tuple(v if strict else -v for v in form), strict))
    size = draw(st.integers(1, 3))
    left = size * draw(st.integers(1, 60)) + draw(st.integers(0, size - 1))
    return tuple(nx), s, tuple(tests), size, xs, den, left


@settings(max_examples=400, deadline=None)
@given(separable_maps())
def test_jumps_pass_the_cycles_that_iterating_the_map_passes(case):
    """Over random separable maps, with tests on both sides of each
    register, strict and not: the loop goes round exactly the whole cycles,
    at most ``left // size``, for which iterating the map passes every
    test, and reaches the values that iterating reaches."""
    nx, scale, tests, size, xs, den, left = case
    assert network._jump(nx, scale, tests, lambda ts: "0") is not None
    reference = iterate_map(nx, scale, tests, xs, den, left // size)
    assert jump_through(nx, scale, tests, size, xs, den, left) == reference


def test_jumps_stop_on_the_cycle_a_test_fails_or_at_the_cap():
    """From just above 1/2, ``x -> 16x - 4`` over 8 doubles its distance
    from 1/2 a cycle; an upper bound that it meets exactly after 30 cycles
    stops a strict test there and a non-strict one a cycle later, unless
    ``left`` stops both first.  ``x -> 3x - 1`` over 2 takes the distance
    from 1 up by 3/2 a cycle, which no power of two is, 680 times before a
    bound met exactly.  ``x -> 8x + 1`` over 8 climbs by 1/8 a cycle, past
    1 on the fourth; ``x -> x + 1`` over 8 falls toward 1/7, past 1/5 on
    the first cycle and never past 1/7."""

    def bound_after(cycles, a, b, scale, x, den, strict):
        y = Fraction(x, den)
        for _ in range(cycles):
            y = (a * y + b) / scale
        form = (-y.denominator, y.numerator) if y > Fraction(x, den) else (
            y.denominator, -y.numerator)
        return (form if strict else tuple(-v for v in form)), strict

    half = ((1 << 40) + 1, 1 << 41)
    cases = []
    for strict in (True, False):
        test = bound_after(30, 16, -4, 8, *half, strict)
        for left, ends in ((100, 30 + (not strict)), (30, 30), (29, 29)):
            cases.append(((16, -4), 8, test, half, left, ends))
    near = ((1 << 400) - 1, 1 << 400)
    cases += [((3, -1), 2, bound_after(680, 3, -1, 2, *near, True), near, 999, 680),
              ((8, 1), 8, ((-1, 1), True), half, 99, 4), ((1, 1), 8, ((5, -1), True), half, 99, 1),
              ((1, 1), 8, ((7, -1), True), half, 99, 99)]
    for nx, scale, test, (x, den), left, ends in cases:
        for size in (1, 7):
            k, ys = jump_through((nx,), scale, (test,), size, [x], den, left * size)
            assert (k, ys) == iterate_map((nx,), scale, (test,), [x], den, left) and k == ends


def dense_step(net, state, inputs, validation, budget):
    """The update as a sweep over every (i, j), calling affine_combine for
    every neuron: the reference that the sparse ``step`` must match."""
    u = list(inputs) + [validation]
    out = []
    for i in range(net.n_neurons):
        weights, sources, in_weights, in_bits = [], [], [], []
        for j in range(net.n_neurons):
            w = net.state_weights.get((i, j))
            if w is not None:
                weights.append(w)
                sources.append(state[j])
        for j in range(net.n_inputs + 1):
            w = net.input_weights.get((i, j))
            if w is not None:
                in_weights.append(w)
                in_bits.append(u[j])
        bias = net.biases.get(i, 0)
        acc = affine_combine(weights, sources, in_weights, in_bits, bias, budget=budget)
        try:
            if net.activations[i] == "sig":
                out.append(signal(acc, budget))
            else:
                out.append(saturated_sigma(acc, budget))
        except UnknownSign as exc:
            raise UnknownSign(f"neuron {i}: {exc}") from exc
    return tuple(out)


def random_stream(rng):
    """A lazy scalar: a stream of random binary digits with no horizon."""
    digits = random.Random(rng.random())
    return ExactScalar.from_stream(UnitReal(gen=iter(lambda: digits.randint(0, 1), None)))


def finite_stream(rng):
    """A stream known to a strict horizon of 1-12 digits, as in the
    stream-weight oracle nets: an exact scalar, the rational of its digits."""
    horizon = rng.randint(1, 12)
    digits = [rng.randint(0, 1) for _ in range(horizon)]
    return ExactScalar.from_stream(UnitReal(digits, strict_horizon=True))


def test_lazy_step_matches_dense_sweep_on_random_nets():
    rng = random.Random(20060605)
    intervals = unknown_signs = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(0, 2)
        sw = {
            (i, j): ExactScalar.rational(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.4
        }
        for _ in range(rng.randint(1, 2)):
            sw[(rng.randrange(n), rng.randrange(n))] = random_stream(rng)
        iw = {
            (i, j): ExactScalar.integer(rng.randint(-2, 2))
            for i in range(n)
            for j in range(m + 1)
            if rng.random() < 0.3
        }
        bias = {
            i: ExactScalar.rational(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in range(n)
            if rng.random() < 0.5
        }
        if rng.random() < 0.3:
            bias[rng.randrange(n)] = random_stream(rng)
        acts = tuple(rng.choice(["sat", "sat", "sig"]) for _ in range(n))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        budget = PrecisionBudget(max_digits=rng.choice([8, 16]))
        # [0, 0] is not a zero source: affine_combine keeps it as a lazy term
        values = [0, 1, Fraction(rng.randint(1, 3), 4), Interval(0, 0), Interval(0, Fraction(1, 2))]
        state = tuple(rng.choice(values) for _ in range(n))
        for _ in range(12):
            bits = tuple(rng.randint(0, 1) for _ in range(m))
            v = rng.randint(0, 1)
            try:
                want = dense_step(net, state, bits, v, budget)
            except UnknownSign as exc:
                with pytest.raises(UnknownSign) as err:
                    step(net, state, bits, v, budget=budget)
                assert str(err.value) == str(exc)
                unknown_signs += 1
                break
            state = step(net, state, bits, v, budget=budget)
            assert state == want
            intervals += sum(isinstance(x, Interval) for x in state)
    assert intervals and unknown_signs


def test_exact_net_with_interval_state_takes_the_lazy_push():
    # exact weights, but an interval in the state: step cannot use the
    # integer kernel and must still match the dense sweep
    rng = random.Random(31)
    intervals = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(0, 2)
        sw = {
            (i, j): ExactScalar.rational(rng.randint(-4, 4), rng.choice([1, 2, 3, 4]))
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.5
        }
        iw = {
            (i, j): ExactScalar.integer(rng.randint(-2, 2))
            for i in range(n)
            for j in range(m + 1)
            if rng.random() < 0.3
        }
        bias = {
            i: ExactScalar.rational(rng.randint(-4, 4), 2) for i in range(n) if rng.random() < 0.5
        }
        acts = tuple(rng.choice(["sat", "sat", "sig"]) for _ in range(n))
        net = Network(n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts)
        assert net.is_exact()
        budget = PrecisionBudget(max_digits=16)
        values = [0, 1, Fraction(1, 3), Interval(Fraction(1, 4), Fraction(1, 2))]
        state = [rng.choice(values) for _ in range(n)]
        state[rng.randrange(n)] = Interval(0, Fraction(1, 2))
        bits = tuple(rng.randint(0, 1) for _ in range(m))
        v = rng.randint(0, 1)
        try:
            want = dense_step(net, state, bits, v, budget)
        except UnknownSign as exc:
            with pytest.raises(UnknownSign) as err:
                step(net, state, bits, v, budget=budget)
            assert str(err.value) == str(exc)
            continue
        got = step(net, state, bits, v, budget=budget)
        assert got == want
        intervals += sum(isinstance(x, Interval) for x in got)
    assert intervals


def test_synchrony_evaluation_order_irrelevant():
    rng = random.Random(99)
    n = 6
    sw = {
        (i, j): ExactScalar.rational(rng.randint(-3, 3), 2)
        for i in range(n)
        for j in range(n)
        if rng.random() < 0.6
    }
    net = Network(n, 0, state_weights=sw, activations=("sat",) * n)
    state = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(n))

    def permuted_step(order):
        out = [None] * n
        for i in order:
            acc = Fraction(0)
            for j in range(n):
                w = net.state_weights.get((i, j))
                if w is not None:
                    acc += w.value * state[j]
            out[i] = min(max(acc, Fraction(0)), Fraction(1))
        return tuple(out)

    reference = step(net, state)
    for _ in range(10):
        order = list(range(n))
        rng.shuffle(order)
        assert permuted_step(order) == tuple(reference)


# -- run protocol -----------------------------------------------------------------


def test_weight_maps_are_read_only_and_caches_are_per_net():
    dfa = parity_dfa()
    net = dfa_to_net(dfa)
    words = list(words_up_to(3))
    want = [Verdict.ACCEPT if dfa.accepts(w) else Verdict.REJECT for w in words]

    def verdicts(net):
        return [run(net, w, dfa_budget(len(w))).verdict for w in words]

    assert verdicts(net) == want
    key = next(iter(net.state_weights))
    for weights, k in ((net.state_weights, key), (net.input_weights, (0, 0)), (net.biases, 0)):
        with pytest.raises(TypeError):
            weights[k] = ExactScalar.integer(0)
    with pytest.raises(AttributeError):
        net.state_weights = {}

    zero = ExactScalar.integer(0)
    zeroed = Network(
        net.n_neurons,
        net.n_inputs,
        state_weights={k: zero for k in net.state_weights},
        input_weights={k: zero for k in net.input_weights},
        biases={i: zero for i in net.biases},
        activations=net.activations,
        out_data=net.out_data,
        out_valid=net.out_valid,
        input_symbols=net.input_symbols,
    )
    assert run(zeroed, "ab", dfa_budget(2)).verdict == Verdict.TIMEOUT
    assert verdicts(net) == want

    lazy = random_stream(random.Random(1))
    copy = net.replace_state_weight(*key, lazy)
    assert net.is_exact() and not copy.is_exact()
    assert copy._compiled is not net._compiled
    assert (key[0], lazy) in copy._compiled.state_edges[key[1]]
    assert (key[0], lazy) not in net._compiled.state_edges[key[1]]
    assert verdicts(net) == want
    assert net.replace_state_weight(*key, finite_stream(random.Random(1))).is_exact()




def test_run_parity_examples():
    net = dfa_to_net(parity_dfa())
    assert run(net, "bb", 32).verdict == Verdict.ACCEPT
    assert run(net, "b", 32).verdict == Verdict.REJECT
    assert run(net, "", 32).verdict == Verdict.ACCEPT


def test_run_budget_too_small():
    net = dfa_to_net(parity_dfa())
    with pytest.raises(ConfigError):
        run(net, "ab", 2)


def test_run_names_a_symbol_it_cannot_show():
    """A symbol outside the net's input symbols, or any symbol on a net
    that declares none, is refused with the ``ConfigError`` of
    ``line_for_symbol``, on a cold net and on one that has run."""
    net = dfa_to_net(parity_dfa())
    bare = Network(1, 1, out_data=0, out_valid=0)
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            run(net, "abca", 32)
        assert str(info.value) == "symbol 'c' not among input symbols ('a', 'b')"
        with pytest.raises(ConfigError) as info:
            run(bare, "a", 8)
        assert str(info.value) == "network declares no input symbols"
        assert run(net, "ab", 32).verdict == Verdict.REJECT
        assert run(bare, "", 8).verdict == Verdict.TIMEOUT


def test_run_timeout():
    # a net that never raises its validation output
    net = Network(1, 1, out_data=0, out_valid=0, input_symbols=("a",))
    result = run(net, "a", 8)
    assert result.verdict == Verdict.TIMEOUT
    assert result.ticks == 8


def test_run_keeps_the_benchmark_call_shape():
    """The benchmark calls ``run(..., record_trace=False)``: that equals a
    plain call, and ``record_trace=True`` is refused, as no trace is kept."""
    net = dfa_to_net(parity_dfa())
    for word in ("", "ab", "abba", "b"):
        assert run(net, word, 32, record_trace=False) == run(net, word, 32)
    with pytest.raises(ConfigError, match="record_trace"):
        run(net, "ab", 32, record_trace=True)


def test_run_deterministic():
    net = dfa_to_net(parity_dfa())
    first = run(net, "abba", 32)
    second = run(net, "abba", 32)
    assert first == second


def test_run_with_lazy_weight_decides_through_intervals():
    # bias of neuron 0 is a stream whose value is provably positive; the
    # interval simulation path must still reach a verdict
    stream = UnitReal(gen=iter([1] + [0] * 500), base=2)
    net = Network(
        2,
        0,
        biases={0: ExactScalar.from_stream(stream), 1: ExactScalar.integer(1)},
        activations=("sat", "sig"),
        out_data=0,
        out_valid=1,
    )
    # that stream has no known horizon, so run stays on the interval path
    assert not net.is_exact()
    result = run(net, "", 4)
    assert result.verdict == Verdict.ACCEPT
    # where the 128-digit budget cannot settle a sign, run raises
    zeros = UnitReal(gen=iter([0] * 500), base=2)
    undecided = Network(
        1, 0, biases={0: ExactScalar.from_stream(zeros)}, activations=("sig",),
        out_data=0, out_valid=0,
    )
    assert not undecided.is_exact()
    with pytest.raises(UnknownSign, match="neuron 0"):
        run(undecided, "", 4)
    # a stream with a horizon is the rational of its digits: the net is
    # exact, and run and step take the integer kernel
    finite = Network(
        2,
        0,
        biases={0: finite_stream(random.Random(3)), 1: ExactScalar.integer(1)},
        activations=("sat", "sig"),
        out_data=0,
        out_valid=1,
    )
    assert finite.is_exact()
    assert run(finite, "", 4).verdict == Verdict.ACCEPT
    stream = finite.biases[0].stream
    assert step(finite, (0, 0)) == (stream.truncated_fraction(stream.horizon), 1)


def reference_run(net, word, ticks):
    """``run``'s protocol stepped by ``dense_step`` from the zero state on
    interval enclosures, with a 128-digit budget that raises ``UnknownSign``
    where it cannot decide; returns (verdict, ticks, flagged).  Each stream
    scalar is handed to ``affine_combine`` as its bare ``UnitReal``, which
    stays lazy, so a stream is refined digit by digit as a real would be."""
    budget = PrecisionBudget(max_digits=128)

    def lazy(scalars):
        return {k: w.stream if w.kind == ScalarKind.STREAM else w for k, w in scalars.items()}

    # never compiled: dense_step reads the weight maps directly
    net = Network(
        net.n_neurons, net.n_inputs, state_weights=lazy(net.state_weights),
        input_weights=lazy(net.input_weights), biases=lazy(net.biases),
        activations=net.activations, out_data=net.out_data, out_valid=net.out_valid,
        out_flag=net.out_flag, input_symbols=net.input_symbols,
    )
    m = net.n_inputs
    state = zero_state(net)
    for t in range(ticks):
        if t < len(word):
            line = net.line_for_symbol(word[t])
            bits, v = tuple(int(j == line) for j in range(m)), 1
        else:
            bits, v = (0,) * m, 0
        state = dense_step(net, state, bits, v, budget)
        if signal(state[net.out_valid]):
            verdict = Verdict.ACCEPT if signal(state[net.out_data]) else Verdict.REJECT
            return verdict, t + 1, bool(signal(state[net.out_flag]))
    return Verdict.TIMEOUT, ticks, False


def test_run_on_pinned_streams_matches_interval_steps():
    # nets whose weights and biases include streams with a strict horizon:
    # they are exact, so run steps them on the integer kernel, and it must
    # agree with interval steps on the lazy streams wherever those decide
    rng = random.Random(60605)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(3, 8)
        m = rng.randint(1, 2)
        sw = {
            (i, j): ExactScalar.rational(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.4
        }
        for _ in range(rng.randint(1, 3)):
            sw[(rng.randrange(n), rng.randrange(n))] = finite_stream(rng)
        iw = {
            (i, j): ExactScalar.rational(rng.randint(-2, 2), rng.choice([1, 2]))
            for i in range(n)
            for j in range(m + 1)
            if rng.random() < 0.4
        }
        for _ in range(rng.randint(0, 2)):
            iw[(rng.randrange(n), rng.randrange(m + 1))] = finite_stream(rng)
        bias = {
            i: ExactScalar.rational(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in range(n)
            if rng.random() < 0.5
        }
        for _ in range(rng.randint(0, 2)):
            bias[rng.randrange(n)] = finite_stream(rng)
        acts = tuple(rng.choice(["sat", "sat", "sig"]) for _ in range(n))
        data, valid, flag = rng.sample(range(n), 3)
        net = Network(
            n, m, state_weights=sw, input_weights=iw, biases=bias, activations=acts,
            out_data=data, out_valid=valid, out_flag=flag, input_symbols="ab"[:m],
        )
        assert net.is_exact()
        for _ in range(3):
            word = "".join(rng.choice("ab"[:m]) for _ in range(rng.randint(0, 4)))
            ticks = len(word) + rng.randint(1, 12)
            try:
                want = reference_run(net, word, ticks)
            except UnknownSign:
                seen["undecided"] += 1
                continue
            result = run(net, word, ticks)
            assert (result.verdict, result.ticks, result.flagged) == want, (word, ticks)
            seen[want[0]] += 1
            seen["flagged"] += want[2]
    assert all(seen[k] >= 20 for k in (*Verdict, "flagged")), seen
