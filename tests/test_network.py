"""Synchronous dynamics, the word protocol, and exactness of the simulator."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

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

from conftest import AB, abstar_language, anbn_machine, parity_dfa, words_up_to


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


def test_gen_refuses_values_that_are_not_ints():
    """Only ``%d``-formatted ints reach the source ``_gen`` hands to
    ``exec``: a Fraction, a str, a float or a bool in any field is
    refused."""
    row = (0, 0, 3, -1, True, ((1, 1),))
    # -5 + 3*3 + 1 = 5 over top 10: fractional, then the scaled 1 * 5
    assert network._gen((row,), ((2, 1),), 2)([3, 1], 5) == (2, [5, 5], 10)
    for bad in (Fraction(1, 2), "1", "den); import os; (", 1.5, True):
        cases = [
            ((row[:2] + (bad,) + row[3:],), (), 1),  # weight
            ((row[:3] + (bad,) + row[4:],), (), 1),  # base
            (((0, bad, 3, -1, True, ()),), (), 1),  # position
            ((row[:5] + (((1, bad),),),), (), 1),  # weight of a further source
            ((row,), ((2, bad),), 1),  # scaled unit sum
            ((row,), (), bad),  # scale
        ]
        for rows, scaled, scale in cases:
            with pytest.raises(TypeError, match="ints only"):
                network._gen(rows, scaled, scale)


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
    """``run`` makes one kernel call, or one per tick with a trace; ticking
    the same word one ``_fast_step`` at a time, on the plan memo that
    ``run`` left, gives the same ``(units, fracs)`` and values per tick (as
    a traced run leaves them) and at the end (as a plain run leaves them),
    and the same trace, verdict and ticks."""
    net, word, budget = case
    kernel, seen = network._ticks, []

    def recorded(cn, state, feed):
        ticks = kernel(cn, state, feed)
        seen.append(_IntState(state.n, state.units, state.fracs, state.xs, state.den))
        return ticks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_ticks", recorded)
        result = run(net, word, budget)
        traced = seen[:]
        plain = run(net, word, budget, record_trace=False)
    [final] = seen[len(traced):]
    cn = _compiled(net)
    state, records, verdict, flagged = [0] * net.n_neurons, [], Verdict.TIMEOUT, False
    for t in range(budget):
        line = net.line_for_symbol(word[t]) if t < len(word) else None
        bits = tuple(int(j == line) for j in range(net.n_inputs))
        v = int(t < len(word))
        state = _fast_step(cn, state, bits, v)
        assert (state.units, state.fracs) == (traced[t].units, traced[t].fracs), t
        assert list(state) == list(traced[t]), t
        values = list(state)
        data, valid = (int(values[i] > 0) for i in (net.out_data, net.out_valid))
        flag = None if net.out_flag is None else int(values[net.out_flag] > 0)
        records.append((bits, v, data, valid, flag))
        if valid:
            verdict = Verdict.ACCEPT if data else Verdict.REJECT
            flagged = bool(flag)
            break
    assert (state.units, state.fracs) == (final.units, final.fracs)
    assert list(state) == list(final)
    assert len(traced) == len(records) == result.ticks == plain.ticks
    assert [
        (r.inputs, r.validation, r.out_data, r.out_valid, r.out_flag) for r in result.trace
    ] == records
    assert plain.trace == ()
    assert (result.verdict, result.flagged) == (plain.verdict, plain.flagged) == (verdict, flagged)


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


@settings(max_examples=150, deadline=None)
@given(word_nets())
def test_tracing_does_not_change_a_run(case):
    """With or without a trace, a run gives the same verdict, ticks and
    flag; a traced verdict is read on the one tick whose record has
    ``out_valid``, its last."""
    net, word, budget = case
    traced = run(net, word, budget)
    plain = run(net, word, budget, record_trace=False)
    assert (traced.verdict, traced.ticks, traced.flagged) == (
        plain.verdict, plain.ticks, plain.flagged
    )
    valid = [record.out_valid for record in traced.trace]
    assert len(valid) == traced.ticks
    if traced.verdict == Verdict.TIMEOUT:
        assert not any(valid)
    else:
        assert valid[-1] == 1 and not any(valid[:-1])


def test_tracing_does_not_change_a_lazy_run():
    """The same on nets with a stream of no known horizon, which run on
    interval enclosures: one reaches its verdict once the word ends, on a
    flagged tick; the other never raises ``out_valid``."""
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
        traced = run(net, "aa", 6)
        plain = run(net, "aa", 6, record_trace=False)
        assert (traced.verdict, traced.ticks, traced.flagged) == (
            plain.verdict, plain.ticks, plain.flagged
        )
        assert traced.verdict == want
        valid = [record.out_valid for record in traced.trace]
        if want == Verdict.ACCEPT:
            assert (traced.ticks, traced.flagged) == (3, True)
            assert valid == [0, 0, 1]
        else:
            assert traced.ticks == 6 and valid == [0] * 6


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
        result = run(net, "", 8, record_trace=False)
        assert (result.verdict, result.ticks) == (Verdict.ACCEPT, t)
    [plan] = [
        plan for plan in built_plans(_compiled(net))
        if any(node.stops for _, node in entries(plan))
    ]
    rows, scaled, _ = plan.shape
    where = {"row": [row[0] for row in rows], "tops": plan.tops, "scaled": [i for i, _ in scaled]}
    assert [w for w, written in where.items() if 1 in written] == [way]


def test_fast_step_leaves_its_argument_untouched():
    """``_ticks`` ticks in place; ``_fast_step`` ticks a copy, on the
    plain path, the plan build, a replay and a forced gcd alike."""
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


def test_tick_plans_are_emptied_at_their_cap(monkeypatch):
    """With the cap lowered, every tick is as before while nodes, links and
    generated functions are emptied together.  At the cap of the nodes that
    ``ab``'s passes meet, those passes build their plans, and the first new
    signature of ``aaabbb`` empties the map; at a cap of 5 nothing is ever
    built."""
    machine = anbn_machine()
    words = ["ab"] * (network._SIGHTINGS + 1) + ["aaabbb"] * 2

    def trajectory(cap):
        net = two_stack_to_net(machine)
        cn = _compiled(net)
        out, sizes, nodes = [], [], set()
        for word in words:
            state = [0] * net.n_neurons
            for t in range(two_stack_budget(len(word), machine.execute(word, 10_000)[1])):
                line = net.line_for_symbol(word[t]) if t < len(word) else None
                bits = tuple(int(j == line) for j in range(net.n_inputs))
                state = _fast_step(cn, state, bits, int(t < len(word)))
                out.append(tuple(Fraction(x) for x in state))
                sizes.append((len(cn.tick_plans), len(cn.interned), len(built_plans(cn))))
                assert len(cn.tick_plans) <= cap
                nodes.update(cn.tick_plans.values())
        # a node emptied at the cap keeps no plan, link or count
        assert all(not entries(node) for node in nodes - set(cn.tick_plans.values()))
        return out, sizes

    reference, sizes = trajectory(network._TICK_PLAN_CAP)
    ab_ticks = (network._SIGHTINGS + 1) * two_stack_budget(2, machine.execute("ab", 10_000)[1])
    cap, functions, plans = sizes[ab_ticks - 1]
    assert functions > 0 and plans > functions and max(sizes)[0] > cap
    for cap in (cap, 5):
        monkeypatch.setattr(network, "_TICK_PLAN_CAP", cap)
        capped, sizes = trajectory(cap)
        assert capped == reference
        assert max(sizes)[0] == cap
        # it filled up and was emptied, the functions and links with it
        emptied = [t for t in range(1, len(sizes)) if sizes[t][0] < sizes[t - 1][0]]
        assert emptied and all(sizes[t][1:] == (0, 0) for t in emptied)
        assert (1, 0, 0) in sizes
        assert (max(sizes[t - 1][2] for t in emptied) > 0) == (cap > 5)


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


def test_run_timeout():
    # a net that never raises its validation output
    net = Network(1, 1, out_data=0, out_valid=0, input_symbols=("a",))
    result = run(net, "a", 8)
    assert result.verdict == Verdict.TIMEOUT
    assert len(result.trace) == 8


def test_run_trace_validation_profile():
    net = dfa_to_net(parity_dfa())
    result = run(net, "ab", 32)
    vals = [rec.validation for rec in result.trace]
    assert vals[:2] == [1, 1]
    assert all(v == 0 for v in vals[2:])
    assert result.trace[result.ticks - 1].out_valid == 1


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
            result = run(net, word, ticks, record_trace=False)
            assert (result.verdict, result.ticks, result.flagged) == want, (word, ticks)
            seen[want[0]] += 1
            seen["flagged"] += want[2]
    assert all(seen[k] >= 20 for k in (*Verdict, "flagged")), seen
