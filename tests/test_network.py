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
from arnnlab.network import _IntState, _compiled, _fast_step

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
    import arnnlab.network as network

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
                state = _fast_step(cn, state, bits, v)
                ref = fraction_tick(net, ref, bits, v)
                got = [Fraction(x) for x in state]
                assert got == ref, trial
                least = lcm(*(x.denominator for x in ref))
                if state.den != den * cn.d:  # the gcd was divided out, all of it
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
        plans += sum(bool(plan) for plan in cn.tick_plans.values())
    assert plans > 0 and reductions > 12


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
    for _ in range(3):  # plain path, plan build, replay
        got = _fast_step(cn, state, (), 0)
        assert [Fraction(x) for x in got] == want
        orders.append((got.units, got.fracs))
    assert orders[0] == orders[1] == orders[2]
    [(rows, _, _)] = [plan for plan in cn.tick_plans.values() if plan]
    [(i, p, w, base, sat, more)] = [row for row in rows if row[0] == 2]
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
        (len({i for j in key[1] for i, _ in cn.state_edges[j]}), len(plan[0]))
        for key, plan in cn.tick_plans.items()
        if plan
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
    """One signature three times on a fresh net: its first sighting takes
    the plain path, the second builds the plan and the third replays it."""
    net, state, bits, v = case
    cn = _compiled(net)
    want = fraction_tick(net, state, bits, v)
    orders = []
    for _ in range(3):
        got = _fast_step(cn, state, bits, v)
        assert [Fraction(x) for x in got] == want
        orders.append((got.units, got.fracs))
    assert orders[0] == orders[1] == orders[2]
    # the candidate behind the closed gate is reached but gets no row
    [(reached, rows)] = reached_and_rows(cn)
    assert rows < reached


def lockstep(net, word, budget):
    """Run ``word`` tick by tick on ``_fast_step`` and ``fraction_tick``,
    on a cold plan memo and then on the warm one it left, until the output
    validation line rises; return the ticks."""
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
    for _ in range(2):  # a cold memo, then the warm one it left
        state, orders = [0] * net.n_neurons, []
        for bits, v, want in trajectory:
            state = _fast_step(cn, state, bits, v)
            assert [Fraction(x) for x in state] == want, (word, len(orders))
            orders.append((state.units, state.fracs))
        passes.append(orders)
    # a replayed plan orders the new state as the plain path did
    assert passes[0] == passes[1], word
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
    import arnnlab.network as network

    word = "aaabbb"
    budget = two_stack_budget(len(word), anbn_machine().execute(word, 10_000)[1])

    def trajectory(net, cap):
        cn = _compiled(net)
        state, out, sizes = [0] * net.n_neurons, [], []
        for t in range(budget):
            if t < len(word):
                bits = tuple(int(j == net.line_for_symbol(word[t])) for j in range(net.n_inputs))
            else:
                bits = (0,) * net.n_inputs
            state = _fast_step(cn, state, bits, int(t < len(word)))
            out.append(tuple(Fraction(x) for x in state))
            sizes.append((len(cn.tick_plans), len(cn.interned)))
            assert len(cn.tick_plans) <= cap
        return out, sizes

    reference, sizes = trajectory(two_stack_to_net(anbn_machine()), network._TICK_PLAN_CAP)
    assert max(sizes)[0] > 5 and max(interned for _, interned in sizes) > 0
    monkeypatch.setattr(network, "_TICK_PLAN_CAP", 5)
    capped, sizes = trajectory(two_stack_to_net(anbn_machine()), 5)
    assert capped == reference
    assert max(sizes)[0] == 5
    # it filled up and was emptied, the intern table with it
    assert (1, 0) in sizes[5:]


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
