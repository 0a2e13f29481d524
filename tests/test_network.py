"""Synchronous dynamics, the word protocol, and exactness of the simulator."""

import random
from fractions import Fraction

import pytest

from arnnlab import (
    ConfigError,
    ExactScalar,
    Interval,
    Network,
    PrecisionBudget,
    ShapeError,
    UnitReal,
    UnknownSign,
    Verdict,
    dfa_budget,
    dfa_to_net,
    recognizes,
    run,
    step,
    two_stack_budget,
    two_stack_to_net,
    zero_state,
)
from arnnlab.exact import affine_combine, saturated_sigma, signal
from arnnlab.network import _compiled, _fast_step

from conftest import anbn_machine, parity_dfa, words_up_to


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
    assert out[0].contains(Fraction(1, 4))

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
        # a short input period, repeated, so that the unit memo gets hits
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
                hits += len(schedule) - len(cn.unit_memo)
        assert trajectories[0] == trajectories[1], trial
    assert hits > ticks // 2


def test_unit_memo_is_emptied_at_its_cap(monkeypatch):
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
            sizes.append(len(cn.unit_memo))
            assert len(cn.unit_memo) <= cap
        return out, sizes

    reference, sizes = trajectory(two_stack_to_net(anbn_machine()), network._UNIT_MEMO_CAP)
    assert max(sizes) > 5
    monkeypatch.setattr(network, "_UNIT_MEMO_CAP", 5)
    capped, sizes = trajectory(two_stack_to_net(anbn_machine()), 5)
    assert capped == reference
    assert max(sizes) == 5 and 1 in sizes[5:]  # it filled up and was emptied


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
    """A lazy scalar known to a strict horizon of 1-12 digits, as in the
    stream-weight oracle nets.  (Against an interval source wider than the
    precision target, affine_combine never stops refining a stream that has
    no horizon.)"""
    horizon = rng.randint(1, 12)
    digits = [rng.randint(0, 1) for _ in range(horizon)]
    return ExactScalar.from_stream(UnitReal(digits, horizon=horizon, strict_horizon=True))


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
    sample = [(w, 1 if dfa.accepts(w) else 0) for w in words_up_to(3)]
    assert recognizes(net, sample, lambda w: dfa_budget(len(w))).all_agree
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
    assert recognizes(net, sample, lambda w: dfa_budget(len(w))).all_agree

    lazy = random_stream(random.Random(1))
    copy = net.replace_state_weight(*key, lazy)
    assert net.is_exact() and not copy.is_exact()
    assert copy._compiled is not net._compiled
    assert (key[0], lazy) in copy._compiled.state_edges[key[1]]
    assert (key[0], lazy) not in net._compiled.state_edges[key[1]]
    assert recognizes(net, sample, lambda w: dfa_budget(len(w))).all_agree




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
    assert result.trace[result.decided_at - 1].out_valid == 1


def test_run_deterministic():
    net = dfa_to_net(parity_dfa())
    first = run(net, "abba", 32)
    second = run(net, "abba", 32)
    assert first == second


def test_recognizes_report():
    dfa = parity_dfa()
    net = dfa_to_net(dfa)
    sample = [(w, 1 if dfa.accepts(w) else 0) for w in words_up_to(4)]
    report = recognizes(net, sample, lambda w: dfa_budget(len(w)))
    assert report.total == 31
    assert report.all_agree
    assert "31/31" in str(report)


def test_recognizes_budget_zero_all_timeout():
    net = dfa_to_net(parity_dfa())
    report = recognizes(net, [("a", 1), ("bb", 1)], 0)
    assert report.timeouts == ("a", "bb")
    assert report.agreements == 0 and not report.all_agree


def test_recognizes_reports_timeouts_separately():
    dead = Network(1, 1, out_data=0, out_valid=0, input_symbols=("a",))
    report = recognizes(dead, [("a", 1), ("aa", 0)], 8)
    assert report.timeouts == ("a", "aa")
    assert report.agreements == 0


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
    assert not net.is_exact()
    result = run(net, "", 4)
    assert result.verdict == Verdict.ACCEPT
