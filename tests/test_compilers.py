"""Automaton-to-network compilers and the composition operator."""

import random
from fractions import Fraction
from itertools import product

import pytest

from arnnlab import (
    CANTOR4,
    Alphabet,
    ConstructionError,
    Dfa,
    ExactScalar,
    HorizonExceeded,
    Language,
    Network,
    OracleNetSpec,
    OracleTable,
    Rule,
    ShapeError,
    TwoStackMachine,
    UnitReal,
    Verdict,
    cantor_encode,
    compose_nets,
    decode_membership,
    dfa_budget,
    dfa_to_net,
    encode_language,
    oracle_budget,
    oracle_consult,
    oracle_net,
    oracle_net_parts,
    pop_gadget,
    push_gadget,
    run,
    step,
    string_of_index,
    two_stack_budget,
    two_stack_to_net,
)
from arnnlab.compilers import composed_oracle_budget
from arnnlab.exact import ScalarKind

from conftest import AB, FIVE_DFAS, anbn_machine, abstar_language, words_up_to


# -- stack gadget algebra -----------------------------------------------------


def test_push_gadget_examples():
    assert push_gadget(Fraction(0), 1) == Fraction(3, 4)  # cantor_encode("1")
    assert push_gadget(Fraction(0), 1) == cantor_encode("1")


def test_gadget_algebra_exhaustive():
    for length in range(11):
        for n in range(2**length):
            bits = [(n >> (length - 1 - i)) & 1 for i in range(length)]
            x = Fraction(0)
            for b in reversed(bits):
                x = push_gadget(x, b)
            assert x == cantor_encode(bits)
            recovered = []
            while x:
                bit, x = pop_gadget(x)
                recovered.append(bit)
            assert recovered == bits


def test_gadget_algebra_random_long():
    rng = random.Random(4242)
    for _ in range(1000):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 32))]
        x = Fraction(0)
        for b in reversed(bits):
            x = push_gadget(x, b)
        assert x == cantor_encode(bits)


# -- DFA compilation -----------------------------------------------------------


def test_dfa_weights_all_integer():
    for make in FIVE_DFAS:
        net = dfa_to_net(make())
        assert all(s.kind == ScalarKind.INTEGER for s in net.scalars())
        assert all(act == "sig" for act in net.activations)


def test_dfa_accept_all_single_state():
    dfa = Dfa(("q",), AB, {("q", "a"): "q", ("q", "b"): "q"}, "q", frozenset({"q"}))
    net = dfa_to_net(dfa)
    assert run(net, "ab", 32).verdict == Verdict.ACCEPT


def test_dfa_requires_total_transitions():
    with pytest.raises(ConstructionError):
        Dfa(("q",), AB, {("q", "a"): "q"}, "q", frozenset())


def test_parity_net_matches_dfa_exhaustively():
    dfa = FIVE_DFAS[0]()
    net = dfa_to_net(dfa)
    for w in words_up_to(4):
        result = run(net, w, dfa_budget(len(w)))
        assert result.verdict != Verdict.TIMEOUT
        assert (result.verdict == Verdict.ACCEPT) == dfa.accepts(w), w


def random_dfa(rng, n_states):
    states = tuple(f"q{i}" for i in range(n_states))
    transitions = {
        (q, s): rng.choice(states) for q in states for s in AB.symbols
    }
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return Dfa(states, AB, transitions, states[0], accepting)


def test_random_dfas_match_direct_simulation():
    rng = random.Random(505)
    for _ in range(8):
        dfa = random_dfa(rng, rng.randint(1, 6))
        net = dfa_to_net(dfa)
        for w in words_up_to(6):
            result = run(net, w, dfa_budget(len(w)), record_trace=False)
            assert result.verdict != Verdict.TIMEOUT
            assert (result.verdict == Verdict.ACCEPT) == dfa.accepts(w), (dfa, w)


# -- two-stack machines ----------------------------------------------------------


def test_machine_rejects_nondeterminism():
    with pytest.raises(ConstructionError):
        TwoStackMachine(
            states=("S",),
            alphabet=AB,
            rules=(
                Rule("S", "a", None, None, "S", push1=1),
                Rule("S", "a", 1, None, "S"),  # overlaps: pop guard subsumed
            ),
            start="S",
            accepting=frozenset(),
        )


def test_two_stack_weights_integer_or_rational():
    net = two_stack_to_net(anbn_machine())
    kinds = {s.kind for s in net.scalars()}
    assert kinds <= {ScalarKind.INTEGER, ScalarKind.RATIONAL}


def test_anbn_net_examples():
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    for w, want in [("aabb", Verdict.ACCEPT), ("aab", Verdict.REJECT)]:
        _, steps = machine.execute(w, 1000)
        assert run(net, w, two_stack_budget(len(w), steps)).verdict == want


def test_anbn_sample_report():
    from arnnlab import recognizes

    machine = anbn_machine()
    net = two_stack_to_net(machine)

    def budget(w):
        _, steps = machine.execute(w, 1000)
        return two_stack_budget(len(w), steps)

    report = recognizes(net, [("ab", 1), ("aab", 0), ("aabb", 1)], budget)
    assert report.all_agree and report.total == 3


def test_anbn_net_matches_machine_medium_words():
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    for w in words_up_to(7):
        want, steps = machine.execute(w, 10_000)
        result = run(net, w, two_stack_budget(len(w), steps), record_trace=False)
        assert result.verdict != Verdict.TIMEOUT, w
        assert (result.verdict == Verdict.ACCEPT) == want, w


def test_divergent_machine_times_out_never_rejects():
    spinner = TwoStackMachine(
        states=("S",),
        alphabet=AB,
        rules=(Rule("S", None, None, None, "S", push1=1),),
        start="S",
        accepting=frozenset(),
    )
    verdict, _ = spinner.execute("", 500)
    assert verdict is None
    net = two_stack_to_net(spinner)
    assert run(net, "", 400).verdict == Verdict.TIMEOUT


def test_copy_machine_uses_both_stacks():
    # loads input bits (a=0, b=1) onto stack 1, then transfers them to
    # stack 2 with end-of-input rules; accepts exactly the nonempty words
    machine = TwoStackMachine(
        states=("L", "M"),
        alphabet=AB,
        rules=(
            Rule("L", "a", None, None, "L", push1=0),
            Rule("L", "b", None, None, "L", push1=1),
            Rule("L", None, 0, None, "M", push2=0),
            Rule("L", None, 1, None, "M", push2=1),
            Rule("M", None, 0, None, "M", push2=0),
            Rule("M", None, 1, None, "M", push2=1),
        ),
        start="L",
        accepting=frozenset({"M"}),
    )
    net = two_stack_to_net(machine)
    for w in ["", "a", "ab", "bba", "abab"]:
        want, steps = machine.execute(w, 1000)
        got = run(net, w, two_stack_budget(len(w), steps)).verdict
        assert (got == Verdict.ACCEPT) == want, w


def test_three_symbol_machine_uses_both_stacks():
    # a^n c b^n over {a,b,c}: a-tokens migrate from stack 1 to stack 2
    abc = Alphabet.of("abc")
    machine = TwoStackMachine(
        states=("A", "M", "D"),
        alphabet=abc,
        rules=(
            Rule("A", "a", None, None, "A", push1=1),
            Rule("A", "c", None, None, "M"),
            Rule("M", "b", 1, None, "M", push2=1),
            Rule("A", None, 1, None, "D"),
            Rule("M", None, 1, None, "D"),
        ),
        start="A",
        accepting=frozenset({"M"}),
    )
    net = two_stack_to_net(machine)
    for n in range(0, 5):
        for w in map("".join, product("abc", repeat=n)):
            want, steps = machine.execute(w, 10_000)
            res = run(net, w, two_stack_budget(len(w), steps), record_trace=False)
            assert res.verdict != Verdict.TIMEOUT, w
            assert (res.verdict == Verdict.ACCEPT) == want, w


def test_drain_machine_pops_both_bit_classes():
    # loads bits onto stack 2, then drains it with disjoint pop rules,
    # exercising pops of both digit classes on the second stack
    machine = TwoStackMachine(
        states=("L", "E"),
        alphabet=AB,
        rules=(
            Rule("L", "a", None, None, "L", push2=0),
            Rule("L", "b", None, None, "L", push2=1),
            Rule("L", None, None, 0, "E"),
            Rule("L", None, None, 1, "E"),
            Rule("E", None, None, 0, "E"),
            Rule("E", None, None, 1, "E"),
        ),
        start="L",
        accepting=frozenset({"E"}),
    )
    net = two_stack_to_net(machine)
    for w in words_up_to(6):
        want, steps = machine.execute(w, 10_000)
        res = run(net, w, two_stack_budget(len(w), steps), record_trace=False)
        assert res.verdict != Verdict.TIMEOUT, w
        assert (res.verdict == Verdict.ACCEPT) == want, w


def random_machine(rng):
    # at most one rule per (state, read) keeps the guards trivially disjoint
    n_states = rng.randint(1, 4)
    states = tuple(f"q{i}" for i in range(n_states))
    rules = []
    for state in states:
        for read in ["a", "b", None]:
            if rng.random() < 0.7:
                rules.append(
                    Rule(
                        state,
                        read,
                        pop1=rng.choice([None, None, 0, 1]),
                        pop2=rng.choice([None, None, 0, 1]),
                        next_state=rng.choice(states),
                        push1=rng.choice([None, 0, 1]),
                        push2=rng.choice([None, 0, 1]),
                    )
                )
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return TwoStackMachine(states, AB, tuple(rules), states[0], accepting)


def test_random_machines_match_their_nets():
    rng = random.Random(777)
    words = ["", "a", "b", "ab", "ba", "aab", "bba", "abab", "bbaa"]
    for _ in range(40):
        machine = random_machine(rng)
        net = None
        for w in words:
            want, steps = machine.execute(w, 300)
            if want is None:
                continue  # diverging configuration; timeouts not compared
            if net is None:
                net = two_stack_to_net(machine)
            res = run(net, w, two_stack_budget(len(w), steps), record_trace=False)
            assert res.verdict != Verdict.TIMEOUT, w
            assert (res.verdict == Verdict.ACCEPT) == want, (machine, w)


# -- oracle nets -------------------------------------------------------------------


def abstar_oracle_spec(label="0'"):
    table = OracleTable.from_language(abstar_language(), 25)
    return OracleNetSpec(ExactScalar.oracle(table, CANTOR4, label), AB)


def test_oracle_net_structural_weight_classes():
    net = oracle_net(abstar_oracle_spec())
    oracle_scalars = [s for s in net.scalars() if s.kind == ScalarKind.ORACLE]
    assert len(oracle_scalars) == 1
    assert oracle_scalars[0].degree_label == "0'"
    rest = {s.kind for s in net.scalars()} - {ScalarKind.ORACLE}
    assert rest <= {ScalarKind.INTEGER, ScalarKind.RATIONAL}


def test_oracle_net_golden_examples():
    net = oracle_net(abstar_oracle_spec())
    bit, _ = oracle_consult(net, "ab", oracle_budget("ab", AB))
    assert bit == 1
    bit, _ = oracle_consult(net, "b", oracle_budget("b", AB))
    assert bit == 0


def test_oracle_net_all_zero_oracle_rejects():
    table = OracleTable((0,) * 10)
    spec = OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0"), AB)
    net = oracle_net(spec)
    for w in ["", "a", "bb"]:
        bit, _ = oracle_consult(net, w, oracle_budget(w, AB))
        assert bit == 0


def test_oracle_net_horizon_flag():
    net = oracle_net(abstar_oracle_spec())
    word = string_of_index(26, AB)
    with pytest.raises(HorizonExceeded):
        oracle_consult(net, word, oracle_budget(word, AB))
    result = run(net, word, oracle_budget(word, AB))
    assert result.verdict == Verdict.REJECT and result.flagged


def test_oracle_net_rejects_binary_packing():
    table = OracleTable.from_language(abstar_language(), 8)
    with pytest.raises(ConstructionError):
        OracleNetSpec(ExactScalar.oracle(table, "binary", "0'"), AB)


def test_oracle_net_rejects_unknown_index_encoder():
    table = OracleTable.from_language(abstar_language(), 8)
    with pytest.raises(ConstructionError):
        OracleNetSpec(
            ExactScalar.oracle(table, CANTOR4, "0'"), AB, index_encoder="godel"
        )


def test_oracle_net_accepts_finite_stream():
    digits = OracleTable.from_language(abstar_language(), 12).digit_view(CANTOR4)
    stream = UnitReal.from_digits(digits.prefix(12), base=4, degree_label="0")
    spec = OracleNetSpec(ExactScalar.from_stream(stream), AB)
    net = oracle_net(spec)
    bit, _ = oracle_consult(net, "ab", oracle_budget("ab", AB))
    assert bit == 1


def test_oracle_net_interval_path_matches_exact_oracle():
    # a strict-horizon stream weight is not exact, so the net steps through
    # the lazy interval path; it must give the exact oracle net's bits in the
    # same number of ticks
    table = OracleTable.from_language(abstar_language(), 2)
    lazy = ExactScalar.from_stream(table.digit_view(CANTOR4))
    assert not lazy.is_exact
    nets = [
        oracle_net(OracleNetSpec(lazy, AB)),
        oracle_net(OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB)),
    ]
    for word, bit, ticks in (("", 0, 52), ("a", 1, 123)):
        for net in nets:
            got, result = oracle_consult(net, word, oracle_budget(word, AB))
            assert (got, result.ticks) == (bit, ticks), word
    for net in nets:
        with pytest.raises(HorizonExceeded):
            oracle_consult(net, "b", oracle_budget("b", AB))


def test_oracle_net_rejects_infinite_stream():
    stream = UnitReal.from_function(lambda n: 1, base=4)
    with pytest.raises(ConstructionError):
        OracleNetSpec(ExactScalar.from_stream(stream), AB)


def test_three_symbol_oracle_net():
    # alphabet size 3 makes the per-symbol index offset range over
    # {-1, 0, 1}, covering the counter-decrement path
    abc = Alphabet.of("abc")
    language = Language.from_rule(abc, "parity", "c")
    table = OracleTable.from_language(language, 30)
    net = oracle_net(OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), abc))
    real = encode_language(language, 30)
    for idx in [1, 2, 3, 4, 5, 9, 13, 20, 30]:
        s = string_of_index(idx, abc)
        bit, _ = oracle_consult(net, s, oracle_budget(s, abc))
        assert bit == decode_membership(real, s, abc), s


def test_unary_alphabet_oracle_net():
    ua = Alphabet.of("a")
    language = Language.from_members(ua, ["", "aa", "aaa"])
    table = OracleTable.from_language(language, 6)
    net = oracle_net(OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), ua))
    real = encode_language(language, 6)
    for n in range(6):
        w = "a" * n
        bit, _ = oracle_consult(net, w, oracle_budget(w, ua))
        assert bit == decode_membership(real, w, ua), w


def test_oracle_consultation_random_languages():
    rng = random.Random(31337)
    for _ in range(3):
        members = {string_of_index(i, AB) for i in rng.sample(range(1, 26), 8)}
        language = Language.from_members(AB, members)
        table = OracleTable.from_language(language, 25)
        real = encode_language(language, 25)
        net = oracle_net(OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB))
        for idx in range(1, 26):  # every in-horizon index
            s = string_of_index(idx, AB)
            bit, _ = oracle_consult(net, s, oracle_budget(s, AB))
            assert bit == decode_membership(real, s, AB), s


# -- composition ---------------------------------------------------------------------


def identity_pass_net():
    return Network(
        2,
        1,
        input_weights={
            (0, 0): ExactScalar.integer(1),
            (1, 1): ExactScalar.integer(1),
        },
        activations=("sig", "sig"),
        out_data=0,
        out_valid=1,
        input_symbols=("1",),
    )


def test_compose_identity_pass():
    combined = compose_nets(identity_pass_net(), identity_pass_net())
    state = (0,) * combined.n_neurons
    for _ in range(3):
        state = step(combined, state, (1,), 1)
    assert state[combined.out_data] == 1
    assert state[combined.out_valid] == 1


def test_compose_mismatched_lines_is_shape_error():
    wide = Network(1, 2, out_data=0, out_valid=0)
    with pytest.raises(ShapeError):
        compose_nets(identity_pass_net(), wide)
    with pytest.raises(ShapeError):
        compose_nets(identity_pass_net(), wide, {0: "data"})


def test_compose_first_net_without_out_valid_is_shape_error():
    # the second net's validation column has no source to hand off from
    first = Network(1, 1, input_weights={(0, 0): ExactScalar.integer(1)}, out_data=0)
    with pytest.raises(ShapeError, match="no 'valid' output"):
        compose_nets(first, identity_pass_net())


def test_compose_rejects_inexact_colliding_handoff_weight():
    # the second net reads both its data line and its validation line from
    # the first net's valid output, so the two weights land on one key and
    # must be merged; a lazy stream weight has no exact sum
    lazy = ExactScalar.from_stream(UnitReal.from_function(lambda n: n % 2))
    second = Network(
        1,
        1,
        input_weights={(0, 0): lazy, (0, 1): ExactScalar.integer(1)},
        out_data=0,
        out_valid=0,
    )
    with pytest.raises(ConstructionError):
        compose_nets(identity_pass_net(), second, {0: "valid"})


def test_composed_parts_match_monolithic_oracle():
    spec = abstar_oracle_spec()
    n_net, o_net, handoff = oracle_net_parts(spec)
    combined = compose_nets(n_net, o_net, handoff)
    mono = oracle_net(spec)
    rng = random.Random(8)
    indices = rng.sample(range(1, 26), 10)
    for idx in indices:
        w = string_of_index(idx, AB)
        mono_bit, _ = oracle_consult(mono, w, oracle_budget(w, AB))
        comp_bit, _ = oracle_consult(combined, w, composed_oracle_budget(w, AB))
        assert mono_bit == comp_bit, w
