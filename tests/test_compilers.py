"""Automaton-to-network compilers and the composition operator."""

import random
from fractions import Fraction
from itertools import cycle, product, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnnlab import (
    CANTOR4,
    Alphabet,
    AlphabetError,
    ConstructionError,
    Dfa,
    ExactScalar,
    HorizonExceeded,
    Language,
    Network,
    OracleNetSpec,
    OracleTable,
    Rule,
    RunTimeout,
    ShapeError,
    TwoStackMachine,
    UnitReal,
    Verdict,
    cantor_encode,
    classify_network,
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

from conftest import (
    AB,
    FIVE_DFAS,
    abstar_language,
    anbn_machine,
    copy_machine,
    parity_dfa,
    two_stack_machines,
    words_up_to,
)


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


def test_dfa_and_machine_reject_multi_character_symbols():
    # a transition or a read on "ab" names no symbol that a word can carry
    total = {("q", "a"): "q", ("q", "b"): "q"}
    with pytest.raises(AlphabetError):
        Dfa(("q",), AB, {**total, ("q", "ab"): "q"}, "q", frozenset())
    with pytest.raises(AlphabetError):
        TwoStackMachine(("S",), AB, (Rule("S", "ab", None, None, "S"),), "S", frozenset({"S"}))


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
            result = run(net, w, dfa_budget(len(w)))
            assert result.verdict != Verdict.TIMEOUT
            assert (result.verdict == Verdict.ACCEPT) == dfa.accepts(w), (dfa, w)


# -- two-stack machines ----------------------------------------------------------


def test_machine_rejects_duplicate_state_names():
    with pytest.raises(ConstructionError, match="duplicate state names"):
        TwoStackMachine(("S", "T", "T"), AB, (), "S", frozenset({"T"}))


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
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    for w, want in [("ab", Verdict.ACCEPT), ("aab", Verdict.REJECT), ("aabb", Verdict.ACCEPT)]:
        _, steps = machine.execute(w, 1000)
        assert run(net, w, two_stack_budget(len(w), steps)).verdict == want, w


def test_anbn_net_matches_machine_medium_words():
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    for w in words_up_to(7):
        want, steps = machine.execute(w, 10_000)
        result = run(net, w, two_stack_budget(len(w), steps))
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
    machine = copy_machine()
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
            res = run(net, w, two_stack_budget(len(w), steps))
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
        res = run(net, w, two_stack_budget(len(w), steps))
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
            res = run(net, w, two_stack_budget(len(w), steps))
            assert res.verdict != Verdict.TIMEOUT, w
            assert (res.verdict == Verdict.ACCEPT) == want, (machine, w)


def first_match_execute(machine, word, max_steps):
    """``TwoStackMachine.execute`` written as a scan of every rule at each
    step, taking the first whose state, read and pops all match."""
    state, pos, s1, s2 = machine.start, 0, [], []
    for steps in range(max_steps):
        for rule in machine.rules:
            if rule.state != state:
                continue
            if rule.read is None and pos != len(word):
                continue
            if rule.read is not None and (pos >= len(word) or word[pos] != rule.read):
                continue
            if rule.pop1 is not None and s1[-1:] != [rule.pop1]:
                continue
            if rule.pop2 is not None and s2[-1:] != [rule.pop2]:
                continue
            break
        else:
            return state in machine.accepting and pos == len(word), steps
        pos += rule.read is not None
        for stack, pop, push in ((s1, rule.pop1, rule.push1), (s2, rule.pop2, rule.push2)):
            if pop is not None:
                stack.pop()
            if push is not None:
                stack.append(push)
        state = rule.next_state
    return None, max_steps


@settings(max_examples=200, deadline=None)
@given(two_stack_machines(), st.text("ab", max_size=12), st.integers(0, 80))
def test_execute_finds_the_rule_a_first_match_scan_finds(machine, word, max_steps):
    """``execute`` looks its rules up by state and read; it returns what a
    scan of every rule returns, and the lookup leaves the machine's
    equality, hash and repr those of its fields."""
    assert machine.execute(word, max_steps) == first_match_execute(machine, word, max_steps)
    for known in (anbn_machine(), copy_machine()):
        assert known.execute(word, 400) == first_match_execute(known, word, 400)
    twin = TwoStackMachine(machine.states, AB, machine.rules, machine.start, machine.accepting)
    assert twin == machine and hash(twin) == hash(machine)
    assert "_guards" not in repr(machine)


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
    with pytest.raises(ConstructionError):
        OracleNetSpec(ExactScalar.from_stream(table.digit_view("binary")), AB)


def test_oracle_consult_timeout_is_run_timeout():
    net = oracle_net(abstar_oracle_spec())
    word = "ab"
    with pytest.raises(RunTimeout, match="timed out"):
        oracle_consult(net, word, len(word) + 1)


def test_oracle_consult_reads_any_net():
    # a verdict is a bit, and no verdict within the budget is a RunTimeout
    dfa = parity_dfa()
    net = dfa_to_net(dfa)
    for w in words_up_to(4):
        bit, _ = oracle_consult(net, w, dfa_budget(len(w)))
        assert bit == int(dfa.accepts(w)), w
    dead = Network(1, 1, out_data=0, out_valid=0, input_symbols=("a",))
    with pytest.raises(RunTimeout, match="timed out"):
        oracle_consult(dead, "a", 8)


def test_oracle_net_accepts_finite_stream():
    digits = OracleTable.from_language(abstar_language(), 12).digit_view(CANTOR4)
    stream = UnitReal.from_digits(digits.prefix(12), base=4, degree_label="0")
    spec = OracleNetSpec(ExactScalar.from_stream(stream), AB)
    net = oracle_net(spec)
    bit, _ = oracle_consult(net, "ab", oracle_budget("ab", AB))
    assert bit == 1


def test_oracle_net_interval_path_matches_exact_oracle():
    # a strict-horizon stream weight is the rational of its digits, so the
    # net is exact and runs on the integer kernel; it must give the exact
    # oracle net's bits in the same number of ticks
    table = OracleTable.from_language(abstar_language(), 2)
    lazy = ExactScalar.from_stream(table.digit_view(CANTOR4))
    assert lazy.exact_fraction() is not None
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


def test_stream_oracle_net_decides_past_the_interval_precision():
    # on a horizon-80 table these indices need the stream's value past the
    # 128-digit interval budget (the interval path ended in UnknownSign at
    # neuron 31); exact at its horizon, the stream-weight net gives the
    # exact oracle net's bits in the same number of ticks
    language = Language.from_members(AB, [string_of_index(i, AB) for i in (3, 66, 79)])
    table = OracleTable.from_language(language, 80)
    lazy = oracle_net(OracleNetSpec(ExactScalar.from_stream(table.digit_view(CANTOR4)), AB))
    exact = oracle_net(OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB))
    for index, bit in ((66, 1), (70, 0), (79, 1)):
        word = string_of_index(index, AB)
        want = oracle_consult(exact, word, oracle_budget(word, AB))
        got = oracle_consult(lazy, word, oracle_budget(word, AB))
        assert (got[0], got[1].ticks) == (want[0], want[1].ticks), index
        assert got[0] == bit, index
    assert lazy.is_exact()


def test_oracle_net_on_a_long_table():
    # the horizon-255 table's weight has a 511-bit denominator, read on one
    # tick of the run; every other tick replays without it
    language = Language.from_rule(AB, "parity", "a")
    table = OracleTable.from_language(language, 255)
    net = oracle_net(OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB))
    word = "b" * 7
    assert string_of_index(255, AB) == word
    bit, result = oracle_consult(net, word, oracle_budget(word, AB))
    assert bit == decode_membership(encode_language(language, 255), word, AB)
    assert result.ticks == 9_054
    word = string_of_index(256, AB)
    with pytest.raises(HorizonExceeded):
        oracle_consult(net, word, oracle_budget(word, AB))


def test_oracle_net_rejects_infinite_stream():
    stream = UnitReal(gen=repeat(1), base=4)
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
    combined = compose_nets(identity_pass_net(), identity_pass_net(), {0: "data"})
    state = (0,) * combined.n_neurons
    for _ in range(3):
        state = step(combined, state, (1,), 1)
    assert state[combined.out_data] == 1
    assert state[combined.out_valid] == 1


def test_compose_mismatched_lines_is_shape_error():
    wide = Network(1, 2, out_data=0, out_valid=0)
    with pytest.raises(ShapeError):
        compose_nets(identity_pass_net(), wide, {0: "data"})


def test_compose_rejects_handoff_to_no_line_or_from_no_output():
    for handoff, message in (
        ({0: "data", 7: "flag", 3: "bogus"}, "handoff key 7 is not one of the second net's 1 data"),
        ({0: "bogus"}, "handoff of line 0 is 'bogus', not 'data', 'valid' or 'flag'"),
    ):
        with pytest.raises(ShapeError, match=message):
            compose_nets(identity_pass_net(), identity_pass_net(), handoff)


def test_compose_first_net_without_out_valid_is_shape_error():
    # the second net's validation column has no source to hand off from
    first = Network(1, 1, input_weights={(0, 0): ExactScalar.integer(1)}, out_data=0)
    with pytest.raises(ShapeError, match="no 'valid' output"):
        compose_nets(first, identity_pass_net(), {0: "data"})


def test_compose_rejects_inexact_colliding_handoff_weight():
    # the second net reads both its data line and its validation line from
    # the first net's valid output, so the two weights land on one key and
    # must be merged; only rationals merge, since a sum would lose a lazy
    # stream's value or an oracle's or stream's degree label
    def second(weight):
        return Network(
            1,
            1,
            input_weights={(0, 0): weight, (0, 1): ExactScalar.integer(1)},
            out_data=0,
            out_valid=0,
        )

    table = OracleTable.from_language(abstar_language(), 8)
    for weight in (
        ExactScalar.from_stream(UnitReal(gen=cycle([1, 0])), "0'"),
        ExactScalar.oracle(table, CANTOR4, "0''"),
        ExactScalar.from_stream(UnitReal.from_digits([1, 0, 1]), "0'"),
    ):
        assert classify_network(second(weight)).degrees
        with pytest.raises(ConstructionError, match="not rational"):
            compose_nets(identity_pass_net(), second(weight), {0: "valid"})
    merged = compose_nets(identity_pass_net(), second(ExactScalar.rational(1, 2)), {0: "valid"})
    assert merged.state_weights[(2, 1)] == ExactScalar.rational(3, 2)


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
