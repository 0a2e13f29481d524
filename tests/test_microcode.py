"""White-box invariants of the micro-coded ring engine.

These tests drive compiled nets tick by tick and inspect named internal
neurons: the input buffer must encode the presented word, the phase ring
must stay one-hot, control state must stay one-hot after ignition, and
stack registers must always hold valid base-B expansions over their digit
sets.
"""

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from arnnlab import (
    CANTOR4,
    ConstructionError,
    ExactScalar,
    OracleNetSpec,
    OracleTable,
    Rule,
    TwoStackMachine,
    Verdict,
    compose_nets,
    oracle_net,
    oracle_net_parts,
    run,
    two_stack_budget,
    two_stack_to_net,
)
from arnnlab.microcode import (
    RING_LEN,
    Guard,
    MicroProgram,
    MicroRule,
    OutputSpec,
    StackOp,
    StackSpec,
    compile_program,
)
from arnnlab.network import _compiled, _fast_step

from conftest import (
    AB, abstar_language, anbn_machine, copy_machine, two_stack_machines, words_up_to,
)


def trace_values(net, word, ticks):
    """Step the net on the word protocol, returning per-tick value dicts."""
    cn = _compiled(net)
    names = net.neuron_names
    state = [0] * net.n_neurons
    lines = [net.line_for_symbol(ch) for ch in word]
    out = []
    for t in range(ticks):
        if t < len(lines):
            inputs = tuple(1 if j == lines[t] else 0 for j in range(net.n_inputs))
            validation = 1
        else:
            inputs = (0,) * net.n_inputs
            validation = 0
        state = _fast_step(cn, state, inputs, validation)
        out.append(dict(zip(names, state)))
    return out


def digits_of(value, base):
    """Finite base-B digit expansion of an exact rational in [0, 1)."""
    value = Fraction(value)
    digits = []
    while value:
        value *= base
        digit = int(value)
        digits.append(digit)
        value -= digit
        assert len(digits) < 10_000
    return digits


def test_frozen_buffer_holds_word_and_one_filler():
    net = two_stack_to_net(anbn_machine())
    word = "aab"
    # buffer digits are 4K + 2*rank + 1 (K=2): a -> 9, b -> 11, silence -> 0;
    # the freeze captures the word plus the single filler of the quiet tick
    ticks = trace_values(net, word, len(word) + 3)
    frozen = ticks[-1]["wb.val"]
    assert digits_of(frozen, 16) == [0, 11, 9, 9]  # newest digit on top


def test_reversal_restores_symbol_order():
    net = two_stack_to_net(anbn_machine())
    word = "ab"
    # run until the reversal state is left (q.REV drops)
    for t, values in enumerate(trace_values(net, word, 300)):
        if values["q.m.S"] == 1:
            assert digits_of(values["in.val"], 8) == [1, 3]  # a then b on top
            break
    else:
        raise AssertionError("machine state never became active")


def test_phase_ring_one_hot_after_ignition():
    net = two_stack_to_net(anbn_machine())
    phases = [n for n in net.neuron_names if n.startswith("phi")]
    ticks = trace_values(net, "ab", 200)
    ignited = False
    for values in ticks:
        active = sum(values[p] for p in phases)
        if not ignited and active:
            ignited = True
        if ignited:
            assert active == 1
    assert ignited


def test_control_state_one_hot_after_ignition():
    net = two_stack_to_net(anbn_machine())
    states = [n for n in net.neuron_names if n.startswith("q.")]
    ignited = False
    for values in trace_values(net, "aabb", 400):
        total = sum(values[q] for q in states)
        if not ignited and total:
            ignited = True
        if ignited:
            assert total == 1, values


def test_stack_registers_always_valid_expansions():
    binary = (4, {1, 3})
    specs = {"wb.val": (16, {0, 9, 11}), "in.val": (8, {1, 3}), "s1.val": binary}
    # a^n b^n never names s2, so s2 is covered by a machine that writes it
    for machine, extra in ((anbn_machine(), {}), (copy_machine(), {"s2.val": binary})):
        for values in trace_values(two_stack_to_net(machine), "aabab", 500):
            for name, (base, allowed) in {**specs, **extra}.items():
                for digit in digits_of(values[name], base):
                    assert digit in allowed or digit == 0, (name, values[name])


def test_verdict_repeats_after_halt():
    # the ring keeps cycling after halting; the verdict pulse recurs with
    # the same value, and the first one is what run() latches
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    word = "ab"
    _, steps = machine.execute(word, 100)
    budget = two_stack_budget(len(word), steps)
    first = run(net, word, budget)
    assert first.verdict == Verdict.ACCEPT
    ticks = trace_values(net, word, budget + 40)
    pulses = [
        t for t, values in enumerate(ticks) if values["out.valid"] == 1
    ]
    assert len(pulses) >= 2
    for t in pulses:
        assert ticks[t]["out.data"] == 1


def test_buffer_clears_after_freeze_and_denominators_stay_bounded():
    # after the freeze the buffer must stop shifting in filler digits; the
    # finest value any neuron holds is then the frozen word plus one filler,
    # 4 bits per base-16 digit, and later ticks never get finer
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    for word in ("ab", "aab", "abab", "aaabbb", "aaaaaabbbbbb"):
        _, steps = machine.execute(word, 10_000)
        ticks = trace_values(net, word, 2 * two_stack_budget(len(word), steps))
        freeze = next(t for t, values in enumerate(ticks) if values["fresh"] == 1)
        assert all(values["buf"] == 0 for values in ticks[freeze + 1 :]), word
        bits = [
            max(Fraction(x).denominator.bit_length() for x in values.values())
            for values in ticks
        ]
        half = len(bits) // 2
        assert max(bits[half:]) <= max(bits[:half]), word
        assert max(bits) <= 4 * (len(word) + 1) + 1, word


def compiled_nets():
    """The a^n b^n and copy nets and every net compiled for the a b* oracle."""
    table = OracleTable.from_language(abstar_language(), 25)
    spec = OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB)
    first, second, handoff = oracle_net_parts(spec)
    return {
        "anbn": two_stack_to_net(anbn_machine()),
        "copy": two_stack_to_net(copy_machine()),
        "oracle": oracle_net(spec),
        "transmitter": first,
        "extractor": second,
        "composed": compose_nets(first, second, handoff),
    }


def test_compiled_nets_build_only_read_neurons():
    nets = compiled_nets()
    for label, net in nets.items():
        outputs = {net.out_data, net.out_valid, net.out_flag}
        by_other = {j for (i, j) in net.state_weights if i != j}
        for idx, name in enumerate(net.neuron_names):
            assert idx in by_other or idx in outputs, (label, name)
            base = name.removeprefix("2.")
            assert not re.fullmatch(
                r"g\d+\..*|ww\..*|anymatch|match\d+\..*|md\d+|nomatch|halt", base
            ), (label, name)
    # a word's input starts at tick 0, so only a pulse-input net (the
    # extractor) builds the start latch, and its input clock reads it
    for label in ("anbn", "oracle", "transmitter"):
        assert "started" not in nets[label].neuron_names, label
    assert "started" in nets["extractor"].neuron_names
    assert "2.started" in nets["composed"].neuron_names
    names = set(nets["anbn"].neuron_names)
    assert not any(n.startswith("s2.") for n in names)
    assert {"in.val", "s1.val", "kill.s1"} <= names
    # the copy machine only pushes onto s2 and never tests it
    names = set(nets["copy"].neuron_names)
    assert "s2.val" in names and not names & {"s2.ne", "s2.ge3", "s2.rem"}


def test_one_rule_candidates_live_only_on_phase_six():
    machine = anbn_machine()
    net = two_stack_to_net(machine)
    cands = [n for n in net.neuron_names if n.startswith("cand")]
    assert cands
    for word in words_up_to(6):
        _, steps = machine.execute(word, 10_000)
        for values in trace_values(net, word, two_stack_budget(len(word), steps)):
            live = {n.split(".")[0] for n in cands if values[n] != 0}
            assert len(live) <= 1, (word, live)
            assert not live or values["phi6"] == 1, (word, live)


def test_anbn_tick_counts_pinned():
    # rewiring the microcode must keep every tick count of the net
    net = two_stack_to_net(anbn_machine())
    pinned = {"": 17, "ab": 54, "ba": 40, "aab": 76, "abab": 70, "aabb": 84, "aaabbb": 114}
    for word, ticks in pinned.items():
        assert run(net, word, 1_000).ticks == ticks, word


def law_ticks(word, steps):
    """The ticks of a compiled two-stack run on ``word`` whose machine
    halts after ``steps`` steps: ``|w|`` to read the word in, ``RING_LEN``
    for each of ``|w| + steps + 1`` ring cycles and for one more cycle on
    a nonempty word, and ``RING_LEN + 3`` more."""
    return len(word) + RING_LEN * (len(word) + steps + 1 + (word != "")) + RING_LEN + 3


def check_tick_law(machine):
    """Every word of length <= 6 on which ``machine`` halts decides as the
    machine does, on the tick the law gives; return how many were run."""
    net, runs = None, 0
    for word in words_up_to(6):
        want, steps = machine.execute(word, 300)
        if want is None:
            continue  # diverging configuration
        net = net or two_stack_to_net(machine)
        res = run(net, word, two_stack_budget(len(word), steps))
        assert (res.verdict, res.ticks) == (
            Verdict.ACCEPT if want else Verdict.REJECT, law_ticks(word, steps)
        ), word
        runs += 1
    return runs


@pytest.mark.parametrize("machine", [anbn_machine, copy_machine])
def test_two_stack_tick_law_on_fixed_machines(machine):
    assert check_tick_law(machine()) == 127


def test_output_state_that_no_rule_names_compiles():
    """An accepting state that no rule enters or leaves, and that is not
    the start, is never active: the net builds no neuron for it and
    decides as the machine does."""
    machine = TwoStackMachine(
        ("S", "X"), AB, (Rule("S", "a", None, None, "S", push1=1),), "S", frozenset({"S", "X"})
    )
    assert "m.X" not in " ".join(two_stack_to_net(machine).neuron_names)
    assert check_tick_law(machine) == 127


@settings(max_examples=25, deadline=None)
@given(two_stack_machines())
def test_two_stack_tick_law_on_random_machines(machine):
    check_tick_law(machine)


def test_compiled_net_sizes_pinned():
    # neurons and nonzero weights (state, input and bias) of each net
    pinned = {
        "anbn": (65, 217),
        "oracle": (110, 355),
        "transmitter": (88, 260),
        "extractor": (66, 191),
        "composed": (154, 451),
        "copy": (73, 252),
    }
    for label, net in compiled_nets().items():
        weights = len(net.state_weights) + len(net.input_weights) + len(net.biases)
        assert (net.n_neurons, weights) == pinned[label], label


def test_no_relay_senses():
    # a unary register pops affinely, so it has no remainder neuron; and a
    # guard on a register's highest digit reads that digit's thermometer
    unary = ("c1", "c2")
    highest = {"wb": 11, "in": 3, "s1": 3, "s2": 3, "x": 3}
    nets = compiled_nets()
    for label, net in nets.items():
        names = {n.removeprefix("2.") for n in net.neuron_names}
        assert not names & {f"{s}.rem" for s in unary}, label
        assert not names & {f"{s}.top{d}" for s, d in highest.items()}, label
    assert "c1.ne" in nets["oracle"].neuron_names


def one_op_program(stack, op):
    return MicroProgram(
        stacks=(stack,),
        rules=(MicroRule("A", (), (op,), "A"),),
        start_state="A",
        symbols=("a",),
        output=OutputSpec(),
    )


def test_stack_op_candidate_weights():
    # pushes land in order, the last on top: x/16 + 1/16 + 3/4 after
    # pushing digit classes 0 then 1 onto a base-4 {1, 3} register
    binary = StackSpec("s", 4, (1, 3))
    net = compile_program(one_op_program(binary, StackOp("s", push=(0, 1))))
    names = net.neuron_names
    cand, reg = names.index("cand0.s"), names.index("s.val")
    assert net.state_weights[(cand, reg)].value == Fraction(1, 16)
    assert net.biases[cand].value == -1 + Fraction(13, 16)
    # a unary register pops m digits affinely: 4**m x - (4**m - 1)/3
    unary = StackSpec("s", 4, (1,))
    net = compile_program(one_op_program(unary, StackOp("s", pops=2)))
    names = net.neuron_names
    cand, reg = names.index("cand0.s"), names.index("s.val")
    assert net.state_weights[(cand, reg)].value == 16
    assert net.biases[cand].value == -1 - 5
    assert "s.rem" not in names


def test_stack_op_rejects_empty_and_multi_pop_ops():
    binary = StackSpec("s", 4, (1, 3))
    with pytest.raises(ConstructionError, match="neither pops nor pushes"):
        compile_program(one_op_program(binary, StackOp("s")))
    with pytest.raises(ConstructionError, match="only a unary stack pops 2"):
        compile_program(one_op_program(binary, StackOp("s", pops=2, push=(1,))))
    # a unary pop past the bottom then a push would not saturate in between
    unary = StackSpec("s", 4, (1,))
    with pytest.raises(ConstructionError, match="cannot pop and push"):
        compile_program(one_op_program(unary, StackOp("s", pops=1, push=(0,))))


def test_compile_program_rejects_bad_stack_references():
    binary = StackSpec("s", 4, (1, 3))
    with pytest.raises(ConstructionError, match="undeclared stack 'zz'"):
        compile_program(one_op_program(binary, StackOp("zz", push=(0,))))
    prog = one_op_program(binary, StackOp("s", push=(0,)))
    with pytest.raises(ConstructionError, match="undeclared stack 'zz'"):
        compile_program(replace(prog, output=OutputSpec(require_empty=("zz",))))
    with pytest.raises(ConstructionError, match="undeclared stack 'zz'"):
        compile_program(replace(prog, oracle=("zz", ExactScalar.from_fraction(Fraction(1, 4)))))
    for op in (StackOp("s", push=(2,)), StackOp("s", push=(-1,))):
        with pytest.raises(ConstructionError, match="has no digit class"):
            compile_program(one_op_program(binary, op))
    # a top guard needs a class: its default of -1 names none
    for guard in (Guard("s", "top", 5), Guard("s", "top")):
        rule = MicroRule("A", (guard,), (StackOp("s", push=(0,)),), "A")
        with pytest.raises(ConstructionError, match="has no digit class"):
            compile_program(replace(prog, rules=(rule,)))


def two_rule_program(guards0, guards1):
    stacks = (StackSpec("s", 4, (1, 3)), StackSpec("t", 4, (1, 3)))
    return MicroProgram(
        stacks=stacks,
        rules=(
            MicroRule("A", guards0, (StackOp("s", push=(0,)),), "A"),
            MicroRule("A", guards1, (StackOp("t", push=(1,)),), "B"),
        ),
        start_state="A",
        symbols=("a",),
        output=OutputSpec(accept_states=frozenset({"B"})),
    )


def test_rules_of_one_state_must_exclude_each_other():
    empty, top0, top1 = Guard("s", "empty"), Guard("s", "top", 0), Guard("s", "top", 1)
    t_empty = Guard("t", "empty")
    for guards0, guards1 in (
        ((), ()),
        ((empty,), ()),
        ((empty,), (empty,)),
        ((top0,), (top0, t_empty)),
        ((empty,), (t_empty,)),
    ):
        with pytest.raises(ConstructionError, match="rules 0 and 1 of state 'A'"):
            compile_program(two_rule_program(guards0, guards1))
    for guards0, guards1 in (
        ((empty,), (top0,)),
        ((top0,), (top1,)),
        ((t_empty, top1), (empty,)),
    ):
        compile_program(two_rule_program(guards0, guards1))
    # rules of different states never compete
    prog = two_rule_program((), ())
    rules = (prog.rules[0], replace(prog.rules[1], state="B"))
    compile_program(replace(prog, rules=rules))
