"""Constructive compilers from automata to exact-weight networks.

Three constructions are provided, mirroring the classical equivalences:

* finite automata compile to integer-weight threshold nets that consume one
  symbol per tick;
* deterministic two-stack machines compile to integer/rational-weight nets
  whose stacks live in single neurons as base-4 rationals over digits {1,3},
  with push x -> x/4 + (2b+1)/4 and pop via bit = signal(4x-2),
  remainder = sigma(4x - 2*bit - 1);
* an oracle real o in [0,1) compiles to a net that incrementally builds the
  length-lex index of its input word in a unary counter while the input is
  buffered, then extracts the corresponding digit of o by iterated pops.
  The same behaviour is available as two separate nets (index builder and
  digit extractor) joined by :func:`compose_nets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConstructionError, HorizonExceeded, RunTimeout, ShapeError
from .exact import ExactScalar, ScalarKind, saturated_sigma, signal
from .langcodec import Alphabet, index_of_string
from .microcode import (
    Guard,
    MicroProgram,
    MicroRule,
    NetBuilder,
    OutputSpec,
    RING_LEN,
    StackOp,
    StackSpec,
    buffer_class,
    compile_program,
    input_clock,
    start_latch,
)
from .network import Network, RunResult, Verdict, run

__all__ = [
    "Dfa",
    "OracleNetSpec",
    "Rule",
    "TwoStackMachine",
    "compose_nets",
    "dfa_budget",
    "dfa_to_net",
    "oracle_budget",
    "oracle_consult",
    "oracle_net",
    "oracle_net_parts",
    "composed_oracle_budget",
    "pop_gadget",
    "push_gadget",
    "two_stack_budget",
    "two_stack_to_net",
]


# ---------------------------------------------------------------------------
# Stack gadget algebra (the arithmetic the compiled nets perform)


def push_gadget(x: Fraction, bit: int) -> Fraction:
    """One push step of the Cantor-4 stack neuron."""
    return Fraction(saturated_sigma(Fraction(x) / 4 + Fraction(2 * bit + 1, 4)))


def pop_gadget(x: Fraction) -> tuple[int, Fraction]:
    """One pop step: leading bit and the remaining stack value."""
    x = Fraction(x)
    bit = signal(4 * x - 2)
    remainder = Fraction(saturated_sigma(4 * x - 2 * bit - 1))
    return bit, remainder


# ---------------------------------------------------------------------------
# Finite automata


@dataclass(frozen=True)
class Dfa:
    """Deterministic finite automaton with a total transition map."""

    states: tuple[str, ...]
    alphabet: Alphabet
    transitions: dict[tuple[str, str], str]
    start: str
    accepting: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ConstructionError("duplicate state names")
        if self.start not in state_set:
            raise ConstructionError(f"start state {self.start!r} undeclared")
        for acc in self.accepting:
            if acc not in state_set:
                raise ConstructionError(f"accepting state {acc!r} undeclared")
        for (src, sym), dst in self.transitions.items():
            if src not in state_set or dst not in state_set:
                raise ConstructionError(f"transition {src}->{dst} uses unknown state")
            self.alphabet.rank(sym)
        for state in self.states:
            for sym in self.alphabet:
                if (state, sym) not in self.transitions:
                    raise ConstructionError(
                        f"transition map not total: missing ({state!r}, {sym!r})"
                    )

    def accepts(self, word: str) -> bool:
        state = self.start
        for ch in word:
            self.alphabet.check(ch)
            state = self.transitions[(state, ch)]
        return state in self.accepting


def dfa_to_net(dfa: Dfa) -> Network:
    """Integer-weight threshold net consuming one symbol per tick.

    State is carried one-hot by (state, last symbol) pair neurons: the pair
    for (q, s) fires iff the current symbol is s and some active pair's
    state steps to q under s.  Per-state readout neurons hold the final
    state after the input ends so the verdict can be latched on the first
    quiet tick.
    """
    syms = dfa.alphabet.symbols
    k = len(syms)
    b = NetBuilder()
    v_col = k
    started = start_latch(b, v_col)
    fresh = input_clock(b, v_col)

    pair: dict[tuple[str, str], int] = {}
    for q in dfa.states:
        for s_i, s in enumerate(syms):
            pair[(q, s)] = b.neuron(f"z.{q}.{s}", bias=-1)
    for q in dfa.states:
        for s_i, s in enumerate(syms):
            z = pair[(q, s)]
            b.win(z, s_i, 1)
            for q_prev in dfa.states:
                if dfa.transitions[(q_prev, s)] == q:
                    for s_prev in syms:
                        b.w(z, pair[(q_prev, s_prev)], 1)
            if dfa.transitions[(dfa.start, s)] == q:
                # Bootstrap: before anything started, behave as if in start.
                b.add_bias(z, 1)
                b.w(z, started, -1)

    readout: dict[str, int] = {}
    for q in dfa.states:
        readout[q] = b.neuron(f"s.{q}")
    for q in dfa.states:
        r = readout[q]
        b.w(r, r, 1)
        for s in syms:
            b.w(r, pair[(q, s)], 1)
        for q_other in dfa.states:
            if q_other != q:
                for s in syms:
                    b.w(r, pair[(q_other, s)], -1)
    # The empty word never fires a pair neuron; keep the start readout alive
    # until input begins.
    b.add_bias(readout[dfa.start], 1)
    b.w(readout[dfa.start], started, -1)
    b.win(readout[dfa.start], v_col, -2)

    out_valid = b.neuron("out.valid")
    b.w(out_valid, fresh, 1)
    out_data = b.neuron("out.data", bias=-1)
    b.w(out_data, fresh, 1)
    for q in dfa.accepting:
        b.w(out_data, readout[q], 1)

    return b.build(
        k,
        out_data=out_data,
        out_valid=out_valid,
        input_symbols=syms,
    )


def dfa_budget(word_length: int) -> int:
    """Ticks within which a compiled DFA net always decides."""
    return 4 * (word_length + 2)


# ---------------------------------------------------------------------------
# Two-stack machines


@dataclass(frozen=True)
class Rule:
    """One transition of a two-stack machine.

    ``read`` is an input symbol, or None for an end-of-input rule that only
    applies once the input is exhausted.  ``pop1``/``pop2`` demand and
    remove the given top bit (None leaves the stack alone); ``push1``/
    ``push2`` push a bit after any pop.
    """

    state: str
    read: Optional[str]
    pop1: Optional[int]
    pop2: Optional[int]
    next_state: str
    push1: Optional[int] = None
    push2: Optional[int] = None


def _guards_overlap(a: Rule, b: Rule) -> bool:
    if a.state != b.state or a.read != b.read:
        return False

    def stacks_overlap(x: Optional[int], y: Optional[int]) -> bool:
        return x is None or y is None or x == y

    return stacks_overlap(a.pop1, b.pop1) and stacks_overlap(a.pop2, b.pop2)


@dataclass(frozen=True)
class TwoStackMachine:
    """Deterministic finite control with two binary stacks.

    The machine reads its input left to right; a rule with ``read=None``
    fires only when the input is exhausted (which is when unbounded
    stack-to-stack computation happens).  It halts when no rule applies and
    accepts iff it halted in an accepting state with all input consumed.
    """

    states: tuple[str, ...]
    alphabet: Alphabet
    rules: tuple[Rule, ...]
    start: str
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ConstructionError("duplicate state names")
        if self.start not in state_set:
            raise ConstructionError(f"start state {self.start!r} undeclared")
        for acc in self.accepting:
            if acc not in state_set:
                raise ConstructionError(f"accepting state {acc!r} undeclared")
        for rule in self.rules:
            if rule.state not in state_set or rule.next_state not in state_set:
                raise ConstructionError(f"rule {rule} uses an undeclared state")
            if rule.read is not None:
                self.alphabet.rank(rule.read)
            for bit in (rule.pop1, rule.pop2, rule.push1, rule.push2):
                if bit is not None and bit not in (0, 1):
                    raise ConstructionError("stack symbols are bits")
        for i, a in enumerate(self.rules):
            for b in self.rules[i + 1 :]:
                if _guards_overlap(a, b):
                    raise ConstructionError(
                        f"nondeterministic machine: rules {a} and {b} overlap"
                    )
        # the rules of each state and read, in order: not a field, so the
        # machine's equality, hash and repr stay those of its fields
        guards: dict[str, dict[Optional[str], list[Rule]]] = {q: {} for q in self.states}
        for rule in self.rules:
            guards[rule.state].setdefault(rule.read, []).append(rule)
        object.__setattr__(self, "_guards", guards)

    def execute(self, word: str, max_steps: int) -> tuple[Optional[bool], int]:
        """Direct simulation: (verdict, steps); verdict None = still running.
        Each step takes the first rule, of those of its state and read,
        whose pops match the stack tops."""
        self.alphabet.check(word)
        guards, end = self._guards, len(word)
        state, pos = self.start, 0
        s1: list[int] = []
        s2: list[int] = []
        for step_count in range(max_steps):
            try:
                rules = guards[state][word[pos] if pos < end else None]
            except KeyError:
                rules = ()
            for rule in rules:
                if rule.pop1 is not None and (not s1 or s1[-1] != rule.pop1):
                    continue
                if rule.pop2 is not None and (not s2 or s2[-1] != rule.pop2):
                    continue
                break
            else:
                return state in self.accepting and pos == end, step_count
            if rule.read is not None:
                pos += 1
            if rule.pop1 is not None:
                s1.pop()
            if rule.pop2 is not None:
                s2.pop()
            if rule.push1 is not None:
                s1.append(rule.push1)
            if rule.push2 is not None:
                s2.append(rule.push2)
            state = rule.next_state
        return None, max_steps

    def accepts(self, word: str, max_steps: int = 10_000) -> bool:
        verdict, _ = self.execute(word, max_steps)
        if verdict is None:
            raise ConstructionError(f"machine did not halt within {max_steps} steps")
        return verdict


def _word_net(
    alphabet: Alphabet,
    stacks: tuple[StackSpec, ...],
    rules: list[MicroRule],
    first_state: str,
    output: OutputSpec,
    oracle: Optional[tuple[str, ExactScalar]] = None,
) -> Network:
    """Compile a program that reads a word over ``alphabet``.

    The frozen buffer holds the last symbol on top, so state ``REV`` drains
    it onto stack ``in``, dropping fillers, to put the first symbol on top;
    then control passes to ``first_state``.
    """
    k = len(alphabet)
    drain = [
        MicroRule(
            "REV",
            (Guard("wb", "top", buffer_class(s)),),
            (StackOp("wb", pops=1), StackOp("in", push=(s,))),
            "REV",
        )
        for s in range(k)
    ]
    drain.append(
        MicroRule("REV", (Guard("wb", "top", 0),), (StackOp("wb", pops=1),), "REV")
    )
    drain.append(MicroRule("REV", (Guard("wb", "empty"),), (), first_state))
    prog = MicroProgram(
        stacks=(StackSpec("in", 4 * k, tuple(2 * s + 1 for s in range(k))),) + stacks,
        rules=tuple(drain + rules),
        start_state="REV",
        symbols=alphabet.symbols,
        output=output,
        oracle=oracle,
    )
    return compile_program(prog)


def two_stack_to_net(machine: TwoStackMachine) -> Network:
    """Compile a deterministic two-stack machine to a rational-weight net.

    The input is buffered while it arrives, reversed onto an internal input
    stack, and then consumed by the rule program at one rule per ring cycle.
    """
    rules: list[MicroRule] = []
    for rule in machine.rules:
        guards: list[Guard] = []
        ops: list[StackOp] = []
        if rule.read is None:
            guards.append(Guard("in", "empty"))
        else:
            guards.append(Guard("in", "top", machine.alphabet.rank(rule.read)))
            ops.append(StackOp("in", pops=1))
        for stack, pop, push in (("s1", rule.pop1, rule.push1), ("s2", rule.pop2, rule.push2)):
            if pop is not None:
                guards.append(Guard(stack, "top", pop))
            if pop is not None or push is not None:
                ops.append(
                    StackOp(stack, int(pop is not None), () if push is None else (push,))
                )
        rules.append(
            MicroRule(
                f"m.{rule.state}",
                tuple(guards),
                tuple(ops),
                f"m.{rule.next_state}",
            )
        )
    return _word_net(
        machine.alphabet,
        (StackSpec("s1", 4, (1, 3)), StackSpec("s2", 4, (1, 3))),
        rules,
        f"m.{machine.start}",
        OutputSpec(
            accept_states=frozenset(f"m.{q}" for q in machine.accepting),
            require_empty=("in",),
        ),
    )


def two_stack_budget(word_length: int, machine_steps: int) -> int:
    """Ticks within which a compiled two-stack net reaches its verdict."""
    cycles = (word_length + 3) + (machine_steps + 2)
    return RING_LEN * cycles + word_length + 24


# ---------------------------------------------------------------------------
# Oracle-consulting nets


@dataclass(frozen=True)
class OracleNetSpec:
    """What to build an oracle-consulting net from.

    The oracle real must be an oracle- or stream-backed scalar whose digit
    stream is a Cantor-4 packed characteristic sequence; the net consults
    digit index_of_string(w) of it, the length-lex index of w.
    """

    oracle_real: ExactScalar
    alphabet: Alphabet

    def __post_init__(self) -> None:
        if self.oracle_real.kind not in (ScalarKind.ORACLE, ScalarKind.STREAM):
            raise ConstructionError("oracle real must be a Stream or Oracle scalar")
        stream = self.oracle_real.stream
        if stream.base != 4:
            raise ConstructionError(
                "oracle real must be a base-4 expansion: threshold gadgets "
                "cannot tell a binary 0 digit from the end of the table; "
                "pack the table with cantor4"
            )
        if stream.horizon is None:
            raise ConstructionError(
                "oracle real needs a finite horizon to embed as a weight; "
                "build it with UnitReal.from_digits(real.prefix(n))"
            )


def _index_rules(k: int, after_state: str) -> list[MicroRule]:
    """Unary length-lex index maintenance: i <- k*i + rank + 2 - k per symbol.

    The counter ping-pongs between c1 and c2: doubling transfers each unit
    of c1 into k units of c2, the per-symbol offset adjusts c2, and the move
    loop returns the total to c1 before the next symbol.
    """
    rules = [
        MicroRule("IDX", (), (StackOp("c1", push=(0,)),), "RD"),
    ]
    for s in range(k):
        rules.append(
            MicroRule(
                "RD",
                (Guard("in", "top", s),),
                (StackOp("in", pops=1),),
                f"DBL{s}",
            )
        )
    rules.append(MicroRule("RD", (Guard("in", "empty"),), (), after_state))
    for s in range(k):
        rules.append(
            MicroRule(
                f"DBL{s}",
                (Guard("c1", "top", 0),),
                (StackOp("c1", pops=1), StackOp("c2", push=(0,) * k)),
                f"DBL{s}",
            )
        )
        offset = s + 2 - k
        adjust = (StackOp("c2", max(-offset, 0), (0,) * max(offset, 0)),) if offset else ()
        rules.append(MicroRule(f"DBL{s}", (Guard("c1", "empty"),), adjust, "MV"))
    rules.append(
        MicroRule(
            "MV",
            (Guard("c2", "top", 0),),
            (StackOp("c2", pops=1), StackOp("c1", push=(0,))),
            "MV",
        )
    )
    rules.append(MicroRule("MV", (Guard("c2", "empty"),), (), "RD"))
    return rules


def _extract_rules() -> list[MicroRule]:
    """Pop the oracle once per counter unit beyond the first, then answer."""
    return [
        MicroRule("EX1", (Guard("c1", "top", 0),), (StackOp("c1", pops=1),), "EX2"),
        MicroRule("EX2", (Guard("c1", "top", 0),), (StackOp("x", pops=1),), "EX1"),
        MicroRule("EX2", (Guard("c1", "empty"),), (), "ANS"),
        MicroRule("ANS", (Guard("x", "top", 1),), (), "ACC"),
        MicroRule("ANS", (Guard("x", "top", 0),), (), "REJ"),
        MicroRule("ANS", (Guard("x", "empty"),), (), "HZN"),
    ]


_ORACLE_OUTPUT = OutputSpec(
    accept_states=frozenset({"ACC"}), flag_states=frozenset({"HZN"})
)


def oracle_net(spec: OracleNetSpec) -> Network:
    """Monolithic oracle-consulting net (index builder and extractor fused).

    The verdict is the consulted digit; if the index runs past the oracle's
    truncation the net rejects with the flag line raised.
    """
    return _word_net(
        spec.alphabet,
        (StackSpec("c1", 4, (1,)), StackSpec("c2", 4, (1,)), StackSpec("x", 4, (1, 3))),
        _index_rules(len(spec.alphabet), "EX1") + _extract_rules(),
        "IDX",
        _ORACLE_OUTPUT,
        oracle=("x", spec.oracle_real),
    )


def oracle_net_parts(spec: OracleNetSpec) -> tuple[Network, Network, dict[int, str]]:
    """The same behaviour as two nets: index transmitter and digit extractor.

    The first net emits the computed index as that many pulses on its data
    line while its validation output is high; the second counts the pulses
    and extracts that digit of the oracle.  Compose with
    ``compose_nets(first, second, handoff)``.
    """
    n_rules = _index_rules(len(spec.alphabet), "EMIT")
    n_rules.append(
        MicroRule(
            "EMIT", (Guard("c1", "top", 0),), (StackOp("c1", pops=1),), "EMIT", emit=True
        )
    )
    n_rules.append(MicroRule("EMIT", (Guard("c1", "empty"),), (), "DONE"))
    n_net = _word_net(
        spec.alphabet,
        (StackSpec("c1", 4, (1,)), StackSpec("c2", 4, (1,))),
        n_rules,
        "IDX",
        OutputSpec(emit_states=frozenset({"EMIT"})),
    )

    # The extractor counts the class-1 ticks (data pulses) in its buffer.
    o_rules = [
        MicroRule(
            "CNT",
            (Guard("wb", "top", buffer_class(1)),),
            (StackOp("wb", pops=1), StackOp("c1", push=(0,))),
            "CNT",
        ),
        MicroRule(
            "CNT", (Guard("wb", "top", buffer_class(0)),), (StackOp("wb", pops=1),), "CNT"
        ),
        MicroRule("CNT", (Guard("wb", "top", 0),), (StackOp("wb", pops=1),), "CNT"),
        MicroRule("CNT", (Guard("wb", "empty"),), (), "EX1"),
    ]
    o_rules += _extract_rules()
    o_prog = MicroProgram(
        stacks=(StackSpec("c1", 4, (1,)), StackSpec("x", 4, (1, 3))),
        rules=tuple(o_rules),
        start_state="CNT",
        symbols=None,
        output=_ORACLE_OUTPUT,
        oracle=("x", spec.oracle_real),
    )
    return n_net, compile_program(o_prog), {0: "data"}


def oracle_budget(word: str, alphabet: Alphabet) -> int:
    """Ticks within which the monolithic oracle net decides on ``word``."""
    k = len(alphabet)
    index = index_of_string(word, alphabet)
    cycles = 4 * len(word) + (k + 2) * index * 2 + 24
    return RING_LEN * cycles + len(word) + 24


def composed_oracle_budget(word: str, alphabet: Alphabet) -> int:
    """Ticks for the composed (transmitter + extractor) oracle pair.

    The extractor's buffer only starts filling when the transmitter raises
    its validation output, so its workload is the emission window plus the
    pulse count, not the transmitter's whole runtime.
    """
    index = index_of_string(word, alphabet)
    transmit = oracle_budget(word, alphabet) + RING_LEN * (index + 4)
    count = RING_LEN * (9 * index + 48)
    return transmit + count + 32


def oracle_consult(
    net: Network, word: str, budget: int
) -> tuple[int, RunResult]:
    """Run any net on ``word`` and return its verdict as a bit, 1 = accept.

    Raises :class:`RunTimeout` when no verdict comes within ``budget``
    ticks, and :class:`HorizonExceeded` when the net raises its flag output,
    which an oracle net does when the word's index lies beyond the oracle's
    truncation.
    """
    result = run(net, word, budget)
    if result.verdict == Verdict.TIMEOUT:
        raise RunTimeout(f"net timed out on {word!r}: no verdict within {budget} ticks")
    if result.flagged:
        raise HorizonExceeded(
            f"net flagged {word!r} as beyond its oracle's horizon"
        )
    return (1 if result.verdict == Verdict.ACCEPT else 0), result


# ---------------------------------------------------------------------------
# Composition


def compose_nets(first: Network, second: Network, handoff: dict[int, str]) -> Network:
    """Feed the second net's input lines from the first net's output neurons.

    ``handoff`` (required; ``oracle_net_parts`` returns one) maps each of the
    second net's data lines to "data", "valid", or "flag" outputs of the
    first; the second's validation line is always driven by the first's
    output validation.  The combined net keeps the first's input lines and
    the second's outputs.
    """
    source_of = {
        "data": first.out_data,
        "valid": first.out_valid,
        "flag": first.out_flag,
    }
    for line in range(second.n_inputs):
        if line not in handoff:
            raise ShapeError(f"second net line {line} is not mapped")
    for line, name in handoff.items():
        if line not in range(second.n_inputs):
            raise ShapeError(
                f"handoff key {line!r} is not one of the second net's "
                f"{second.n_inputs} data lines"
            )
        if name not in source_of:
            raise ShapeError(
                f"handoff of line {line} is {name!r}, not 'data', 'valid' or 'flag'"
            )
    offset = first.n_neurons
    state_weights = dict(first.state_weights)
    input_weights = dict(first.input_weights)
    biases = dict(first.biases)
    for (i, j), scalar in second.state_weights.items():
        state_weights[(i + offset, j + offset)] = scalar
    for i, scalar in second.biases.items():
        biases[i + offset] = scalar
    for (i, j), scalar in second.input_weights.items():
        # the second net's validation column is fed by the first's out_valid
        name = "valid" if j == second.n_inputs else handoff[j]
        src = source_of.get(name)
        if src is None:
            raise ShapeError(f"first net has no {name!r} output to hand off")
        key = (i + offset, src)
        if key in state_weights:
            # only rationals merge: a sum would drop a stream's or an
            # oracle's degree label, and with it the net's place in the
            # hierarchy
            prior = state_weights[key]
            if {prior.kind, scalar.kind} - {ScalarKind.INTEGER, ScalarKind.RATIONAL}:
                raise ConstructionError(
                    f"handoff weight {key} collides with a weight that is not rational"
                )
            state_weights[key] = ExactScalar.from_fraction(prior.value + scalar.value)
        else:
            state_weights[key] = scalar
    names = None
    if first.neuron_names and second.neuron_names:
        names = tuple(first.neuron_names) + tuple(
            f"2.{n}" for n in second.neuron_names
        )
    return Network(
        first.n_neurons + second.n_neurons,
        first.n_inputs,
        state_weights=state_weights,
        input_weights=input_weights,
        biases=biases,
        activations=tuple(first.activations) + tuple(second.activations),
        out_data=second.out_data + offset if second.out_data is not None else None,
        out_valid=second.out_valid + offset if second.out_valid is not None else None,
        out_flag=second.out_flag + offset if second.out_flag is not None else None,
        input_symbols=first.input_symbols,
        neuron_names=names,
    )
