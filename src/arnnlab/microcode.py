"""Compilation of micro-coded stack programs into exact-weight networks.

The compilers in this package all target the same machinery: a network that
buffers its line input into a base-B "tape" rational, freezes the buffer when
the input ends, and then executes a small rule program over a set of stack
registers, one rule application per ring cycle.  Stacks live in saturated
neurons as base-B rationals whose most significant digit is the top; control
state and rule matching are threshold (signal) neurons.

Phase discipline (ring of RING_LEN phases): senses, guard conditions and pop
remainders are recomputed every tick from the stable stacks; rule guards are
sampled at phase 4, so each rule's guard neuron holds at phase 5; the firing
rule's candidates, the kills of the old stack and state values, the target
state pulse and the halt test (no guard fired) hold at phase 6; and the
writes land entering phase 0 of the next cycle.  Because stacks only change
on the write tick, the continuously recomputed senses are always fresh by
the time guards sample them.  Only stacks that a guard, an op, the output or
the oracle names get a register, and every neuron built is read by another
neuron or is an output.

A rule tests stacks with guards (empty, or a given top digit class) and
writes each stack with at most one op of a single form: pop some digits,
then push some digit classes.  Each rule compiles to one guard neuron and
each op to one candidate neuron.  No rule has priority over another, so the
rules of one state must exclude each other: some stack is empty in one and
has a top digit in the other, or has top digits of different classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ConstructionError
from .exact import ExactScalar
from .network import SAT, SIG, Network

__all__ = [
    "Guard",
    "MicroProgram",
    "MicroRule",
    "NetBuilder",
    "OutputSpec",
    "StackOp",
    "StackSpec",
    "compile_program",
    "input_clock",
    "start_latch",
]

RING_LEN = 7

# Guards are sampled at phase 4 (values exist one tick later), so each
# rule's guard neuron holds at phase 5; candidates, kills, target pulses and
# the halt test hold at 6, and writes land entering phase 0 of the next
# cycle.
_PH_RAW = RING_LEN - 3


class NetBuilder:
    """Incremental sparse network assembly with named neurons.

    Weights and biases stay ``int`` until a ``Fraction`` weight enters, and
    ``build`` makes one scalar per distinct value, shared by every weight
    that has it.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._acts: list[str] = []
        self._biases: dict[int, Union[int, Fraction]] = {}
        self._state_w: dict[tuple[int, int], Union[int, Fraction]] = {}
        self._state_scalars: dict[tuple[int, int], ExactScalar] = {}
        self._input_w: dict[tuple[int, int], Union[int, Fraction]] = {}

    def neuron(self, name: str, act: str = SIG, bias: Union[int, Fraction] = 0) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._acts.append(act)
        if bias:
            self._biases[idx] = bias
        return idx

    def w(self, dst: int, src: int, weight: Union[int, Fraction]) -> None:
        if weight:
            key = (dst, src)
            self._state_w[key] = self._state_w.get(key, 0) + weight

    def w_scalar(self, dst: int, src: int, scalar: ExactScalar) -> None:
        """Attach a weight that must keep its scalar identity (oracle reals)."""
        self._state_scalars[(dst, src)] = scalar

    def win(self, dst: int, column: int, weight: Union[int, Fraction]) -> None:
        if weight:
            key = (dst, column)
            self._input_w[key] = self._input_w.get(key, 0) + weight

    def add_bias(self, dst: int, weight: Union[int, Fraction]) -> None:
        if weight:
            self._biases[dst] = self._biases.get(dst, 0) + weight

    def build(
        self,
        n_inputs: int,
        *,
        out_data: Optional[int],
        out_valid: Optional[int],
        out_flag: Optional[int] = None,
        input_symbols: Optional[Sequence[str]] = None,
    ) -> Network:
        made: dict[Union[int, Fraction], ExactScalar] = {}

        def scalarise(value: Union[int, Fraction]) -> ExactScalar:
            scalar = made.get(value)
            if scalar is None:
                scalar = made[value] = ExactScalar.from_fraction(value)
            return scalar

        state_weights = {k: scalarise(v) for k, v in self._state_w.items() if v}
        state_weights.update(self._state_scalars)
        input_weights = {k: scalarise(v) for k, v in self._input_w.items() if v}
        biases = {k: scalarise(v) for k, v in self._biases.items() if v}
        return Network(
            len(self._names),
            n_inputs,
            state_weights=state_weights,
            input_weights=input_weights,
            biases=biases,
            activations=tuple(self._acts),
            out_data=out_data,
            out_valid=out_valid,
            out_flag=out_flag,
            input_symbols=input_symbols,
            neuron_names=tuple(self._names),
        )


# ---------------------------------------------------------------------------
# Program model


@dataclass(frozen=True)
class StackSpec:
    """Register holding a base-``base`` rational; digits listed ascending.

    Digit value 0, when present, is a skippable filler; all other digit
    values must be odd and pairwise >= 2 apart so threshold tests never land
    on an exact boundary.
    """

    name: str
    base: int
    digit_values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = self.digit_values
        if not vals or tuple(sorted(vals)) != vals:
            raise ConstructionError(f"stack {self.name}: digits must ascend")
        for v in vals:
            if v >= self.base:
                raise ConstructionError(f"stack {self.name}: digit {v} >= base")
            if v != 0 and v % 2 == 0:
                raise ConstructionError(f"stack {self.name}: nonzero digits must be odd")
        for a, b in zip(vals, vals[1:]):
            if b - a < 2:
                raise ConstructionError(f"stack {self.name}: digit gap below 2")

    @property
    def is_unary(self) -> bool:
        return self.digit_values == (1,)


@dataclass(frozen=True)
class Guard:
    """A rule's test of one stack: ``"empty"``, or ``"top"`` digit class.

    On a unary register, ``Guard(s, "top", 0)`` is the nonempty test.
    """

    stack: str
    kind: str  # "empty" | "top"
    digit_class: int = -1


@dataclass(frozen=True)
class StackOp:
    """Pop ``pops`` digits of ``stack``, then push the classes in ``push``.

    The pushed digit classes land in order, so the last one ends on top.
    Only a unary register pops more than one digit at once; it pops
    affinely, so a pop past its bottom leaves it empty (saturating at 0).
    A unary op pops or pushes, not both.
    """

    stack: str
    pops: int = 0
    push: tuple[int, ...] = ()


@dataclass(frozen=True)
class MicroRule:
    state: str
    guards: tuple[Guard, ...]
    ops: tuple[StackOp, ...]
    next_state: str
    emit: bool = False


@dataclass(frozen=True)
class OutputSpec:
    """Emission while control is in ``emit_states``, if any; else a verdict.

    A verdict accepts on halting in an accept state with every
    ``require_empty`` stack empty; emission pulses data per ``emit`` rule.
    """

    accept_states: frozenset = frozenset()
    require_empty: tuple[str, ...] = ()
    flag_states: frozenset = frozenset()
    emit_states: frozenset = frozenset()


@dataclass(frozen=True)
class MicroProgram:
    """A rule program over ``stacks`` plus the input buffer ``wb``.

    Given ``symbols`` the net reads a word one-hot from tick 0; None means
    it reads pulses on one line once validation rises (a net fed by a net).
    """

    stacks: tuple[StackSpec, ...]
    rules: tuple[MicroRule, ...]
    start_state: str
    symbols: Optional[tuple[str, ...]]
    output: OutputSpec
    oracle: Optional[tuple[str, ExactScalar]] = None  # (stack name, weight)


def buffer_stack_spec(name: str, n_classes: int) -> StackSpec:
    """Buffer digits: 0 for a tick with validation low, else 4K+2s+1 for class s."""
    k = n_classes
    return StackSpec(name, 8 * k, (0,) + tuple(4 * k + 2 * s + 1 for s in range(k)))


def buffer_class(digit_class: int) -> int:
    """Index of input symbol class ``s`` within the buffer digit list."""
    return digit_class + 1  # class 0 of the digit list is the filler


# ---------------------------------------------------------------------------
# Compilation


def start_latch(b: NetBuilder, v_col: int) -> int:
    """``started``, which latches once validation column ``v_col`` is high."""
    started = b.neuron("started")
    b.w(started, started, 1)
    b.win(started, v_col, 1)
    return started


def input_clock(b: NetBuilder, v_col: int, started: Optional[int] = None) -> int:
    """End-of-input clock on validation column ``v_col``: ``fresh``.

    ``fresh`` is high on the tick the input ends.  Without ``started`` (see
    :func:`start_latch`) input starts at tick 0, so the first low tick ends
    it; with it, validation must rise and then fall.
    """
    over = b.neuron("over")
    b.w(over, over, 1)
    b.win(over, v_col, -1)
    fresh = b.neuron("fresh")
    b.win(fresh, v_col, -1)
    b.w(fresh, over, -1)
    if started is not None:
        b.w(over, started, 1)
        b.w(fresh, started, 1)
    else:
        b.add_bias(over, 1)
        b.add_bias(fresh, 1)
    return fresh


def compile_program(prog: MicroProgram) -> Network:
    # A word arrives one-hot on k lines; a pulse's class is its line value.
    k = 2 if prog.symbols is None else len(prog.symbols)
    n_lines = 1 if prog.symbols is None else k
    wb_spec = buffer_stack_spec("wb", k)
    all_stacks = (wb_spec,) + prog.stacks
    stacks = {s.name: s for s in all_stacks}
    if len(stacks) != len(all_stacks):
        raise ConstructionError("stack names must be distinct and not 'wb'")
    states: list[str] = []
    for rule in prog.rules:
        for st in (rule.state, rule.next_state):
            if st not in states:
                states.append(st)
    if prog.start_state not in states:
        states.insert(0, prog.start_state)

    b = NetBuilder()
    v_col = n_lines  # validation column

    # Ring of phases.
    phi = [b.neuron(f"phi{j}") for j in range(RING_LEN)]
    for j in range(1, RING_LEN):
        b.w(phi[j], phi[j - 1], 1)

    # Input buffer: one digit per tick (see buffer_stack_spec) until frozen.
    base_b = wb_spec.base
    buf = b.neuron("buf", act=SAT)
    b.w(buf, buf, Fraction(1, base_b))
    if prog.symbols is None:
        b.win(buf, 0, Fraction(2, base_b))
    else:
        for line in range(k):
            b.win(buf, line, Fraction(2 * line, base_b))
    b.win(buf, v_col, Fraction(4 * k + 1, base_b))
    # a pulse input must rise first; a word's input starts at tick 0
    started = start_latch(b, v_col) if prog.symbols is None else None
    fresh = input_clock(b, v_col, started)
    grab = b.neuron("grab", act=SAT, bias=-1)
    b.w(grab, buf, 1)
    b.w(grab, fresh, 1)
    # clear the buffer on the tick grab samples it, so that it stops
    # shifting in filler digits (and growing its denominator) after the freeze
    b.w(buf, fresh, -1)
    sp1 = b.neuron("sp1")
    b.w(sp1, fresh, 1)
    sp2 = b.neuron("sp2")
    b.w(sp2, sp1, 1)
    b.w(phi[0], phi[RING_LEN - 1], 1)
    b.w(phi[0], sp2, 1)

    # Stack registers, built only for the stacks that something reads or
    # writes.
    used = {"wb"} | set(prog.output.require_empty)
    if prog.oracle is not None:
        used.add(prog.oracle[0])
    missing = used - stacks.keys()
    if missing:
        raise ConstructionError(f"output or oracle on undeclared stack {min(missing)!r}")
    guard_keys: list[set[tuple[str, Optional[int]]]] = []  # (stack, top class or None)
    for r_i, rule in enumerate(prog.rules):
        for item in rule.guards + rule.ops:
            if item.stack not in stacks:
                raise ConstructionError(f"rule {r_i} on undeclared stack {item.stack!r}")
            used.add(item.stack)
            if isinstance(item, StackOp):
                classes = item.push
            elif item.kind == "top":
                classes = (item.digit_class,)
            elif item.kind == "empty":
                classes = ()
            else:
                raise ConstructionError(f"unknown guard kind {item.kind!r}")
            n_classes = len(stacks[item.stack].digit_values)
            for digit_class in classes:
                if not 0 <= digit_class < n_classes:
                    raise ConstructionError(
                        f"rule {r_i}: stack {item.stack!r} has no digit class {digit_class}"
                    )
        guard_keys.append(
            {(g.stack, g.digit_class if g.kind == "top" else None) for g in rule.guards}
        )
        # Rules fire without priority, so two rules of one state must never both fire.
        for r_j in range(r_i):
            if prog.rules[r_j].state == rule.state and not any(
                s1 == s2 and t1 != t2 for s1, t1 in guard_keys[r_j] for s2, t2 in guard_keys[r_i]
            ):
                raise ConstructionError(
                    f"rules {r_j} and {r_i} of state {rule.state!r} do not exclude each"
                    " other: no stack is empty in one and topped in the other, or topped"
                    " by different classes"
                )
    reg: dict[str, int] = {}
    for spec in all_stacks:
        if spec.name in used:
            s_idx = b.neuron(f"{spec.name}.val", act=SAT)
            b.w(s_idx, s_idx, 1)
            reg[spec.name] = s_idx
    b.w(reg["wb"], grab, 1)

    # Control states, built only for the states that a rule leaves or an
    # output reads: any other state would be read by its own self-loop only.
    # An output state that no rule names and that is not the start is never
    # entered, so it has no neuron and the outputs read it as 0.
    out = prog.output
    read_states = set(out.accept_states | out.flag_states | out.emit_states)
    read_states.update(rule.state for rule in prog.rules)
    q: dict[str, int] = {}
    for st in states:
        if st in read_states:
            q_idx = b.neuron(f"q.{st}")
            b.w(q_idx, q_idx, 1)
            q[st] = q_idx
    if prog.start_state in q:
        b.w(q[prog.start_state], sp2, 1)
    if prog.oracle is not None:
        stack_name, scalar = prog.oracle
        b.w_scalar(reg[stack_name], sp2, scalar)

    # Senses (continuous, recomputed every tick from the register), each
    # built on first use, so that a stack gets only those that a guard,
    # require_empty or a pop remainder reads.
    senses: dict[str, int] = {}  # by neuron name

    def nonempty(stack: str) -> int:
        name = f"{stack}.ne"
        if name not in senses:
            senses[name] = b.neuron(name)
            b.w(senses[name], reg[stack], 1)
        return senses[name]

    def at_least(stack: str, digit_class: int) -> int:
        """Thermometer: high when the top digit is at least that of a
        positive digit class."""
        spec = stacks[stack]
        d = spec.digit_values[digit_class]
        if d == 1:
            return nonempty(stack)
        name = f"{stack}.ge{d}"
        if name not in senses:
            senses[name] = b.neuron(name, bias=-(d - 1))
            b.w(senses[name], reg[stack], spec.base)
        return senses[name]

    def remainder(stack: str) -> int:
        """The register with its top digit popped."""
        name = f"{stack}.rem"
        if name not in senses:
            spec = stacks[stack]
            r_idx = senses[name] = b.neuron(name, act=SAT)
            b.w(r_idx, reg[stack], spec.base)
            prev = 0
            for ci, d in enumerate(spec.digit_values):
                if d > 0:
                    b.w(r_idx, at_least(stack, ci), -(d - prev))
                    prev = d
        return senses[name]

    def top_cond(stack: str, digit_class: int) -> int:
        """High when the top digit is that of the digit class."""
        vals = stacks[stack].digit_values
        d = vals[digit_class]
        if d > 0 and digit_class == len(vals) - 1:
            # nothing lies above the highest digit: its thermometer says it
            return at_least(stack, digit_class)
        name = f"{stack}.top{d}"
        if name in senses:
            return senses[name]
        c_idx = senses[name] = b.neuron(name)
        if d == 0:
            # Nonempty but below the smallest positive digit, which is
            # the next class up since the digits ascend.
            b.w(c_idx, nonempty(stack), 1)
        else:
            b.w(c_idx, at_least(stack, digit_class), 1)
        b.w(c_idx, at_least(stack, digit_class + 1), -1)
        return c_idx

    # Rules: guards sampled at phase _PH_RAW, so raw is live at phase 5.
    # Only one state is active and its rules exclude each other, so at most
    # one raw fires per cycle.
    raws: list[int] = []
    for r_i, rule in enumerate(prog.rules):
        raw = b.neuron(f"raw{r_i}.{rule.state}")
        positives = 2  # the state indicator and the phase gate
        b.w(raw, q[rule.state], 1)
        b.w(raw, phi[_PH_RAW], 1)
        for guard in rule.guards:
            if guard.kind == "empty":
                b.w(raw, nonempty(guard.stack), -1)
            else:
                b.w(raw, top_cond(guard.stack, guard.digit_class), 1)
                positives += 1
        b.add_bias(raw, -(positives - 1))
        raws.append(raw)

    # Writes: at phase 6 each stack a rule writes gets that rule's candidate
    # and loses its old value through kill; both land entering phase 0.
    # A candidate is its op's value x gated by raw with weight 1 and bias -1.
    # Every x is at most 1, so sigma(x + raw - 1) is x when raw = 1 and 0
    # otherwise; and reg and rem hold still from phase 2 to phase 6, so the
    # x read at phase 5 is the x of the guards' configuration.
    # x is the source scaled by base**-len(push) plus each pushed digit's
    # bias.  The source is reg when nothing is popped, reg's affine image
    # base**m * reg - (base**m - 1)/(base - 1) when a unary register pops m
    # digits, and rem when any other register pops its top digit.  A unary
    # pop past the bottom saturates at 0, which only holds with no push after
    # it, so a unary op may not do both.
    writers: dict[str, list[int]] = {}  # stack -> raw of each rule writing it
    for r_i, rule in enumerate(prog.rules):
        if len({op.stack for op in rule.ops}) != len(rule.ops):
            raise ConstructionError(f"rule {r_i}: at most one op per stack per rule")
        for op in rule.ops:
            spec = stacks[op.stack]
            base = spec.base
            if not op.pops and not op.push:
                raise ConstructionError(
                    f"rule {r_i}: op on {op.stack!r} neither pops nor pushes"
                )
            if op.pops > 1 and not spec.is_unary:
                raise ConstructionError(
                    f"rule {r_i}: only a unary stack pops {op.pops} digits"
                )
            if op.pops and op.push and spec.is_unary:
                raise ConstructionError(
                    f"rule {r_i}: unary stack {op.stack!r} cannot pop and push in one op"
                )
            cand = b.neuron(f"cand{r_i}.{op.stack}", act=SAT, bias=-1)
            b.w(cand, raws[r_i], 1)
            source, weight, bias = reg[op.stack], Fraction(1), Fraction(0)
            if op.pops and spec.is_unary:
                weight = Fraction(base**op.pops)
                bias = -Fraction(base**op.pops - 1, base - 1)
            elif op.pops:
                source = remainder(op.stack)
            for digit_class in op.push:
                weight /= base
                bias = (bias + spec.digit_values[digit_class]) / base
            b.w(cand, source, weight)
            b.add_bias(cand, bias)
            b.w(reg[op.stack], cand, 1)
            writers.setdefault(op.stack, []).append(raws[r_i])

    for stack_name, gates in writers.items():
        kill = b.neuron(f"kill.{stack_name}", act=SAT, bias=-1)
        b.w(kill, reg[stack_name], 1)
        for raw in gates:
            b.w(kill, raw, 1)
        b.w(reg[stack_name], kill, -1)

    # State transitions: the kill of the state a rule leaves and the target
    # pulse of the state it enters both read raw, so they land together.
    for st in states:
        leaving = [raws[r_i] for r_i, rule in enumerate(prog.rules) if rule.state == st]
        if leaving:
            kq = b.neuron(f"kq.{st}")
            for raw in leaving:
                b.w(kq, raw, 1)
            b.w(q[st], kq, -1)
    target_pulse: dict[str, int] = {}
    for r_i, rule in enumerate(prog.rules):
        if rule.next_state not in q:
            continue
        if rule.next_state not in target_pulse:
            target_pulse[rule.next_state] = b.neuron(f"tp.{rule.next_state}")
            b.w(q[rule.next_state], target_pulse[rule.next_state], 1)
        b.w(target_pulse[rule.next_state], raws[r_i], 1)

    # Outputs.
    flag_idx: Optional[int] = None
    if out.flag_states:
        flag_idx = b.neuron("out.flag")
        for st in out.flag_states & q.keys():
            b.w(flag_idx, q[st], 1)
    out_valid = b.neuron("out.valid")
    if out.emit_states:
        for st in out.emit_states & q.keys():
            b.w(out_valid, q[st], 1)
        out_data = b.neuron("out.data")
        for r_i, rule in enumerate(prog.rules):
            if rule.emit:
                b.w(out_data, raws[r_i], 1)
    else:
        # Halting: phase 5 with no guard fired in this cycle's sample.
        out_data = b.neuron("out.data", bias=-1)
        for halt in (out_valid, out_data):
            b.w(halt, phi[RING_LEN - 2], 1)
            for raw in raws:
                b.w(halt, raw, -1)
        for st in out.accept_states & q.keys():
            b.w(out_data, q[st], 1)
        for stack_name in out.require_empty:
            b.w(out_data, nonempty(stack_name), -1)

    return b.build(
        n_lines,
        out_data=out_data,
        out_valid=out_valid,
        out_flag=flag_idx,
        input_symbols=prog.symbols,
    )
