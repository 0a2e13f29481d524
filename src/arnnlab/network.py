"""The analog recurrent network and its synchronous dynamics.

A network is a finite set of neurons with exact-scalar state weights a[i][j],
input-line weights b[i][j], and biases c[i]; every neuron updates at once::

    x_i(t+1) = act_i( sum_j a_ij x_j(t) + sum_j b_ij u_j(t) + c_i )

where act_i is the saturated-linear clamp or the binary signal function.
Words are presented one symbol per tick, one-hot on the M data lines, with a
shared validation line (input column M) held at 1 exactly while symbols are
present.  The verdict is read from the output data line on the first tick the
output validation line is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Optional, Sequence, Union

from .errors import ConfigError, ShapeError, UnknownSign
from .exact import (
    ExactScalar,
    Interval,
    PrecisionBudget,
    affine_combine,
    saturated_sigma,
    signal,
)

__all__ = [
    "IOTrace",
    "Network",
    "NetworkState",
    "RecognitionReport",
    "RunResult",
    "TickRecord",
    "Verdict",
    "recognizes",
    "run",
    "step",
    "zero_state",
]

SAT = "sat"
SIG = "sig"


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    TIMEOUT = "timeout"


class Network:
    """ARNN with N neurons and M data lines (+ implicit validation line).

    Weights are sparse maps; omitted entries are zero.  Input weight columns
    run 0..M where column M is the validation line.  ``input_symbols``, when
    given, names the symbol carried one-hot by each data line so that words
    can be run directly.

    A network is read-only once built, weight and bias maps included, so
    the sparse adjacency that exact and lazy nets alike step over, and the
    answer of :meth:`is_exact`, are built once per net and cannot go stale.
    To change a weight, build a new ``Network`` or use
    :meth:`replace_state_weight`.
    """

    def __init__(
        self,
        n_neurons: int,
        n_inputs: int,
        *,
        state_weights: Optional[dict[tuple[int, int], ExactScalar]] = None,
        input_weights: Optional[dict[tuple[int, int], ExactScalar]] = None,
        biases: Optional[dict[int, ExactScalar]] = None,
        activations: Optional[Sequence[str]] = None,
        out_data: Optional[int] = None,
        out_valid: Optional[int] = None,
        out_flag: Optional[int] = None,
        input_symbols: Optional[Sequence[str]] = None,
        neuron_names: Optional[Sequence[str]] = None,
    ) -> None:
        if n_neurons < 1:
            raise ShapeError("a network needs at least one neuron")
        if n_inputs < 0:
            raise ShapeError("n_inputs must be nonnegative")
        self.n_neurons = n_neurons
        self.n_inputs = n_inputs
        self.state_weights = MappingProxyType(dict(state_weights or {}))
        self.input_weights = MappingProxyType(dict(input_weights or {}))
        self.biases = MappingProxyType(dict(biases or {}))
        if activations is None:
            activations = (SAT,) * n_neurons
        self.activations = tuple(activations)
        if len(self.activations) != n_neurons:
            raise ShapeError("one activation per neuron required")
        for act in self.activations:
            if act not in (SAT, SIG):
                raise ShapeError(f"unknown activation {act!r}")
        for (i, j) in self.state_weights:
            if not (0 <= i < n_neurons and 0 <= j < n_neurons):
                raise ShapeError(f"state weight ({i},{j}) out of range")
        for (i, j) in self.input_weights:
            if not (0 <= i < n_neurons and 0 <= j <= n_inputs):
                raise ShapeError(f"input weight ({i},{j}) out of range")
        for i in self.biases:
            if not 0 <= i < n_neurons:
                raise ShapeError(f"bias index {i} out of range")
        for name, idx in (("out_data", out_data), ("out_valid", out_valid), ("out_flag", out_flag)):
            if idx is not None and not 0 <= idx < n_neurons:
                raise ShapeError(f"{name} index {idx} out of range")
        self.out_data = out_data
        self.out_valid = out_valid
        self.out_flag = out_flag
        self.input_symbols = tuple(input_symbols) if input_symbols is not None else None
        if self.input_symbols is not None and len(self.input_symbols) != n_inputs:
            raise ShapeError("one symbol per data line required")
        self.neuron_names = tuple(neuron_names) if neuron_names is not None else None
        if self.neuron_names is not None and len(self.neuron_names) != n_neurons:
            raise ShapeError("one name per neuron required")
        self._compiled = None

    def __setattr__(self, name: str, value: object) -> None:
        # set once in __init__: the caches kept on the net cannot go stale
        if "_compiled" in self.__dict__:
            raise AttributeError(f"a Network is read-only; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def scalars(self) -> Iterable[ExactScalar]:
        yield from self.state_weights.values()
        yield from self.input_weights.values()
        yield from self.biases.values()

    def is_exact(self) -> bool:
        """True when every scalar denotes a single known rational."""
        return _compiled(self).exact

    def replace_state_weight(self, i: int, j: int, scalar: ExactScalar) -> "Network":
        """Copy of the network with one state weight substituted."""
        weights = dict(self.state_weights)
        weights[(i, j)] = scalar
        return Network(
            self.n_neurons,
            self.n_inputs,
            state_weights=weights,
            input_weights=self.input_weights,
            biases=self.biases,
            activations=self.activations,
            out_data=self.out_data,
            out_valid=self.out_valid,
            out_flag=self.out_flag,
            input_symbols=self.input_symbols,
            neuron_names=self.neuron_names,
        )

    def line_for_symbol(self, symbol: str) -> int:
        if self.input_symbols is None:
            raise ConfigError("network declares no input symbols")
        try:
            return self.input_symbols.index(symbol)
        except ValueError:
            raise ConfigError(
                f"symbol {symbol!r} not among input symbols {self.input_symbols}"
            )


Value = Union[int, Fraction, Interval]

#: A network state: one value per neuron, each confined to [0, 1] (or an
#: interval enclosure of such a value when lazy scalars are involved).
NetworkState = tuple[Value, ...]


def zero_state(net: Network) -> NetworkState:
    return (0,) * net.n_neurons


def step(
    net: Network,
    state: Sequence[Value],
    inputs: Sequence[int] = (),
    validation: int = 0,
    budget: Optional[PrecisionBudget] = None,
) -> tuple[Value, ...]:
    """One synchronous update; exact for integer/rational scalars.

    An exact net with an all-rational state steps on the integer kernel,
    ``_fast_step``.  With lazy scalars, or interval components in the
    state, a precision budget is required and state components may become
    interval enclosures; an undecidable signal activation raises
    ``UnknownSign`` naming the neuron.
    """
    if len(state) != net.n_neurons:
        raise ShapeError(f"state has {len(state)} components, expected {net.n_neurons}")
    if len(inputs) != net.n_inputs:
        raise ShapeError(f"{len(inputs)} inputs given, expected {net.n_inputs}")
    if any(u not in (0, 1) for u in (*inputs, validation)):
        raise ShapeError("input and validation lines carry bits, 0 or 1")
    cn = _compiled(net)
    if cn.exact and all(isinstance(x, (int, Fraction)) for x in state):
        return tuple(_fast_step(cn, state, inputs, validation))
    # Push each live source and line along its out-edges, so that only the
    # neurons they or a live bias reach are evaluated; every other neuron is
    # 0.  A source counts as zero only when affine_combine drops it too (an
    # int or Fraction 0), so each evaluated neuron gets the same lazy terms,
    # and so the same precision share per term, as in a dense sweep.
    terms: dict[int, tuple[list, list]] = {i: ([], []) for i in cn.live_biases}

    def scalar(w: Union[int, ExactScalar]) -> Union[Fraction, ExactScalar]:
        return Fraction(w, cn.d) if isinstance(w, int) else w

    def push(edges, value) -> None:
        for i, w in edges:
            pair = terms.get(i)
            if pair is None:
                pair = terms[i] = ([], [])
            pair[0].append(scalar(w))
            pair[1].append(value)

    for j, x in enumerate(state):
        if not (isinstance(x, (int, Fraction)) and x == 0):
            push(cn.state_edges[j], x)
    for j, uj in enumerate([*map(int, inputs), int(validation)]):
        if uj:
            push(cn.input_edges[j], uj)
    new_state: list[Value] = [0] * net.n_neurons
    for i in sorted(terms):
        weights, values = terms[i]
        acc = affine_combine(weights, values, bias=scalar(cn.biases[i]), budget=budget)
        try:
            if net.activations[i] == SIG:
                new_state[i] = signal(acc, budget)
            else:
                new_state[i] = saturated_sigma(acc, budget)
        except UnknownSign as exc:
            raise UnknownSign(f"neuron {i}: {exc}") from exc
    return tuple(new_state)


# ---------------------------------------------------------------------------
# Compiled adjacency and the exact integer kernel (push-based sparse propagation)


class _CompiledNet:
    """Per-network sparse adjacency, built once and kept on the frozen net.

    ``state_edges[j]`` and ``input_edges[j]`` list the ``(i, w)`` edges out
    of neuron j and input line j, and ``biases[i]`` is neuron i's bias.  An
    exact scalar is kept as its integer numerator over ``d``, the lcm of all
    exact denominators, and a lazy one as its ``ExactScalar``; zero weights
    are dropped.  So on an exact net one tick of ``_fast_step`` is integer
    arithmetic only, and ``step`` walks the same table on a lazy net,
    passing each integer ``w`` on as ``w / d``.

    ``unit_memo`` caches the half of an exact tick that does not depend on
    the shared denominator.  Its key is the tuple of sources at exactly 1,
    in the state's iteration order, with the input bits and the validation
    bit; its value maps each neuron those sources, the active lines or a
    positive bias reach to its bias plus their weights, over ``d``.  The
    net is read-only, so an entry never goes stale; the memo is emptied
    whole when it reaches ``_UNIT_MEMO_CAP`` entries.
    """

    def __init__(self, net: Network) -> None:
        n = net.n_neurons
        self.n = n
        parts = []
        for weights in (net.state_weights, net.input_weights, net.biases):
            part = []  # (key, scalar, (num, den) or None for a lazy scalar)
            for key, scalar in weights.items():
                frac = scalar.exact_fraction()
                if frac is None:
                    part.append((key, scalar, None))
                elif frac:  # zero weights are dropped
                    part.append((key, scalar, frac.as_integer_ratio()))
            parts.append(part)
        state_w, input_w, bias_w = parts
        self.exact = all(r is not None for part in parts for *_, r in part)
        d = lcm(*{r[1] for part in parts for *_, r in part if r is not None})
        self.d = d

        def table(weights: list, n_sources: int) -> list[list[tuple]]:
            edges: list[list[tuple]] = [[] for _ in range(n_sources)]
            for (i, j), scalar, r in weights:
                edges[j].append((i, scalar if r is None else r[0] * (d // r[1])))
            return edges

        self.state_edges = table(state_w, n)
        self.input_edges = table(input_w, net.n_inputs + 1)
        self.biases: list[Union[int, ExactScalar]] = [0] * n
        for i, scalar, r in bias_w:
            self.biases[i] = scalar if r is None else r[0] * (d // r[1])
        # A neuron whose only term is an exact bias <= 0 stays at 0 under
        # either activation, so only positive and lazy biases are live.
        self.live_biases = [
            i for i, c in enumerate(self.biases) if not isinstance(c, int) or c > 0
        ]
        # neurons that are positive with no input at all, with their bias
        self.raised = {
            i: c for i, c in enumerate(self.biases) if isinstance(c, int) and c > 0
        }
        self.sat_mask = [act == SAT for act in net.activations]
        # the smallest integer sum (over d) that sets a neuron to 1
        self.ceil = [d if act == SAT else 1 for act in net.activations]
        self.unit_memo: dict[tuple, dict[int, int]] = {}


#: Entries at which a net's unit memo is emptied whole; in one cycle of the
#: benchmark's workloads, no net meets more than 545 distinct keys.
_UNIT_MEMO_CAP = 4096


def _compiled(net: Network) -> _CompiledNet:
    if net._compiled is None:
        object.__setattr__(net, "_compiled", _CompiledNet(net))
    return net._compiled


class _IntState:
    """An exact state as integer numerators over one shared denominator.

    ``nz`` maps each nonzero neuron j to its numerator, so neuron j holds
    ``nz.get(j, 0) / den``; ``_fast_step`` keeps only positive numerators.
    Iteration gives the values themselves (0, 1 or a ``Fraction``).
    """

    __slots__ = ("n", "nz", "den")

    def __init__(self, n: int, nz: dict[int, int], den: int) -> None:
        self.n = n
        self.nz = nz
        self.den = den

    @classmethod
    def of(cls, values: Sequence[Value]) -> "_IntState":
        fracs = [Fraction(x) for x in values]
        den = lcm(*(f.denominator for f in fracs))
        nz = {j: f.numerator * (den // f.denominator) for j, f in enumerate(fracs) if f}
        return cls(len(fracs), nz, den)

    def _value(self, x: int) -> Union[int, Fraction]:
        if x == 0:
            return 0
        if x == self.den:
            return 1
        return Fraction(x, self.den)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        nz = self.nz
        return (self._value(nz.get(j, 0)) for j in range(self.n))


def _fast_step(
    cn: _CompiledNet, state: Sequence[Value], inputs: Sequence[int], validation: int
) -> _IntState:
    """One exact tick of a compiled net, in integers.

    With the state at ``X_j / den`` and weights ``W / d``, neuron i's sum is
    ``(sum_j W_ij X_j + (C_i + inputs_i) * den) / (d * den)``; the clamp
    compares it with the new denominator ``d * den``, and their gcd is
    divided out afterwards.  Only nonzero sources are visited.  Sources at
    1, the input lines and the biases add integers that do not depend on
    ``den``; their sums are looked up in ``cn.unit_memo`` by which sources
    are at 1, and computed only on a miss.  Fractional sources add ``W·X``.
    """
    if not cn.exact:
        raise ValueError("network contains a lazily-known scalar")
    if not isinstance(state, _IntState):
        state = _IntState.of(state)
    den = state.den
    units = []
    fracs = []
    for j, x in state.nz.items():
        if x == den:
            units.append(j)
        else:
            fracs.append((j, x))
    key = (tuple(units), tuple(inputs), validation)
    memo = cn.unit_memo
    fixed = memo.get(key)  # bias plus unit sums, numerators over d
    bias, out = cn.biases, cn.state_edges
    if fixed is None:
        fixed = cn.raised.copy()
        for j in units:
            for i, w in out[j]:
                fixed[i] = fixed.get(i, bias[i]) + w
        for j, uj in enumerate(inputs):
            if uj:
                for i, w in cn.input_edges[j]:
                    fixed[i] = fixed.get(i, bias[i]) + w
        if validation:
            for i, w in cn.input_edges[-1]:
                fixed[i] = fixed.get(i, bias[i]) + w
        if len(memo) >= _UNIT_MEMO_CAP:
            memo.clear()
        memo[key] = fixed
    frac = {}  # numerators over d * den from fractional sources
    for j, x in fracs:
        for i, w in out[j]:
            frac[i] = frac.get(i, 0) + w * x
    ceil, sat = cn.ceil, cn.sat_mask
    top = cn.d * den
    new = {}
    for i, f in frac.items():
        a = f + fixed.get(i, bias[i]) * den
        if a > 0:
            new[i] = top if a >= top or not sat[i] else a
    for i, u in fixed.items():
        if u > 0 and i not in frac:
            new[i] = top if u >= ceil[i] else u * den
    g = gcd(top, *new.values())
    if g > 1:
        new = {i: x // g for i, x in new.items()}
        top //= g
    return _IntState(cn.n, new, top)


# ---------------------------------------------------------------------------
# Word protocol


@dataclass(frozen=True)
class TickRecord:
    """I/O lines observed across one tick."""

    inputs: tuple[int, ...]
    validation: int
    out_data: int
    out_valid: int
    out_flag: Optional[int] = None


IOTrace = tuple[TickRecord, ...]


@dataclass(frozen=True)
class RunResult:
    verdict: Verdict
    trace: IOTrace
    ticks: int
    decided_at: Optional[int] = None
    flagged: bool = False


def _out_bit(value: Value) -> int:
    if isinstance(value, Interval):
        return signal(value)
    return 1 if value > 0 else 0


#: How far ``run`` refines lazy scalars before a sign counts as undecidable.
_LAZY_BUDGET = PrecisionBudget(max_digits=128, on_exhaustion="fail")


def run(
    net: Network,
    word: str,
    budget: int,
    *,
    record_trace: bool = True,
) -> RunResult:
    """Present a word and poll the output lines for a verdict.

    The word's symbols are shown one per tick, one-hot on the data lines with
    validation 1, then all lines drop to 0.  The verdict is latched from the
    output data line on the first tick the output validation line is 1;
    ``Verdict.TIMEOUT`` is returned if the tick budget runs out first.
    """
    if net.out_data is None or net.out_valid is None:
        raise ConfigError("network has no designated output lines")
    if budget < len(word) + 1:
        raise ConfigError(
            f"budget {budget} is too small for a {len(word)}-symbol word"
        )
    lines = [net.line_for_symbol(ch) for ch in word] if word else []

    cn = _compiled(net)
    if cn.exact:
        state: Sequence[Value] = _IntState(net.n_neurons, {}, 1)
    else:
        state = zero_state(net)

    records: list[TickRecord] = []
    m = net.n_inputs
    onehot = [tuple(1 if j == k else 0 for j in range(m)) for k in range(m)]
    shown = [onehot[k] for k in lines]
    zeros = (0,) * m
    data, valid, flag = net.out_data, net.out_valid, net.out_flag
    for t in range(budget):
        if t < len(shown):
            inputs = shown[t]
            validation = 1
        else:
            inputs = zeros
            validation = 0
        if cn.exact:
            # every numerator kept in nz is positive, so a bit is membership
            state = _fast_step(cn, state, inputs, validation)
            nz = state.nz
            data_bit = 1 if data in nz else 0
            valid_bit = 1 if valid in nz else 0
            flag_bit = (1 if flag in nz else 0) if flag is not None else None
        else:
            state = step(net, state, inputs, validation, budget=_LAZY_BUDGET)
            data_bit = _out_bit(state[data])
            valid_bit = _out_bit(state[valid])
            flag_bit = _out_bit(state[flag]) if flag is not None else None
        if record_trace:
            records.append(
                TickRecord(inputs, validation, data_bit, valid_bit, flag_bit)
            )
        if valid_bit:
            verdict = Verdict.ACCEPT if data_bit else Verdict.REJECT
            return RunResult(
                verdict,
                tuple(records),
                ticks=t + 1,
                decided_at=t + 1,
                flagged=bool(flag_bit),
            )
    return RunResult(Verdict.TIMEOUT, tuple(records), ticks=budget)


@dataclass(frozen=True)
class RecognitionReport:
    """Agreement tabulation between a network and a labeled sample."""

    total: int
    agreements: int
    disagreements: tuple[tuple[str, int, Verdict], ...]
    timeouts: tuple[str, ...]

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.total and not self.timeouts

    def __str__(self) -> str:
        base = f"{self.agreements}/{self.total} agree"
        if self.timeouts:
            base += f", {len(self.timeouts)} timeouts"
        return base


def recognizes(
    net: Network,
    language_sample: Iterable[tuple[str, int]],
    budget: Union[int, "callable"],
) -> RecognitionReport:
    """Run each sample word and tabulate agreement with the expected bits.

    ``budget`` may be a tick count or a function of the word.  A budget too
    small to even present a word counts as a timeout for that word.
    """
    total = 0
    agreements = 0
    disagreements: list[tuple[str, int, Verdict]] = []
    timeouts: list[str] = []
    for word, expected in language_sample:
        total += 1
        ticks = budget(word) if callable(budget) else budget
        if ticks < len(word) + 1:
            timeouts.append(word)
            continue
        result = run(net, word, ticks, record_trace=False)
        if result.verdict == Verdict.TIMEOUT:
            timeouts.append(word)
            continue
        got = 1 if result.verdict == Verdict.ACCEPT else 0
        if got == int(expected):
            agreements += 1
        else:
            disagreements.append((word, int(expected), result.verdict))
    return RecognitionReport(total, agreements, tuple(disagreements), tuple(timeouts))
