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
    "RunResult",
    "TickRecord",
    "Verdict",
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
        if self.input_symbols is not None:
            if len(self.input_symbols) != n_inputs:
                raise ShapeError("one symbol per data line required")
            for symbol in self.input_symbols:
                if not (isinstance(symbol, str) and len(symbol) == 1):
                    raise ShapeError(f"input symbol {symbol!r} is not one character")
            if len(set(self.input_symbols)) != n_inputs:
                raise ShapeError(f"input symbols {self.input_symbols} repeat a symbol")
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

#: A network state: one value per neuron, each in [0, 1] (or an interval
#: enclosure of such a value when lazy scalars are involved).  ``step``
#: raises ``ShapeError`` for an int or Fraction component outside [0, 1].
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

    Every int or Fraction state component must lie in [0, 1], the range
    the activations map into; ``ShapeError`` names the first one that does
    not.  The integer kernel's tick plans rely on that range (see
    ``_plan``), so it is checked before a path is picked.

    An exact net with an all-rational state steps on the integer kernel,
    ``_fast_step``.  With lazy scalars (streams with no known horizon), or
    interval components in the state, a precision budget is required and
    state components may become interval enclosures; an undecidable signal
    activation raises ``UnknownSign`` naming the neuron.
    """
    if len(state) != net.n_neurons:
        raise ShapeError(f"state has {len(state)} components, expected {net.n_neurons}")
    if len(inputs) != net.n_inputs:
        raise ShapeError(f"{len(inputs)} inputs given, expected {net.n_inputs}")
    if any(u not in (0, 1) for u in (*inputs, validation)):
        raise ShapeError("input and validation lines carry bits, 0 or 1")
    for j, x in enumerate(state):
        if isinstance(x, (int, Fraction)) and not 0 <= x <= 1:
            raise ShapeError(f"state component {j} is {x}, outside [0, 1]")
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

    The kernel takes states in [0, 1] only (``step`` checks, and ``run``
    starts at 0), so a numerator is never above the state's denominator.

    ``tick_plans`` maps the signature of an exact tick to its plan.  The
    signature is the state's ``units`` and ``fracs`` (the tuples of sources
    at exactly 1 and of fractional sources, see ``_IntState``), with the
    input bits and the validation bit.  A signature met once maps to
    ``()``; from its second sighting on it maps to a plan (see ``_plan``).
    ``interned`` holds one copy of each plan's ``rows`` and ``tops`` tuples,
    which many plans share.  The net is read-only, so a plan never goes
    stale; the memo and the intern table are emptied together when the memo
    reaches ``_TICK_PLAN_CAP`` entries.

    ``exact`` is False only when some scalar is a stream with no known
    horizon; a stream with a finite horizon is the rational of its digits
    (see ``ExactScalar.exact_fraction``) and is scaled like any other.
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
        self.tick_plans: dict[tuple, tuple] = {}
        self.interned: dict[tuple, tuple] = {}

#: Entries at which a net's tick plans are emptied whole; in one cycle of
#: the benchmark's workloads, no net meets more than 776 distinct signatures.
_TICK_PLAN_CAP = 4096

#: Bits by which ``_fast_step`` lets a state's denominator outgrow its size
#: at the last reduction before it divides out the gcd again.
_SLACK_BITS = 256


def _compiled(net: Network) -> _CompiledNet:
    if net._compiled is None:
        object.__setattr__(net, "_compiled", _CompiledNet(net))
    return net._compiled


class _IntState:
    """An exact state in the form of its tick signature.

    ``units`` lists the neurons at exactly 1 and ``fracs`` the neurons
    strictly between 0 and 1; ``xs`` holds the numerators of ``fracs``
    over ``den``, so ``0 < x < den`` for each, and every other neuron is 0.
    ``(units, fracs)`` is the state's half of a tick's signature (see
    ``_CompiledNet``), so ``_fast_step`` looks a plan up with no pass over
    the state.  ``of`` lists both in index order, and a tick lists them in
    the order a replay of its plan writes them (see ``_plan``).  ``den`` is
    not always the least common denominator: ``_fast_step`` divides out the
    gcd only once the denominator reaches ``limit`` bits, and then sets
    ``limit`` to the reduced size plus ``_SLACK_BITS``.  Iteration gives
    the values themselves (0, 1 or a reduced ``Fraction``).
    """

    __slots__ = ("n", "units", "fracs", "xs", "den", "limit")

    def __init__(
        self,
        n: int,
        units: tuple[int, ...],
        fracs: tuple[int, ...],
        xs: list[int],
        den: int,
        limit: Optional[int] = None,
    ) -> None:
        self.n = n
        self.units = units
        self.fracs = fracs
        self.xs = xs
        self.den = den
        self.limit = den.bit_length() + _SLACK_BITS if limit is None else limit

    @classmethod
    def of(cls, values: Sequence[Value]) -> "_IntState":
        """The state of ``values``, each in [0, 1]."""
        values = [Fraction(x) for x in values]
        den = lcm(*(f.denominator for f in values))
        units = tuple(j for j, f in enumerate(values) if f == 1)
        fracs = tuple(j for j, f in enumerate(values) if 0 < f < 1)
        xs = [values[j].numerator * (den // values[j].denominator) for j in fracs]
        return cls(len(values), units, fracs, xs, den)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        values: list[Union[int, Fraction]] = [0] * self.n
        for j in self.units:
            values[j] = 1
        for j, x in zip(self.fracs, self.xs):
            values[j] = Fraction(x, self.den)
        return iter(values)


def _unit_sums(
    cn: _CompiledNet, units: Sequence[int], inputs: Sequence[int], validation: int
) -> dict[int, int]:
    """Bias plus the weights of the sources at 1 and the active lines, over
    ``d``, for each neuron they reach and each neuron with a positive bias."""
    bias, out = cn.biases, cn.state_edges
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
    return fixed


def _plain_tick(
    cn: _CompiledNet,
    fixed: dict[int, int],
    fracs: Sequence[int],
    xs: Sequence[int],
    den: int,
    top: int,
) -> tuple[list[int], list[int], list[int]]:
    """The next ``units``, ``fracs`` and ``xs`` (numerators over
    ``top = d * den``), summed edge by edge.

    Each list comes in the order a replay of ``_plan(cn, fixed, fracs)``
    writes it: first the neurons a fractional source reaches, then the
    others in ``fixed``.  So the next tick's signature does not depend on
    which of the two computed this one.
    """
    bias, out, sat, ceil = cn.biases, cn.state_edges, cn.sat_mask, cn.ceil
    frac: dict[int, int] = {}  # numerators over d * den from fractional sources
    for j, x in zip(fracs, xs):
        for i, w in out[j]:
            frac[i] = frac.get(i, 0) + w * x
    units, new_fracs, new_xs = [], [], []
    for i, f in frac.items():
        a = f + fixed.get(i, bias[i]) * den
        if a > 0:
            if a >= top or not sat[i]:
                units.append(i)
            else:
                new_fracs.append(i)
                new_xs.append(a)
    for i, u in fixed.items():
        if u > 0 and i not in frac:
            if u >= ceil[i]:
                units.append(i)
            else:
                new_fracs.append(i)
                new_xs.append(u * den)
    return units, new_fracs, new_xs


def _plan(cn: _CompiledNet, fixed: dict[int, int], fracs: Sequence[int]) -> tuple:
    """The tick of one signature, with every lookup done: ``(rows, tops, scaled)``.

    ``rows`` holds ``(i, p, w, base, sat, more)`` for each neuron a
    fractional source reaches and that can turn positive: ``p`` is the
    position in ``fracs`` of its first such source and ``w`` that source's
    weight, ``more`` pairs the position and weight of each further one
    (most rows have none), ``base`` is the unit sum ``fixed`` gives i (its
    bias when none) and ``sat`` whether i saturates.  ``tops`` lists the
    other neurons whose unit sum reaches ``ceil``, and ``scaled`` the
    others that are positive, each with its unit sum.  A replay writes the
    next ``units`` as its rows at 1, then ``tops``; and the next ``fracs``
    as its fractional rows, then ``scaled``.  ``rows`` and ``tops`` are
    interned in ``cn``.

    A neuron that can never turn positive gets no row.  A fractional
    source's numerator x satisfies ``0 < x < den``: ``step`` admits only
    states in [0, 1], and a source at 0 or 1 is not in ``fracs``.  So each
    term ``w * x`` is strictly below ``w * den`` when ``w > 0`` and
    strictly below 0 when ``w < 0``, and as a row has at least one term,
    its numerator ``base * den + sum(w * x)`` is strictly below
    ``(base + sum of its positive w) * den`` on every tick of this
    signature.  When that bound is at most 0, the numerator is negative,
    the neuron writes nothing on the plain path or on a replay, and
    leaving it out changes neither the values nor their order.  This is
    the common case of a gate held closed by its bias: a stack candidate
    ``sigma(y + gate - 1)`` while ``gate`` is 0.
    """
    bias, out, sat, ceil = cn.biases, cn.state_edges, cn.sat_mask, cn.ceil
    terms: dict[int, tuple[tuple[int, int], ...]] = {}
    for p, j in enumerate(fracs):
        for i, w in out[j]:
            ts = terms.get(i)
            terms[i] = ((p, w),) if ts is None else ts + ((p, w),)
    rows = []
    for i, ts in terms.items():
        base = fixed.get(i, bias[i])
        if base + sum(w for _, w in ts if w > 0) > 0:
            rows.append((i, *ts[0], base, sat[i], ts[1:]))
    rows = tuple(rows)
    tops = []
    scaled = []
    for i, u in fixed.items():
        if i not in terms:
            if u >= ceil[i]:
                tops.append(i)
            elif u > 0:
                scaled.append((i, u))
    tops = tuple(tops)
    interned = cn.interned
    return interned.setdefault(rows, rows), interned.setdefault(tops, tops), tuple(scaled)


def _reduced(
    cn: _CompiledNet,
    units: Sequence[int],
    fracs: Sequence[int],
    xs: list[int],
    top: int,
    limit: int,
) -> _IntState:
    """The state with ``xs`` over ``top``, with the gcd divided out once
    ``top`` reaches ``limit`` bits; a division re-arms the limit at the
    reduced size.  A unit's numerator is ``top`` itself, so only ``xs``
    join the gcd, and with no fractional neuron the denominator becomes 1."""
    if top.bit_length() >= limit:
        g = gcd(top, *xs)
        if g > 1:
            xs = [x // g for x in xs]
            top //= g
        limit = top.bit_length() + _SLACK_BITS
    return _IntState(cn.n, tuple(units), tuple(fracs), xs, top, limit)


def _fast_step(
    cn: _CompiledNet, state: Sequence[Value], inputs: Sequence[int], validation: int
) -> _IntState:
    """One exact tick of a compiled net, in integers.

    With the state at ``X_j / den`` and weights ``W / d``, neuron i's sum is
    ``(sum_j W_ij X_j + (C_i + inputs_i) * den) / (d * den)``; the clamp
    compares it with the new denominator ``d * den``.  Only nonzero sources
    are visited.  Sources at 1, the input lines and the biases add integers
    that do not depend on ``den``; fractional sources add ``W·X``.

    The state carries its own signature, ``state.units`` and
    ``state.fracs``, so the plan lookup makes no pass over it.  The first
    tick of a signature (see ``_CompiledNet``) is summed edge by edge; the
    second builds the signature's plan, and it and every later one replay
    that plan.  Either way the tick writes the next state straight into
    its ``units``, ``fracs`` and ``xs``.  The result is not reduced: its
    denominator is ``d * den``, and the gcd is divided out only once that
    reaches ``state.limit`` bits.
    """
    if not cn.exact:
        raise ValueError("network contains a lazily-known scalar")
    if not isinstance(state, _IntState):
        state = _IntState.of(state)
    den, fracs, xs = state.den, state.fracs, state.xs
    inputs = tuple(inputs)
    key = (state.units, fracs, inputs, validation)
    top = cn.d * den
    plans = cn.tick_plans
    plan = plans.get(key)
    if not plan:
        fixed = _unit_sums(cn, state.units, inputs, validation)
        if plan is None:  # a first sighting
            if len(plans) >= _TICK_PLAN_CAP:
                plans.clear()
                cn.interned.clear()
            plans[key] = ()
            new = _plain_tick(cn, fixed, fracs, xs, den, top)
            return _reduced(cn, *new, top, state.limit)
        plan = plans[key] = _plan(cn, fixed, fracs)
    rows, tops, scaled = plan
    new_units, new_fracs, new_xs = [], [], []
    for i, p, w, base, sat, more in rows:
        a = base * den + w * xs[p]
        if more:
            for p, w in more:
                a += w * xs[p]
        if a > 0:
            if a >= top or not sat:
                new_units.append(i)
            else:
                new_fracs.append(i)
                new_xs.append(a)
    new_units += tops
    for i, u in scaled:
        new_fracs.append(i)
        new_xs.append(u * den)
    return _reduced(cn, new_units, new_fracs, new_xs, top, state.limit)


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
    flagged: bool = False


def _out_bit(value: Value) -> int:
    if isinstance(value, Interval):
        return signal(value)
    return 1 if value > 0 else 0


#: How far ``run`` refines lazy scalars before a sign counts as undecidable,
#: on a net that carries a stream with no known horizon.
_LAZY_BUDGET = PrecisionBudget(max_digits=128)


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

    An exact net steps on the integer kernel; that includes every net whose
    streams all have a finite horizon, such as each compiled stream-weight
    oracle net.  A net that carries a stream with no known horizon steps
    through ``step`` on interval enclosures refined to at most 128 digits,
    and a sign they cannot decide raises ``UnknownSign``.
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
        state: Sequence[Value] = _IntState(net.n_neurons, (), (), [], 1)
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
            # a neuron is positive exactly when it is in units or fracs
            state = _fast_step(cn, state, inputs, validation)
            units, fracs = state.units, state.fracs
            data_bit = 1 if data in units or data in fracs else 0
            valid_bit = 1 if valid in units or valid in fracs else 0
            flag_bit = (
                (1 if flag in units or flag in fracs else 0) if flag is not None else None
            )
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
                verdict, tuple(records), ticks=t + 1, flagged=bool(flag_bit)
            )
    return RunResult(Verdict.TIMEOUT, tuple(records), ticks=budget)
