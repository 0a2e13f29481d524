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
from itertools import chain, repeat
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
    are dropped.  So on an exact net one tick of ``_ticks`` is integer
    arithmetic only, and ``step`` walks the same table on a lazy net,
    passing each integer ``w`` on as ``w / d``.  Only the sightings of a
    tick before its plan is built tick over ``d``; the plan rescales what
    it reads to its own ``scale``, which leaves out every weight the tick
    does not read.

    The kernel takes states in [0, 1] only (``step`` checks, and ``run``
    starts at 0), so a numerator is never above the state's denominator.

    ``tick_plans`` maps each signature met, the state's ``units`` and
    ``fracs`` (the tuples of sources at exactly 1 and of fractional
    sources, see ``_IntState``), to its ``_Node``.  A node maps each feed
    item, the input bits and the validation bit, to how often that tick
    was met; at its ``_SIGHTINGS``-th sighting the count becomes a plan
    (see ``_plan``), and each plan links the outcomes of its rows to the
    nodes they write (see ``_link``).  ``interned`` holds the generated
    replay function of each plan shape ``(rows, scaled, scale)``, which
    many plans share.  The net is read-only, so a plan or a link never
    goes stale; nodes, links and functions are emptied together when the
    map reaches ``_TICK_PLAN_CAP`` nodes.

    ``out_valid`` is the net's output validation neuron, the one ``_ticks``
    watches; each node records whether it is positive there.  ``shown``
    holds one feed item per data line, the symbol's one-hot bits with
    validation 1, and ``blank`` the item with every line at 0: ``run``
    feeds these same objects on every run of the net.

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
        self.out_valid = net.out_valid
        m = net.n_inputs
        self.shown = [(tuple(int(j == k) for j in range(m)), 1) for k in range(m)]
        self.blank = ((0,) * m, 0)
        self.tick_plans: dict[tuple, _Node] = {}
        self.interned: dict[tuple, tuple] = {}

#: Nodes at which a net's tick plans are emptied whole; in one cycle of
#: the benchmark's workloads, no net meets more than 776 distinct signatures.
_TICK_PLAN_CAP = 4096

#: The sighting of a signature and feed item at which ``_ticks`` builds
#: its plan; the ones before take the plain path.  Generating a 13-row
#: plan's function takes about 0.3 ms, what some 35 replays save over the
#: plain path on the a^n b^n net (Python 3.11), so a tick met only a few
#: times is not worth one: on a net that runs a few short words, as each
#: job of the benchmark's ``toolchain`` workload does, no plan is built.
_SIGHTINGS = 8

#: Bits by which ``_ticks`` lets a state's denominator outgrow its size
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
    ``(units, fracs)`` is the signature of the state (see
    ``_CompiledNet``), so ``_ticks`` finds its node with no pass over the
    state.  ``of`` lists both in index order, and a tick lists them in the
    order a replay of its plan writes them (see ``_plan``).  A tick
    multiplies ``den`` by ``d`` on a sighting before the plan is built and
    by the plan's ``scale`` on a replay, so ``den`` is not always the least common
    denominator: ``_ticks`` divides out the gcd only once the denominator
    reaches ``limit`` bits, and then sets ``limit`` to the reduced size
    plus ``_SLACK_BITS``.  Iteration gives the values themselves (0, 1 or a
    reduced ``Fraction``).

    ``_ticks`` ticks a state in place: it rebinds all five fields but never
    mutates the tuples or the ``xs`` list they held, so a copy that shares
    them, as ``_fast_step`` makes, is independent of the original.
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


def _plan(cn: _CompiledNet, fixed: dict[int, int], fracs: Sequence[int]) -> "_Plan":
    """The tick of one signature, with every lookup done: a ``_Plan`` with
    its ``tick``, its ``shape`` ``(rows, scaled, scale)`` and its ``tops``.

    ``rows`` holds ``(i, p, w, base, sat, more)`` for each neuron a
    fractional source reaches and that can turn positive: ``p`` is the
    position in ``fracs`` of its first such source and ``w`` that source's
    weight, ``more`` pairs the position and weight of each further one
    (most rows have none), ``base`` is the unit sum ``fixed`` gives i (its
    bias when none) and ``sat`` whether i saturates.  ``tops`` lists the
    other neurons whose unit sum reaches ``ceil``, and ``scaled`` the
    others that are positive, each with its unit sum.  A replay writes the
    next ``units`` as its rows at 1, then ``tops``; and the next ``fracs``
    as its fractional rows, then ``scaled``.

    ``tick`` is the replay, made by ``_gen`` from the shape and shared
    through ``cn.interned`` by every plan of the same shape.  The plan maps
    each ``code`` that ``tick`` returns to the node of the signature it
    writes (see ``_link``).

    Every base, weight and unit sum is over ``scale`` rather than ``d``:
    all of them and ``d`` are divided by their gcd, so ``scale`` divides
    ``d`` and is the least common denominator of the values this plan
    reads.  A replay's denominator is ``scale * den``, so a tick that reads
    only integer weights leaves it as it was.

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
    tops = []
    scaled = []
    for i, u in fixed.items():
        if i not in terms:
            if u >= ceil[i]:
                tops.append(i)
            elif u > 0:
                scaled.append((i, u))
    g = gcd(cn.d, *[u for _, u in scaled], *[v for row in rows for v in row[2:4]],
            *[w for row in rows for _, w in row[5]])
    if g > 1:
        rows = [
            (i, p, w // g, base // g, s, tuple([(q, v // g) for q, v in more]) if more else ())
            for i, p, w, base, s, more in rows
        ]
        scaled = [(i, u // g) for i, u in scaled]
    shape = (tuple(rows), tuple(scaled), cn.d // g)
    shared = cn.interned.get(shape)
    if shared is None:
        shared = cn.interned[shape] = (_gen(*shape), shape)
    # the interned shape, so that the plans of one shape hold one copy of it
    return _Plan(*shared, tuple(tops))


def _gen(rows: tuple, scaled: tuple, scale: int):
    """The replay of a plan's ``rows``, ``scaled`` and ``scale`` (see
    ``_plan``) as a straight-line function ``tick(xs, den)``.

    It returns ``(code, xs, top)``: ``top = scale * den`` is the new
    denominator, ``xs`` the new numerators over it (the fractional rows in
    row order, then one per ``scaled`` entry), and ``code`` has two bits
    per row, bit ``2k`` set when row k is at 1 and bit ``2k + 1`` when it
    is fractional, so it names the signature the tick writes.  Each row is
    one block with its base, weights, positions and ``scale`` written in as
    literals.  Every value goes through ``lit``, which refuses anything but
    an ``int``, so the source handed to ``exec`` is fixed text and
    ``%d``-formatted integers only.
    """

    def lit(v: int) -> str:
        if type(v) is not int:
            raise TypeError(f"a tick plan holds ints only, not {v!r}")
        return "%d" % v

    def term(w: int, name: str) -> str:
        s = lit(w)
        return "" if s == "0" else name if s == "1" else f"{s}*{name}"

    src = ["def tick(xs, den):", f" top = {term(scale, 'den')}", " nx = []", " c = 0"]
    src += [f" x{lit(p)} = xs[{lit(p)}]"
            for p in sorted({p for row in rows for p in (row[1], *(q for q, _ in row[5]))})]
    for k, (_, p, w, base, s, more) in enumerate(rows):
        parts = [term(base, "den"), term(w, f"x{lit(p)}"), *(term(v, f"x{lit(q)}") for q, v in more)]
        src.append(f" a = {' + '.join(filter(None, parts))}")
        src.append(" if a > 0:")
        if s:
            src += ["  if a < top:", "   nx.append(a)", f"   c |= {lit(2 << 2 * k)}",
                    "  else:", f"   c |= {lit(1 << 2 * k)}"]
        else:
            src.append(f"  c |= {lit(1 << 2 * k)}")
    src += [f" nx.append({term(u, 'den')})" for _, u in scaled]
    src.append(" return c, nx, top")
    namespace: dict = {}
    exec("\n".join(src), {"__builtins__": {}}, namespace)
    return namespace["tick"]


class _Map:
    """A small map that keeps its first key inline and any further keys in
    a dict, made only once a second key comes: almost every node meets one
    feed item and almost every plan writes one outcome, and a dict per node
    and per plan would cost more than the rest of them."""

    __slots__ = ("key", "value", "more")

    def get(self, key, default=None):
        if self.key == key:
            return self.value
        return default if self.more is None else self.more.get(key, default)

    def put(self, key, value) -> None:
        if self.key is None or self.key == key:
            self.key, self.value = key, value
        else:
            if self.more is None:
                self.more = {}
            self.more[key] = value


class _Node(_Map):
    """A signature met by ``_ticks``: its ``units`` and ``fracs``, whether
    ``out_valid`` is positive in it (``stops``), and a map from each feed
    item met here to its plan, or to how often it was met before."""

    __slots__ = ("units", "fracs", "stops")

    def __init__(self, units: tuple[int, ...], fracs: tuple[int, ...], stops: bool) -> None:
        self.key = self.value = self.more = None
        self.units, self.fracs, self.stops = units, fracs, stops


class _Plan(_Map):
    """A built tick plan (see ``_plan``): its generated ``tick``, the
    ``shape`` it was generated from, ``tops``, and a map from each ``code``
    that ``tick`` returns to the node it writes."""

    __slots__ = ("tick", "shape", "tops")

    def __init__(self, tick, shape: tuple, tops: tuple[int, ...]) -> None:
        self.key = self.value = self.more = None
        self.tick, self.shape, self.tops = tick, shape, tops


def _node(cn: _CompiledNet, units: tuple[int, ...], fracs: tuple[int, ...]) -> _Node:
    """The node of signature ``(units, fracs)``, made on its first sighting.
    At ``_TICK_PLAN_CAP`` nodes, every node, link and generated function
    goes first."""
    plans = cn.tick_plans
    node = plans.get((units, fracs))
    if node is None:
        if len(plans) >= _TICK_PLAN_CAP:
            # links make cycles; cut them, so the old graph goes at once
            for old in plans.values():
                old.key = old.value = old.more = None
            plans.clear()
            cn.interned.clear()
        valid = cn.out_valid
        node = plans[units, fracs] = _Node(units, fracs, valid in units or valid in fracs)
    return node


def _link(cn: _CompiledNet, plan: _Plan, code: int) -> _Node:
    """The node that ``plan`` writes when its ``tick`` returns ``code``,
    linked in ``plan`` on first use: its rows at 1, then ``tops``, are the
    next ``units``, and its fractional rows, then ``scaled``, the next
    ``fracs``, the order in which ``tick`` writes their numerators."""
    node = plan.get(code)
    if node is None:
        rows, scaled, _ = plan.shape
        units, fracs, bits = [], [], code
        for row in rows:
            if bits & 1:
                units.append(row[0])
            elif bits & 2:
                fracs.append(row[0])
            bits >>= 2
        node = _node(cn, (*units, *plan.tops), (*fracs, *[i for i, _ in scaled]))
        plan.put(code, node)
    return node


def _ticks(
    cn: _CompiledNet, state: _IntState, feed: Iterable[tuple[tuple[int, ...], int]]
) -> int:
    """Tick ``state`` in place, one exact tick per ``(inputs, validation)``
    of ``feed``, in integers, until the net's ``out_valid`` is positive or
    the feed ends; return the number of ticks taken.

    With the state at ``X_j / den`` and weights ``W / d``, neuron i's sum is
    ``(sum_j W_ij X_j + (C_i + inputs_i) * den) / (d * den)``; the clamp
    compares it with the new denominator ``d * den``.  Only nonzero sources
    are visited.  Sources at 1, the input lines and the biases add integers
    that do not depend on ``den``; fractional sources add ``W·X``.

    The state is kept as the node of its signature (see ``_CompiledNet``),
    so a tick finds its plan in the node by the feed item alone; ``run``
    feeds the same item objects on every run of a net, so that is mostly
    one identity test.  The first ``_SIGHTINGS - 1`` ticks of a signature
    and feed item are summed edge by edge over ``d`` and look the next
    node up by its ``(units, fracs)``; the next builds the plan, and it and
    every later one call the plan's ``tick`` over the plan's own ``scale``
    and follow the link of the ``code`` it returns, so a replay builds no
    tuple and hashes no signature.  The denominator is not reduced on every tick:
    the gcd is divided out only once it reaches ``limit`` bits, and
    ``limit`` is then set to the reduced size plus ``_SLACK_BITS``.  A
    unit's numerator is the denominator itself, so only ``xs`` join the
    gcd, and with no fractional neuron it becomes 1.

    Each tick ends by reading the new node's ``stops``.  The state is kept
    in local variables from tick to tick and written back to ``state``
    once, at the end.
    """
    xs, den, limit = state.xs, state.den, state.limit
    node = _node(cn, state.units, state.fracs)
    d, last = cn.d, _SIGHTINGS - 1
    t = 0
    for item in feed:
        t += 1
        plan = node.value if node.key is item else node.get(item, 0)
        if plan.__class__ is int:  # the sightings before the plan is built
            fixed = _unit_sums(cn, node.units, *item)
            if plan < last:
                node.put(item, plan + 1)
                top = d * den
                units, fracs, xs = _plain_tick(cn, fixed, node.fracs, xs, den, top)
                node = _node(cn, tuple(units), tuple(fracs))
            else:
                plan = _plan(cn, fixed, node.fracs)
                node.put(item, plan)
                code, xs, top = plan.tick(xs, den)
                node = _link(cn, plan, code)
        else:
            code, xs, top = plan.tick(xs, den)
            node = plan.value if plan.key == code else _link(cn, plan, code)
        if top.bit_length() >= limit:
            g = gcd(top, *xs)
            if g > 1:
                xs = [x // g for x in xs]
                top //= g
            limit = top.bit_length() + _SLACK_BITS
        den = top
        if node.stops:
            break
    state.units, state.fracs, state.xs, state.den, state.limit = node.units, node.fracs, xs, den, limit
    return t


def _fast_step(
    cn: _CompiledNet, state: Sequence[Value], inputs: Sequence[int], validation: int
) -> _IntState:
    """One tick of ``_ticks`` on a copy of ``state``, returned as a new
    ``_IntState``; ``state`` itself is left as it was, and may also be any
    sequence of values in [0, 1].  On a one-tick feed the watch on
    ``out_valid`` changes nothing."""
    if not cn.exact:
        raise ValueError("network contains a lazily-known scalar")
    if isinstance(state, _IntState):
        state = _IntState(cn.n, state.units, state.fracs, state.xs, state.den, state.limit)
    else:
        state = _IntState.of(state)
    _ticks(cn, state, ((tuple(inputs), validation),))
    return state


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


def _lines(net: Network, state: Union[_IntState, list[Value]]) -> tuple[int, int, Optional[int]]:
    """The output data, validation and flag bits of ``state``; the flag bit
    is None when the net has no ``out_flag``."""
    if isinstance(state, _IntState):
        on = lambda i: 1 if i in state.units or i in state.fracs else 0
    else:
        on = lambda i: signal(state[i])
    flag = net.out_flag
    return on(net.out_data), on(net.out_valid), None if flag is None else on(flag)


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

    Either way the run is one call of the kernel (``_ticks`` or
    ``_lazy_ticks``), which stops on the verdict tick, and the output lines
    are read once from the state it leaves.  With ``record_trace`` the same
    kernel is called once per tick, and the lines are read after each.
    """
    if net.out_data is None or net.out_valid is None:
        raise ConfigError("network has no designated output lines")
    if budget < len(word) + 1:
        raise ConfigError(
            f"budget {budget} is too small for a {len(word)}-symbol word"
        )
    cn = _compiled(net)
    shown = [cn.shown[net.line_for_symbol(ch)] for ch in word]
    feed = chain(shown, repeat(cn.blank, budget - len(shown)))
    if cn.exact:
        state = _IntState(net.n_neurons, (), (), [], 1)
        advance = lambda items: _ticks(cn, state, items)
    else:
        state = list(zero_state(net))
        advance = lambda items: _lazy_ticks(net, state, items)

    records: list[TickRecord] = []
    if record_trace:
        for item in feed:
            advance((item,))
            records.append(TickRecord(*item, *_lines(net, state)))
            if records[-1].out_valid:
                break
        ticks = len(records)
    else:
        ticks = advance(feed)
    data_bit, valid_bit, flag_bit = _lines(net, state)
    if not valid_bit:
        return RunResult(Verdict.TIMEOUT, tuple(records), ticks=budget)
    verdict = Verdict.ACCEPT if data_bit else Verdict.REJECT
    return RunResult(verdict, tuple(records), ticks=ticks, flagged=bool(flag_bit))


def _lazy_ticks(
    net: Network, state: list[Value], feed: Iterable[tuple[tuple[int, ...], int]]
) -> int:
    """``step`` on interval enclosures, ticking the list ``state`` in place
    one tick per item of ``feed``, until ``out_valid`` is positive or the
    feed ends; returns the number of ticks taken, as ``_ticks`` does."""
    t = 0
    for inputs, validation in feed:
        t += 1
        state[:] = step(net, state, inputs, validation, budget=_LAZY_BUDGET)
        # all three lines, as a traced run reads them, so that an output
        # sign the enclosures cannot decide raises on the same tick either way
        if _lines(net, state)[1]:
            break
    return t
