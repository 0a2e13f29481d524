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

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, groupby, repeat
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
    "Network",
    "NetworkState",
    "RunResult",
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
    nodes they write (see ``_link``).  A cycle of plans for one feed item
    whose composed map jumps becomes one ``_Loop`` (see ``_close``), and a
    straight path of plans for one feed item one ``_Chain`` (see
    ``_chain``); each is its head plan, re-classed in place, with one
    generated function for the whole path.  ``chained`` maps each other
    plan of a chain to its head, and each plan whose path was one plan
    long to None, until a chain breaks up.  ``interned`` holds the
    generated replay function of each plan shape ``(rows, scaled,
    scale)``, which many plans share.  The net is read-only, so a plan or
    a link never goes stale; nodes, links, chains, loops and functions are
    emptied together when the map reaches ``_TICK_PLAN_CAP`` nodes.

    ``out_valid`` is the net's output validation neuron, the one ``_ticks``
    watches; each node records whether it is positive there.  ``shown``
    maps each input symbol to its feed item, its line's one-hot bits with
    validation 1, and ``blank`` is the item with every line at 0: ``run``
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
        self.shown = {
            ch: (tuple(int(j == k) for j in range(m)), 1)
            for k, ch in enumerate(net.input_symbols or ())
        }
        self.blank = ((0,) * m, 0)
        self.tick_plans: dict[tuple, _Node] = {}
        self.interned: dict[tuple, tuple] = {}
        self.chained: dict[_Plan, Optional[_Plan]] = {}

#: Nodes at which a net's tick plans are emptied whole; in one cycle of
#: the benchmark's workloads, no net meets more than 776 distinct signatures.
_TICK_PLAN_CAP = 4096

#: The sighting of a signature and feed item at which ``_ticks`` builds
#: its plan; the ones before take the plain path.  Generating a 13-row
#: plan's function takes about 0.25 ms, what some 24 replays save over the
#: plain path on a^60 b^60 (about 11 us a plain tick, 0.9 us a warm one;
#: Python 3.11, 2 shared cores, best of 25 runs), so a tick met only a few
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

    Each row is bounded over the signature.  A fractional source's
    numerator x satisfies ``0 < x < den``: ``step`` admits only states in
    [0, 1], and a source at 0 or 1 is not in ``fracs``.  A row has at least
    one term and no zero weight, so its numerator ``base * den + sum(w *
    x)`` lies strictly between ``lo * den`` and ``hi * den`` on every tick
    of this signature, where ``lo`` is ``base`` plus the row's negative
    weights and ``hi`` is ``base`` plus its positive ones.  When ``hi <= 0``
    the neuron stays at 0 and gets no row, which changes neither the values
    nor their order: the common case of a gate held closed by its bias, a
    stack candidate ``sigma(y + gate - 1)`` while ``gate`` is 0.  When
    ``lo >= 0`` (``lo >= scale`` if it saturates) the row is at 1 on every
    tick, and a saturating row with ``lo >= 0`` and ``hi <= scale`` is
    fractional on every tick; ``_gen`` writes either with no test.
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


def _lit(v: int) -> int:
    """``v`` itself, refused unless it is an ``int``: only decimal integers
    reach the source that ``_gen`` and ``_fuse`` hand to ``exec``."""
    if type(v) is not int:
        raise TypeError(f"a tick plan holds ints only, not {v!r}")
    return v


def _gen(rows: tuple, scaled: tuple, scale: int):
    """The replay of a plan's ``rows``, ``scaled`` and ``scale`` (see
    ``_plan``) as a straight-line function ``tick(xs, den)``.

    It returns ``(code, xs, top)``: ``top = scale * den`` is the new
    denominator, ``xs`` the new numerators over it (the fractional rows in
    row order, then one per ``scaled`` entry), and ``code`` has two bits
    per row, bit ``2k`` set when row k is at 1 and bit ``2k + 1`` when it
    is fractional, so it names the signature the tick writes.  Each row
    is written as its bound (see ``_plan``) leaves it: a row always at 1
    writes no code and a row always fractional only appends its sum, each
    with its bit in the constant that ``c`` starts from, and any other row
    keeps only the comparisons that can fail.  A saturating row forms its
    sum ``a`` and tests ``a > 0`` while ``lo < 0`` and ``a < top`` while
    ``hi > scale``; a signal row, whose sum is never kept, tests
    ``<its positive terms> > <its negative terms>`` with no sum formed.
    Only the sources a written row reads are loaded.

    Each term is a product ``m * x_q`` or ``m * den``, added or
    subtracted as its weight's sign says, with ``m`` the weight's size: a
    weight of 1 or -1 reads the source alone, and a product read more
    than once, by rows, ``scaled`` entries or ``top``, is computed once,
    into a local, before the rows (``scale * den`` is ``top`` itself).
    Bases, weights, positions and ``scale`` are written in as literals.
    Every value goes through ``_lit`` before any arithmetic on it, so the
    source handed to ``exec`` is fixed text and decimal integers only.
    """
    top = (_lit(scale), "den")
    c, written, read = 0, [], set()
    for k, row in enumerate(rows):
        (ts, lo, hi), base, s = _bounds(row), row[3], row[4]
        if lo >= (scale if s else 0):  # always at 1
            c |= 1 << 2 * k
            continue
        read.update(q for q, _ in ts)
        terms = [_term(v, f"x{q}") for q, v in ts]
        written.append((k, s, lo, hi, [_term(base, "den")] + terms if base else terms))
    tail = [[_term(_lit(u), "den")] for _, u in scaled]
    sides, total, products = _products([ts for *_, ts in written] + tail, top)
    body = []
    for k, s, lo, hi, ts in written:
        one, frac = 1 << 2 * k, 2 << 2 * k
        if not s:  # lo < 0, so some term is subtracted
            pos, neg = sides(ts)
            body += [f" if {' + '.join(pos) or 0} > {' + '.join(neg)}:", f"  c |= {one}"]
            continue
        a = total(ts)
        if lo >= 0 and hi <= scale:  # always fractional
            body.append(f" nx.append({a})")
            c |= frac
            continue
        body.append(f" a = {a}")
        pad = " "
        if lo < 0:
            body.append(" if a > 0:")
            pad = "  "
        if hi > scale:
            body += [f"{pad}if a < top:", f"{pad} nx.append(a)", f"{pad} c |= {frac}",
                     f"{pad}else:", f"{pad} c |= {one}"]
        else:
            body += [f"{pad}nx.append(a)", f"{pad}c |= {frac}"]
    src = [" top = den" if scale == 1 else f" top = {scale}*den", " nx = []", f" c = {c}"]
    src += [f" x{p} = xs[{p}]" for p in sorted(read)]
    src += products
    src += body
    src += [f" nx.append({total(ts)})" for ts in tail]
    src.append(" return c, nx, top")
    namespace: dict = {}
    exec("\n".join(["def tick(xs, den):", *src]), {"__builtins__": {}}, namespace)
    return namespace["tick"]


def _bounds(row: tuple) -> tuple[list, int, int]:
    """A plan row's terms ``(q, w)``, position and weight of each source,
    with ``lo`` and ``hi``, its base plus its negative and plus its
    positive weights, which bound its sum over its signature (see
    ``_plan``); each value goes through ``_lit`` first."""
    _, p, w, base, _, more = row
    ts = [(_lit(q), _lit(v)) for q, v in ((p, w), *more)]
    lo = _lit(base) + sum(v for _, v in ts if v < 0)
    return ts, lo, base + sum(v for _, v in ts if v > 0)


def _term(v: int, source: str) -> tuple:
    """The product ``|v| * source`` as a key ``(|v|, source)``, and whether
    the sum that reads it adds it."""
    return (abs(v), source), v > 0


def _products(sums: list, top: tuple):
    """How generated code writes the sums ``sums``, lists of ``_term``s, with
    ``top`` the key of ``top``: ``sides(ts)``, the names of the added and of
    the subtracted terms of ``ts``, ``total(ts)``, its sum as one
    expression, and the lines that compute, into locals, each product read
    more than once, save ``top``.  A product by 1 is the source alone."""
    uses = Counter([top, *(key for ts in sums for key, _ in ts)])

    def name(key: tuple) -> str:
        m, source = key
        if m == 1:
            return source
        if key == top:
            return "top"
        return f"{source}_{m}" if uses[key] > 1 else f"{m}*{source}"

    def sides(ts: list) -> tuple[list[str], list[str]]:
        return [name(key) for key, up in ts if up], [name(key) for key, up in ts if not up]

    def total(ts: list) -> str:
        pos, neg = sides(ts)
        return " - ".join([" + ".join(pos) if pos else f"-{neg.pop(0)}", *neg])

    lines = [f" {source}_{m} = {m}*{source}" for (m, source), n in uses.items()
             if n > 1 and m > 1 and (m, source) != top]
    return sides, total, lines


def _compose(path: Sequence["_Plan"], m: Optional[int] = None) -> tuple[tuple, int, tuple]:
    """``path``, plans that each tick as their first ``key`` says, as one
    affine map over the numerators it starts from, with the tests under
    which it does: ``(nx, scale, tests)``.

    The path starts from registers ``x_0, ..., x_{m-1}`` over ``den``: the
    ``m`` numerators of its first node's ``fracs``, by default those its
    last plan writes, as on a cycle.  A form is a tuple of ``m + 1``
    integer coefficients over ``(x_0, ..., x_{m-1}, den)``.  Each plan's
    rows are read from its interned ``shape`` under its ``key``, with the
    numerators of the ticks before it written out as forms: a pop ``x ->
    B*x - v`` and a push ``x -> (x + v)/B`` are both affine, so every sum
    is a form.  ``nx`` holds the form of each numerator the last plan
    writes, and the path's ``top`` is ``scale * den``, ``scale`` the
    product of the plans' scales.

    ``tests`` holds ``(form, up)`` pairs, each asking ``form > 0`` when
    ``up`` and ``form <= 0`` when not: each comparison that ``_gen``
    writes, of a sum with 0 or with ``top``, in the
    direction the plan's ``key`` takes it.  Each is divided by the gcd of
    its coefficients and kept once.  A test that reads one register bounds
    ``x / den`` by a rational from below or from above; it is kept only
    when ``0 < x < den`` does not imply it, and only the tightest bound on
    each side of each register stays.  A start state of the path's
    signature has ``0 < x < den``, and so has the state after each tick
    that returns its plan's key, so every test holds exactly when ticking
    the plans one by one returns each one's ``key``, and then the path
    writes ``nx`` over ``scale * den``.  Every value read from a shape goes
    through ``_lit`` first.
    """
    if m is None:
        rows, scaled, _ = path[-1].shape
        code = _lit(path[-1].key)
        m = sum(1 for k in range(len(rows)) if code >> 2 * k & 2) + len(scaled)
    xs = [tuple(int(i == j) for i in range(m + 1)) for j in range(m)]
    den = tuple(int(i == m) for i in range(m + 1))

    def form(terms) -> tuple:  # the sum of c * f over the (c, f) of terms, in one list
        out = [0] * (m + 1)
        for c, f in terms:
            for i, v in enumerate(f):
                out[i] += c * v
        return tuple(out)

    tests = []
    for plan in path:
        (rows, scaled, scale), code = plan.shape, _lit(plan.key)
        top, nx = form([(_lit(scale), den)]), []
        for k, row in enumerate(rows):
            (ts, lo, hi), base, s = _bounds(row), row[3], row[4]
            if lo >= (scale if s else 0):  # always at 1
                continue
            a = form([(base, den), *((v, xs[q]) for q, v in ts)])
            bits = code >> 2 * k & 3
            if bits == 2:  # fractional: 0 < a < top
                nx.append(a)
                tests += [(a, True)] if lo < 0 else []
                tests += [(form([(1, top), (-1, a)]), True)] if hi > scale else []
            elif bits and s:  # saturated: a >= top
                tests.append((form([(1, top), (-1, a)]), False))
            else:  # a signal row at 1 (a > 0), or any row at 0 (a <= 0)
                tests.append((a, bits == 1))
        xs, den = nx + [form([(_lit(u), den)]) for _, u in scaled], top
    # the tightest bound on each side of each register, from 0 < x / den < 1
    # on: (rank, test), where a lower bound t has rank -t, an upper one t,
    # and a strict one ranks before a non-strict one at the same t
    bounds = {(j, lower): ((0 if lower else 1, False), None)
              for j in range(m) for lower in (True, False)}
    kept = {}
    for f, up in tests:
        g = gcd(*f)
        f = tuple(v // g for v in f) if g > 1 else f
        regs = [j for j in range(m) if f[j]]
        if len(regs) == 1:  # f[j] * x + f[m] * den compared with 0
            [j] = regs
            t = Fraction(-f[m], f[j])
            lower = (f[j] > 0) == up
            rank = (-t if lower else t, not up)
            if rank < bounds[j, lower][0]:
                bounds[j, lower] = (rank, (f, up))
            kept.setdefault((f, up), False)
        elif regs or (f[m] <= 0 if up else f[m] > 0):  # unless it always holds
            kept[f, up] = True
    for _, test in bounds.values():
        if test is not None:
            kept[test] = True
    return tuple(xs), _lit(den[m]), tuple(test for test, keep in kept.items() if keep)


def _fuse(path: Sequence["_Plan"], m: Optional[int] = None, closes: bool = True):
    """The ticks of ``path``, plans that each link their first code to the
    next one's node, as one function ``run(xs, den, left)`` that
    evaluates the path's ``_compose`` from ``m`` start registers (see
    there): it loads the registers the map and the tests read, and when
    every test holds it writes the map's numerators over ``top = scale *
    den``, each distinct form once, for all ``len(path)`` ticks at once.
    A product read more than once is computed once, as in ``_gen``.  It
    returns ``(ticks, k, code, xs, top)``, k the position in ``path`` of
    the last plan ticked and ``code`` what that plan returned.  When some
    test fails, ``run`` makes only the first plan's own ``tick`` from
    there, so ``_ticks`` goes on plan by plan.

    A *chain* (``closes`` False) is a straight path that ends where the
    last plan's node leads elsewhere: ``run`` makes its ``len(path)``
    ticks or the first plan's alone, and ignores ``left``.

    A *loop* (``closes`` True, and ``m`` then the count the last plan
    writes) is a path whose last plan links its first code to the first
    one's node, and ``run`` goes round it in a ``while`` loop, whole
    cycles only, at most ``left`` ticks (at least ``len(path)``), the
    ticks left in the run of the cycle's feed item, and then the first
    plan's tick of the cycle whose tests fail.  Every iteration after
    the first whose tests hold first jumps (see ``_jump``): it estimates
    from bit lengths how many further cycles pass, never more than do,
    writes the registers after that many cycles in closed form, and then
    evaluates the map, so a jump of none is the plain iteration.  The
    next iteration's tests check the cycle the jump reached: they fail
    there when the estimate was exact, and else the loop goes round
    again.  It returns on a failed test or when one more cycle would
    take more than ``left`` ticks.  A cycle whose map is not separable
    gets no loop: ``_fuse`` returns None for it, and chains and single
    replays go round it.

    Every value goes through ``_lit`` before the source is handed to
    ``exec``.
    """
    size, last = len(path), _lit(path[-1].key)
    nx, scale, tests = _compose(path, m)
    m = len(nx) if m is None else m

    def terms(f: tuple) -> list:
        return [_term(_lit(v), f"x{j}" if j < m else "den") for j, v in enumerate(f) if v]

    sums = [terms(f) for f in nx]
    checks = [(terms(f), up) for f, up in tests]
    sides, total, products = _products(sums + [ts for ts, _ in checks], (_lit(scale), "den"))
    jump = _jump(nx, scale, tests, total) if closes else None
    if closes and jump is None:  # a cycle that cannot jump gets no loop
        return None
    conds = []
    for ts, up in checks:
        pos, neg = sides(ts)
        conds.append(f"{' + '.join(pos) or 0} {'>' if up else '<='} {' + '.join(neg) or 0}")
    read = sorted({j for f in (*nx, *(f for f, _ in tests)) for j in range(m) if f[j]})
    head = ["def run(xs, den, left):"]
    if closes:
        head += [f" left -= {size}", " n = 0", " while True:"]
    pad = "  " if closes else " "
    src = head + [pad + ("top = den" if scale == 1 else f"top = {scale}*den"),
                  *(f"{pad}x{j} = xs[{j}]" for j in read), *(pad[1:] + line for line in products)]
    body, named = [], {}
    for f, ts in zip(nx, sums):  # each form written more than once is named once
        if nx.count(f) > 1 and f not in named:
            named[f] = f"f{len(named)}"
            body.append(f"{named[f]} = {total(ts)}")
    body.append(f"nx = [{', '.join(named.get(f) or total(ts) for f, ts in zip(nx, sums))}]")
    if closes:
        estimate, closed = jump
        # top is den itself at scale 1, where den stays as it is
        rescale = [f"top = {scale}*den"] * (scale != 1) + [line[1:] for line in products]
        body[:0] = ["if n:", f" k = (left - n) // {size}", *(" " + line for line in estimate),
                    " if k > 0:", *("  " + line for line in closed + rescale), f"  n += {size}*k"]
    if conds:
        src += [f"{pad}if not ({' and '.join(conds)}):", f"{pad} c, nx, top = tick(xs, den)",
                f"{pad} return {'n + 1' if closes else 1}, 0, c, nx, top"]
    src += [pad + line for line in body]
    if closes:
        src += [f"  n += {size}", "  if n > left:", f"   return n, {size - 1}, {last}, nx, top",
                "  xs = nx", "  den = top"]
    else:
        src.append(f" return {size}, {size - 1}, {last}, nx, top")
    namespace: dict = {}
    exec("\n".join(src), {"__builtins__": {}, "tick": path[0].tick}, namespace)
    return namespace["run"]


#: The unit, in parts of a bit, of the base-2 logarithms with which a jump
#: estimates how many cycles pass; a power-of-two ratio is exact in it.
_LOG_UNIT = 64


def _log2_floor(p: int, q: int) -> int:
    """``floor(log2(p / q))`` for positive ints ``p`` and ``q``."""
    t = p.bit_length() - q.bit_length()
    return t - ((q << t) > p if t >= 0 else q > p << -t)


def _jump(nx: tuple, scale: int, tests: tuple, total):
    """The lines with which ``_fuse``'s loop jumps over whole cycles of a
    composed map ``(nx, scale, tests)`` (see ``_compose``), as ``(estimate,
    closed)``, or None when the map is not separable.

    It is separable when each test reads one register, and each register
    that the map or a test reads is written from itself alone, as
    ``a*x + b*den`` with ``a > 0``, over ``top = s*den`` with ``s`` the
    scale.  Then ``x / den`` moves monotonically, away from its fixed point
    or toward it as ``a/s`` is above or below 1 (or by ``b/s`` a cycle when
    ``a == s``), so a test that holds on the cycle's start registers holds
    on a prefix of the cycles from there.  After ``k`` cycles ``den`` is
    ``s**k*den`` and the register is ``a**k*x + b*(a**k - s**k)//(a -
    s)*den``, or ``s**k*x + k*b*s**(k - 1)*den`` when ``a == s``.

    ``estimate`` lowers ``k``, set to the cycles after the current one that
    fit, to the further cycles each test is sure to pass, so the jump never
    passes a cycle that fails; a test that never fails bounds nothing.
    With ``a != s``, the test's form after ``i`` cycles, times ``a - s``, is
    ``u*a**i*e + c*s**i*den``, with ``e = (a - s)*x + b*den`` the scaled
    distance from the fixed point and ``c`` a constant.  When the test can
    fail, the term that shrinks against the other, by ``r`` or ``1/r`` a
    cycle, holds it while it outweighs that other term; the bit lengths of
    ``e`` and ``den`` bound the log of their ratio within a bit each way,
    so the count is the lower end over ``log2 r``, both in ``1 /
    _LOG_UNIT`` parts of a bit, rounded the safe way.  With ``a == s`` the
    count is one exact division.  ``closed`` writes the registers and
    ``den`` after ``k`` cycles, naming each power and coefficient once.
    """
    m, s, unit = len(nx), _lit(scale), _LOG_UNIT

    def reads(f: tuple) -> list[int]:
        return [j for j in range(m) if f[j]]

    def form(j: int, c: int, d: int) -> str:  # c*x_j + d*den
        return total([_term(_lit(v), q) for v, q in ((c, "x%d" % j), (d, "den")) if v])

    read = sorted({j for f in (*nx, *(f for f, _ in tests)) for j in reads(f)})
    if any(len(reads(f)) != 1 for f, _ in tests) or any(
        reads(nx[j]) != [j] or nx[j][j] < 0 for j in read
    ):
        return None
    estimate, counts = [], []
    for f, up in tests:
        [j] = reads(f)
        sign, a, b = 1 if up else -1, nx[j][j], nx[j][m]
        u, v = sign * f[j], sign * f[m]  # the test holds while u*x + v*den > 0 (or >= 0)
        if a == s:  # which moves by u*b*den/s a cycle
            if u * b < 0:
                count = form(j, s * u, s * v) + " - 1" * up
                counts.append("(%s) // (%d*den)" % (count, _lit(-u * b)))
            continue
        # times a - s, the form after i cycles is u*a**i*e + (v*(a - s) - u*b)*s**i*den
        e, c = "e%d" % j, (v * (a - s) - u * b) * (1 if a > s else -1)
        if (c <= 0) if a > s else (c >= 0):  # never fails
            continue
        line = "%s = %s" % (e, form(j, a - s, b))
        estimate += [] if line in estimate else [line]
        p, q = (c, abs(u)) if a > s else (abs(u), -c)
        count = "(%d + %d*(%s)) // %d" % (
            _lit(_log2_floor(p**unit, q**unit) - unit), unit,
            "w - %s.bit_length()" % e if a > s else "%s.bit_length() - w" % e,
            _lit(-_log2_floor(min(a, s) ** unit, max(a, s) ** unit)),
        )
        counts.append(count + (" if %s %s 0 else k" % (e, "<>"[u < 0]) if a > s else ""))
    estimate[:0] = ["w = den.bit_length()"] if estimate else []
    estimate += [line for count in counts for line in ("i = " + count, "if i < k: k = i")]

    def power(v: int) -> str:
        return "1" if v == 1 else "p%d" % v

    closed = ["p%d = %d**k" % (v, v) for v in sorted({s, *(nx[j][j] for j in read)} - {1})]
    for j in read:
        a, b = _lit(nx[j][j]), _lit(nx[j][m])
        x, coef = ("x%d" if a == 1 else power(a) + "*x%d") % j, "g%d" % a
        if a == s:
            coef = "k" if s == 1 else "k*(p%d//%d)" % (s, s)
        else:
            line = "%s = (%s - %s)//%d" % (coef, power(max(a, s)), power(min(a, s)), abs(a - s))
            closed += [] if line in closed else [line]
        if b:
            x += " %s %d*%s*den" % ("+-"[b < 0], abs(b), coef)
        closed += [] if x == "x%d" % j else ["x%d = %s" % (j, x)]
    if s != 1:
        closed.append("den = p%d*den" % s)
    return estimate, closed


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
    that ``tick`` returns to the node it writes.  ``rest``, ``run`` and
    ``need`` are set only on a plan that heads a chain or a loop."""

    __slots__ = ("tick", "shape", "tops", "rest", "run", "need")

    def __init__(self, tick, shape: tuple, tops: tuple[int, ...]) -> None:
        self.key = self.value = self.more = None
        self.tick, self.shape, self.tops = tick, shape, tops


class _Chain(_Plan):
    """The plan at the head of a straight path of plans for one feed item
    (see ``_chain``), re-classed in place, so that its node, its links and
    every path through it see the chain.  ``rest`` is the path's other
    plans in order, ``run`` the ``_fuse`` of the whole path, whose plan
    ``k`` is the head itself for 0 and ``rest[k - 1]`` after that, and
    ``need`` the fewest ticks left in the run of its item for which
    ``_ticks`` calls ``run``.  A chain's ``run`` evaluates the path's
    ``_compose``, one affine map under tests on its start registers, and
    makes all its ticks or, when a test fails, the head's alone, so
    ``need`` is the path's length."""

    __slots__ = ()

    @classmethod
    def make(cls, path: Sequence[_Plan], run) -> _Plan:
        """``path``'s head, made a ``cls`` whose ``run`` is ``run``, the
        ``_fuse`` of the whole path."""
        head = path[0]
        head.__class__ = cls
        head.rest, head.run = tuple(path[1:]), run
        head.need = len(path) * (3 if cls is _Loop else 1)
        return head


class _Loop(_Chain):
    """A chain whose last plan links its first code to the head's node: the
    head of a hot cycle of plans for one feed item (see ``_close``) whose
    ``_compose`` is separable.  Its ``run`` goes round the cycle as that
    map, jumps over the cycles that pass (see ``_jump``), and ticks only
    its head on the cycle it leaves.  ``_ticks`` calls it
    only when 3 whole cycles are left in its item's run, since a call
    costs more than the few ticks it would save."""

    __slots__ = ()


def _node(cn: _CompiledNet, units: tuple[int, ...], fracs: tuple[int, ...]) -> _Node:
    """The node of signature ``(units, fracs)``, made on its first sighting.
    At ``_TICK_PLAN_CAP`` nodes, every node, link, chain, loop and
    generated function goes first."""
    plans = cn.tick_plans
    node = plans.get((units, fracs))
    if node is None:
        if len(plans) >= _TICK_PLAN_CAP:
            # links make cycles; cut them, so the old graph goes at once
            for old in plans.values():
                old.key = old.value = old.more = None
            plans.clear()
            cn.interned.clear()
            cn.chained.clear()
        valid = cn.out_valid
        node = plans[units, fracs] = _Node(units, fracs, valid in units or valid in fracs)
    return node


def _link(cn: _CompiledNet, plan: _Plan, code: int, item: tuple) -> _Node:
    """The node that ``plan``, the plan for feed item ``item``, writes when
    its ``tick`` returns ``code``, linked in ``plan`` on first use: its rows
    at 1, then ``tops``, are the next ``units``, and its fractional rows,
    then ``scaled``, the next ``fracs``, the order in which ``tick`` writes
    their numerators.  A plan's first link may close a cycle of plans for
    ``item`` (see ``_close``); a further one makes it a branch plan, which
    no chain runs through (see ``_unchain``)."""
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
        first = plan.key is None
        if not first:  # before _node, which may empty cn.chained
            _unchain(cn, plan)
        node = _node(cn, (*units, *plan.tops), (*fracs, *[i for i, _ in scaled]))
        plan.put(code, node)
        if first:
            _close(cn, node, item)
    return node


def _close(cn: _CompiledNet, start: _Node, item: tuple) -> None:
    """Fuse the cycle of plans for feed item ``item`` through ``start``, if
    the first link just made to it closed one.

    From ``start``, follow each node's plan for ``item``, a chain's head
    included, to the node that plan linked first.  When that path comes
    back to ``start`` with every plan built and no node that ``stops``, it
    is a hot cycle: for as long as the feed repeats ``item``, the net goes
    round it while each tick returns its plan's first code.  When its
    ``_fuse`` from the first plan from ``start`` on that lies inside no
    chain has a ``run``, that is when its map jumps, that plan becomes a
    ``_Loop`` (see ``_Chain.make``), and a chain it headed is gone (see
    ``_unchain``); a cycle that cannot jump is left to chains and single
    replays.  Every cycle closes on a first link, so each is fused at
    most once; a path into another cycle meets its ``_Loop`` or a node
    that stops, or goes round a cycle that cannot jump, and no path is
    followed further than there are nodes.
    """
    node, cycle = start, []
    while len(cycle) < len(cn.tick_plans):
        plan = node.get(item)
        if plan.__class__ not in (_Plan, _Chain) or node.stops:
            return
        cycle.append(plan)
        node = plan.value
        if node is start:
            heads = [k for k, plan in enumerate(cycle) if cn.chained.get(plan) is None]
            if heads:
                path = cycle[heads[0]:] + cycle[:heads[0]]
                run = _fuse(path)
                if run is not None:
                    _unchain(cn, path[0])
                    _Loop.make(path, run)
            return


def _chain(cn: _CompiledNet, node: _Node, item: tuple, plan: _Plan) -> tuple[_Plan, bool]:
    """The chain that ``plan``, the plan for feed item ``item`` in
    ``node``, heads where ``_ticks`` enters a straight path, built on the
    first entry at which every plan on the path is built; with whether the
    next node is still such an entry.

    The path follows each plan's one link for as long as the plan has
    linked only one code, lies in no chain and was not met before on the
    path, and its node does not stop; so it ends before a branch plan, a
    ``_Loop``, a chain, or a node that stops, and each plan sits in at
    most one chain, while a plan recorded as starting none may lie inside
    a longer path.  A path that ends inside another chain, before its last
    plan, splits that chain there (see ``_unchain``), and its plans from
    there on become a chain of their own.  While the path leads to a node
    that does not stop and has not built its plan for ``item`` (or not
    met ``item``), no chain is built, and the next node is no entry.  A
    path of one plan, or of none when ``plan`` branches, is no chain:
    ``plan`` goes into ``cn.chained`` as starting none (see ``_settle``),
    and the next node is again an entry; a walk from it stops after it
    until a chain breaks up.  Else ``plan`` becomes a ``_Chain``.
    """
    chained, path, at, head = cn.chained, [], node, plan
    while (plan.__class__ is _Plan and plan.more is None and chained.get(plan) is None
           and not at.stops and plan not in path):
        path.append(plan)
        at = plan.value
        plan = at.get(item, 0)
    if plan.__class__ is int and not at.stops:
        return head, False
    owner = chained.get(plan)
    if owner.__class__ is _Chain and plan is not owner.rest[-1]:
        tail = owner.rest[owner.rest.index(plan):]
        _unchain(cn, owner)
        _settle(cn, tail, len(at.fracs))
    _settle(cn, path or [head], len(node.fracs))
    return head, head.__class__ is _Plan


def _settle(cn: _CompiledNet, path: Sequence[_Plan], m: int) -> None:
    """Make ``path`` from ``m`` start registers a chain whose other plans
    join ``cn.chained``.  A path of one plan is no chain, and its plan goes
    there as starting none, until some chain breaks up (see
    ``_unchain``)."""
    if len(path) > 1:
        chain = _Chain.make(path, _fuse(path, m, False))
        cn.chained.update(dict.fromkeys(chain.rest, chain))
    else:
        cn.chained[path[0]] = None


def _unchain(cn: _CompiledNet, plan: _Plan) -> None:
    """The chain that ``plan`` heads or lies in, if any, becomes plain
    plans again, which the next entries chain anew: ``_link`` calls this
    when ``plan`` links a second code, ``_chain`` when a path joins a
    chain inside, and ``_close`` when a chain's head becomes a loop's.
    Every plan recorded as starting none is walked again too, since one
    in front of the chain may now start a longer path.  A loop stays as
    it is, since its ``run`` already ticks its head alone on the cycle it
    leaves."""
    head = plan if plan.__class__ is _Chain else cn.chained.get(plan)
    if head.__class__ is _Chain:
        for dropped in [p for p, h in cn.chained.items() if h is None or h is head]:
            del cn.chained[dropped]
        head.__class__ = _Plan
        head.rest = head.run = head.need = None


def _ticks(
    cn: _CompiledNet, state: _IntState, feed: Sequence[tuple[tuple[tuple[int, ...], int], int]]
) -> tuple[int, _IntState]:
    """Tick from ``state`` in integers, with ``feed`` as runs ``(item,
    ticks)`` of one feed item, an ``(inputs, validation)`` pair, each fed
    for its number of ticks, until the net's ``out_valid`` is positive or
    the feed ends; return the number of ticks taken and the state reached.
    ``run`` feeds the runs of its word's symbols and then one run of the
    blank item, so each run's end is known before its first tick.

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
    tuple and hashes no signature.

    A ``_Chain`` or ``_Loop`` met in place of a plan is entered when the
    ticks left in its item's run cover its ``need``: one call of its
    ``run`` then makes a straight path's ticks at once, or goes round a
    cycle's whole cycles, and the kernel goes on from the plan and code it
    returns; else it ticks as the plan it is.  Either evaluates a composed
    map (see ``_compose`` and ``_fuse``), which writes the values that
    ticking its plans one by one writes; a loop jumps, writing the values
    after many cycles in one closed form (see ``_jump``).  No
    node inside either stops, so a run takes the ticks it would take tick
    by tick.  Chains are built lazily (see ``_chain``) where the kernel
    enters a straight path: at the start of the blank tail, after a code
    other than a plan's first, and after a chain or loop returns; so a cold
    net builds none.

    The denominator is not reduced on every tick: the gcd is divided out
    only once it reaches ``limit`` bits, that is once it is at least
    ``bound``, and ``limit`` is then set to the reduced size plus
    ``_SLACK_BITS``; a chain or loop leaves that test until its call
    returns, so a jump of a whole drain is followed by one reduction.  A
    unit's numerator is the denominator itself, so only ``xs`` join the
    gcd, and with no fractional neuron it becomes 1.

    Each tick ends by reading the new node's ``stops``.  The state is kept
    in local variables from tick to tick and made into an ``_IntState``
    once, at the end; ``state`` itself is only read.
    """
    xs, den, limit = state.xs, state.den, state.limit
    bound = 1 << limit >> 1  # 0 for a limit of 0, which forces a reduction
    node = _node(cn, state.units, state.fracs)
    d, last, Plan, blank, chained = cn.d, _SIGHTINGS - 1, _Plan, cn.blank, cn.chained
    t, entry = 0, False
    for item, size in feed:
        end = t + size
        entry = entry or item is blank
        while t < end:
            t += 1
            plan = node.value if node.key is item else node.get(item, 0)
            if entry and plan.__class__ is Plan and plan not in chained:
                plan, entry = _chain(cn, node, item, plan)
            if plan.__class__ is Plan:
                code, xs, top = plan.tick(xs, den)
                if plan.key == code:
                    node = plan.value
                else:
                    node, entry = _link(cn, plan, code, item), True
            elif plan.__class__ is int:  # the sightings before the plan is built
                entry = False
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
                    node = _link(cn, plan, code, item)
            else:  # a _Chain or a _Loop
                left = end - t + 1  # the ticks left in this item's run
                if left >= plan.need:
                    n, k, code, xs, top = plan.run(xs, den, left)
                    t += n - 1
                    entry = True
                    if k:
                        plan = plan.rest[k - 1]
                else:
                    code, xs, top = plan.tick(xs, den)
                if plan.key == code:
                    node = plan.value
                else:
                    node, entry = _link(cn, plan, code, item), True
            if top >= bound:
                g = gcd(top, *xs)
                if g > 1:
                    xs = [x // g for x in xs]
                    top //= g
                limit = top.bit_length() + _SLACK_BITS
                bound = 1 << limit >> 1
            den = top
            if node.stops:
                return t, _IntState(cn.n, node.units, node.fracs, xs, den, limit)
    return t, _IntState(cn.n, node.units, node.fracs, xs, den, limit)


def _fast_step(
    cn: _CompiledNet, state: Sequence[Value], inputs: Sequence[int], validation: int
) -> _IntState:
    """One tick of ``_ticks`` from ``state``, an ``_IntState`` or any
    sequence of values in [0, 1], returned as a new ``_IntState``.  On a
    one-tick feed the watch on ``out_valid`` changes nothing."""
    if not cn.exact:
        raise ValueError("network contains a lazily-known scalar")
    if not isinstance(state, _IntState):
        state = _IntState.of(state)
    return _ticks(cn, state, (((tuple(inputs), validation), 1),))[1]


# ---------------------------------------------------------------------------
# Word protocol


@dataclass(frozen=True)
class RunResult:
    """What ``run`` reads off a word: the ``verdict``, the ``ticks`` taken
    (the verdict tick, or the whole budget on ``Verdict.TIMEOUT``), and
    whether the output flag line was 1 on the verdict tick (``flagged``;
    False on a timeout or when the net has no ``out_flag``)."""

    verdict: Verdict
    ticks: int
    flagged: bool = False


#: How far ``run`` refines lazy scalars before a sign counts as undecidable,
#: on a net that carries a stream with no known horizon.
_LAZY_BUDGET = PrecisionBudget(max_digits=128)


def run(
    net: Network,
    word: str,
    budget: int,
    *,
    record_trace: bool = False,
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
    ``_lazy_ticks``), which stops on the verdict tick, and the output data
    and flag lines are read once, on that tick, from the state it returns.

    ``record_trace`` is accepted only as False, for callers that still
    pass it; the per-tick trace it once selected is gone, and True raises
    ``ConfigError``.
    """
    if record_trace:
        raise ConfigError("run records no per-tick trace; record_trace must be False")
    if net.out_data is None or net.out_valid is None:
        raise ConfigError("network has no designated output lines")
    if budget < len(word) + 1:
        raise ConfigError(
            f"budget {budget} is too small for a {len(word)}-symbol word"
        )
    cn = _compiled(net)
    try:
        feed = [(cn.shown[ch], len(list(each))) for ch, each in groupby(word)]
    except KeyError as missing:
        net.line_for_symbol(missing.args[0])  # raises the ConfigError that names it
        raise
    feed.append((cn.blank, budget - len(word)))
    if cn.exact:
        ticks, state = _ticks(cn, _IntState(net.n_neurons, (), (), [], 1), feed)
        on = lambda i: i in state.units or i in state.fracs
    else:
        ticks, state = _lazy_ticks(net, feed)
        on = lambda i: signal(state[i])
    if not on(net.out_valid):
        return RunResult(Verdict.TIMEOUT, ticks)
    verdict = Verdict.ACCEPT if on(net.out_data) else Verdict.REJECT
    flagged = net.out_flag is not None and bool(on(net.out_flag))
    return RunResult(verdict, ticks, flagged)


def _lazy_ticks(
    net: Network, feed: Sequence[tuple[tuple[tuple[int, ...], int], int]]
) -> tuple[int, NetworkState]:
    """``step`` on interval enclosures from the zero state, one tick per
    item of ``feed``'s runs ``(item, ticks)`` as in ``_ticks``, until
    ``out_valid`` is positive or the feed ends; returns the number of ticks
    taken and the state reached, as ``_ticks`` does.  Only ``out_valid`` is
    read on each tick, so an output data or flag enclosure that straddles 0
    before the verdict tick is no error."""
    state, t = zero_state(net), 0
    for inputs, validation in chain.from_iterable(repeat(item, size) for item, size in feed):
        t += 1
        state = step(net, state, inputs, validation, budget=_LAZY_BUDGET)
        if signal(state[net.out_valid]):
            break
    return t, state
