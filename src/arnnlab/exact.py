"""Exact number tower and the activation functions of the network dynamics.

Everything here is exact: integers and rationals are stdlib ``Fraction``
values, lazily-known reals are demand-driven digit streams with memoised
prefixes, and oracle-backed reals are finite truncated tables.  No floating
point is used anywhere.

Digit streams denote values in the half-open unit interval [0, 1) and are
assumed canonical (no eventual all-(base-1) tail), which is what makes the
half-open prefix enclosures used by :func:`compare_with_precision` sound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import HorizonExceeded, ShapeError, UnknownSign

__all__ = [
    "Cmp",
    "ExactScalar",
    "Interval",
    "PrecisionBudget",
    "UnitReal",
    "affine_combine",
    "compare_with_precision",
    "digit_at",
    "saturated_sigma",
    "signal",
]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Degree label carried by every computable scalar.
BOTTOM_LABEL = "0"


class Cmp(Enum):
    """Result of a precision-bounded comparison."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PrecisionBudget:
    """How hard to work before giving up on a lazily-known value.

    ``max_digits`` sets the enclosure target 2**-max_digits; operations
    refine their operands as far as needed to reach it.  ``on_exhaustion``
    selects between reporting ``Cmp.UNKNOWN`` and raising ``UnknownSign``
    for operations whose result admits an unknown verdict.  Operations that
    must return a value (``signal``, ``saturated_sigma``) always raise.
    """

    max_digits: int = 64
    on_exhaustion: str = "unknown"  # "unknown" | "fail"

    def __post_init__(self) -> None:
        if self.max_digits < 1:
            raise ValueError("max_digits must be >= 1")
        if self.on_exhaustion not in ("unknown", "fail"):
            raise ValueError("on_exhaustion must be 'unknown' or 'fail'")


class UnitReal:
    """A real in [0, 1) given by a demand-driven digit expansion.

    Digits (base 2 or 4) are pulled from a generator and memoised, so
    ``digit_at`` is deterministic and order-independent.  A finite
    ``horizon`` records where the expansion ends: past it the digits are
    zero, unless ``strict_horizon`` is set, in which case querying past the
    horizon raises :class:`HorizonExceeded` (the oracle-backed case, where
    "unknown" must stay distinguishable from "zero").

    The memo is single-owner mutable state; to share an expansion across
    threads, materialise a ``snapshot(n)`` and share that instead.
    """

    def __init__(
        self,
        digits: Sequence[int] = (),
        *,
        gen: Optional[Iterator[int]] = None,
        base: int = 2,
        horizon: Optional[int] = None,
        strict_horizon: bool = False,
        degree_label: Optional[str] = None,
        exact_value: Optional[Fraction] = None,
    ) -> None:
        if base not in (2, 4):
            raise ValueError("base must be 2 or 4")
        self.base = base
        self._memo: list[int] = list(digits)
        self._gen = gen
        if gen is None and horizon is None:
            horizon = len(self._memo)
        self.horizon = horizon
        self.strict_horizon = strict_horizon
        self.degree_label = degree_label
        self.exact_value = exact_value
        for d in self._memo:
            self._check_digit(d)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_digits(
        cls,
        digits: Iterable[int],
        *,
        base: int = 2,
        strict_horizon: bool = False,
        degree_label: Optional[str] = None,
    ) -> "UnitReal":
        """Finite expansion; digits past the end are zero (or an error)."""
        ds = tuple(digits)
        numerator = 0
        for d in ds:
            numerator = numerator * base + d
        value = Fraction(numerator, base ** len(ds)) if ds else Fraction(0)
        return cls(
            ds,
            base=base,
            horizon=len(ds),
            strict_horizon=strict_horizon,
            degree_label=degree_label,
            exact_value=value,
        )

    @classmethod
    def from_fraction(
        cls, value: Union[Fraction, int], *, base: int = 2, degree_label: Optional[str] = None
    ) -> "UnitReal":
        """Infinite expansion of an exact rational in [0, 1) by long division."""
        value = Fraction(value)
        if not (0 <= value < 1):
            raise ValueError("value must lie in [0, 1)")

        def longdiv() -> Iterator[int]:
            num, den = value.numerator, value.denominator
            while True:
                num *= base
                digit, num = divmod(num, den)
                yield digit

        return cls(gen=longdiv(), base=base, degree_label=degree_label, exact_value=value)

    @classmethod
    def from_function(
        cls,
        fn: Callable[[int], int],
        *,
        base: int = 2,
        degree_label: Optional[str] = None,
    ) -> "UnitReal":
        """Expansion whose n-th digit (1-based) is ``fn(n)``."""
        gen = (fn(n) for n in itertools.count(1))
        return cls(gen=gen, base=base, degree_label=degree_label)

    # -- digit access ----------------------------------------------------

    def _check_digit(self, d: int) -> None:
        if not isinstance(d, int) or not 0 <= d < self.base:
            raise ValueError(f"digit {d!r} out of range for base {self.base}")

    def digit_at(self, n: int) -> int:
        """The n-th digit, 1-based."""
        if n < 1:
            raise ValueError("digit positions are 1-based")
        if self.horizon is not None and n > self.horizon:
            if self.strict_horizon:
                raise HorizonExceeded(
                    f"digit {n} requested but horizon is {self.horizon}"
                )
            return 0
        while len(self._memo) < n:
            assert self._gen is not None
            try:
                d = next(self._gen)
            except StopIteration:
                # Generator ran dry: the expansion is finite after all.
                self._gen = None
                self.horizon = len(self._memo)
                return self.digit_at(n)
            self._check_digit(d)
            self._memo.append(d)
        return self._memo[n - 1]

    def prefix(self, n: int) -> tuple[int, ...]:
        """First n digits as a tuple."""
        return tuple(self.digit_at(i) for i in range(1, n + 1))

    def digit_string(self, n: int) -> str:
        return "".join(str(d) for d in self.prefix(n))

    def truncated_fraction(self, n: int) -> Fraction:
        """Exact value of the first n digits."""
        numerator = 0
        for i in range(1, n + 1):
            numerator = numerator * self.base + self.digit_at(i)
        return Fraction(numerator, self.base**n) if n else ZERO

    def bounds(self, n: int) -> tuple[Fraction, Fraction]:
        """Half-open enclosure [lo, hi) of the value from the first n digits.

        When the expansion is known finite and n reaches the horizon the two
        bounds coincide (the value is exact); this holds for strict-horizon
        expansions too, whose digits past the horizon are not queried.
        """
        if self.horizon is not None and n >= self.horizon:
            lo = self.truncated_fraction(self.horizon)
            return lo, lo
        lo = self.truncated_fraction(n)
        return lo, lo + Fraction(1, self.base**n)

    def snapshot(self, n: int) -> "UnitReal":
        """Frozen finite truncation of the first n digits (shareable)."""
        return UnitReal.from_digits(
            self.prefix(n), base=self.base, degree_label=self.degree_label
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = "".join(str(d) for d in self._memo[:12])
        tail = "..." if self.horizon is None or self.horizon > 12 else ""
        return f"UnitReal(base={self.base}, 0.{shown}{tail})"


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of exact rationals."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("lo must not exceed hi")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Union[Fraction, int]) -> bool:
        return self.lo <= value <= self.hi

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def clamp_unit(self) -> "Interval":
        lo = min(max(self.lo, ZERO), ONE)
        hi = min(max(self.hi, ZERO), ONE)
        return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Tagged exact scalars


class ScalarKind(Enum):
    INTEGER = "integer"
    RATIONAL = "rational"
    STREAM = "stream"
    ORACLE = "oracle"


#: Packings of an oracle table into a unit real.
BINARY = "binary"
CANTOR4 = "cantor4"


@dataclass(frozen=True)
class ExactScalar:
    """Tagged exact number: integer, rational, digit stream, or oracle real.

    Integer and rational scalars always carry the bottom degree label "0".
    Stream scalars default to "0" (a computable sequence); oracle scalars
    carry whatever label was declared for them, possibly none.
    """

    kind: ScalarKind
    value: Optional[Fraction] = None
    stream: Optional[UnitReal] = None
    table: object = None  # OracleTable; kept loose to avoid an import cycle
    encoding: Optional[str] = None
    degree_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind in (ScalarKind.INTEGER, ScalarKind.RATIONAL):
            if self.degree_label != BOTTOM_LABEL:
                raise ValueError("integer/rational scalars carry the label '0'")

    @classmethod
    def integer(cls, k: int) -> "ExactScalar":
        return cls(ScalarKind.INTEGER, value=Fraction(k), degree_label=BOTTOM_LABEL)

    @classmethod
    def rational(cls, numerator: int, denominator: int = 1) -> "ExactScalar":
        return cls.from_fraction(Fraction(numerator, denominator))

    @classmethod
    def from_fraction(cls, value: Union[Fraction, int]) -> "ExactScalar":
        frac = Fraction(value)
        if frac.denominator == 1:
            return cls.integer(frac.numerator)
        return cls(ScalarKind.RATIONAL, value=frac, degree_label=BOTTOM_LABEL)

    @classmethod
    def from_stream(cls, real: UnitReal, label: Optional[str] = None) -> "ExactScalar":
        return cls(
            ScalarKind.STREAM,
            stream=real,
            degree_label=label if label is not None else (real.degree_label or BOTTOM_LABEL),
        )

    @classmethod
    def oracle(cls, table, encoding: str = CANTOR4, label: Optional[str] = None) -> "ExactScalar":
        if encoding not in (BINARY, CANTOR4):
            raise ValueError(f"unknown oracle encoding {encoding!r}")
        return cls(ScalarKind.ORACLE, table=table, encoding=encoding, degree_label=label)

    # -- views -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        """True when the scalar denotes a single known rational."""
        return self.exact_fraction() is not None

    def exact_fraction(self) -> Optional[Fraction]:
        """The scalar as an exact ``Fraction``, or None for lazy streams.

        Oracle scalars denote the truncated rational packed from their
        table; streams are exact only when their expansion is finite.
        """
        if self.kind in (ScalarKind.INTEGER, ScalarKind.RATIONAL):
            return self.value
        if self.kind == ScalarKind.ORACLE:
            return self.table.packed_value(self.encoding)
        assert self.stream is not None
        if self.stream.exact_value is not None:
            return self.stream.exact_value
        if self.stream.horizon is not None and not self.stream.strict_horizon:
            return self.stream.truncated_fraction(self.stream.horizon)
        return None

    def digits(self) -> UnitReal:
        """Digit-expansion view; the scalar must denote a value in [0, 1)."""
        if self.kind == ScalarKind.STREAM:
            return self.stream
        if self.kind == ScalarKind.ORACLE:
            return self.table.digit_view(self.encoding, degree_label=self.degree_label)
        value = self.value
        if not (0 <= value < 1):
            raise ValueError("only scalars in [0, 1) have a digit expansion")
        return UnitReal.from_fraction(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind in (ScalarKind.INTEGER, ScalarKind.RATIONAL):
            return f"ExactScalar({self.value})"
        if self.kind == ScalarKind.ORACLE:
            return f"ExactScalar(oracle {self.encoding}, label={self.degree_label!r})"
        return f"ExactScalar(stream, label={self.degree_label!r})"


#: Anything the arithmetic operations accept as an operand.
Operand = Union[int, Fraction, ExactScalar, UnitReal, Interval]


def _resolve(x: Operand) -> Union[Fraction, UnitReal, Interval]:
    """Normalise an operand to Fraction (exact), UnitReal, or Interval."""
    if isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, ExactScalar):
        exact = x.exact_fraction()
        if exact is not None:
            return exact
        return x.stream
    if isinstance(x, (UnitReal, Interval)):
        return x
    raise TypeError(f"unsupported operand {x!r}")


def digit_at(x: Union[UnitReal, ExactScalar], n: int) -> int:
    """The n-th digit (1-based) of the expansion of ``x``."""
    if isinstance(x, ExactScalar):
        x = x.digits()
    return x.digit_at(n)


def _require_budget(budget: Optional[PrecisionBudget], what: str) -> PrecisionBudget:
    if budget is None:
        raise ValueError(f"{what} on a lazily-known value needs a PrecisionBudget")
    return budget


def signal(x: Operand, budget: Optional[PrecisionBudget] = None) -> int:
    """Binary threshold: 0 for x <= 0, 1 otherwise."""
    r = _resolve(x)
    if isinstance(r, Fraction):
        return 1 if r > 0 else 0
    if isinstance(r, Interval):
        if r.hi <= 0:
            return 0
        if r.lo > 0:
            return 1
        raise UnknownSign(f"sign of interval [{r.lo}, {r.hi}] is ambiguous")
    budget = _require_budget(budget, "signal")
    # A unit real is >= 0; it is positive iff some digit is nonzero, and a
    # finite expansion pins the value exactly once the horizon is reached.
    n = 1
    while True:
        lo, hi = r.bounds(n)
        if lo > 0:
            return 1
        if hi == lo:
            return 0
        if n >= budget.max_digits:
            break
        n = min(2 * n, budget.max_digits)
    raise UnknownSign(
        f"stream is zero through {budget.max_digits} digits; sign undecided"
    )


def saturated_sigma(
    x: Operand, budget: Optional[PrecisionBudget] = None
) -> Union[Fraction, UnitReal, Interval]:
    """Saturated-linear activation: clamp into [0, 1].

    Exact operands give exact results.  A unit real is its own image
    (sigma is the identity on [0, 1)).  Intervals are clamped endpoint-wise,
    which is exact because sigma is monotone.
    """
    r = _resolve(x)
    if isinstance(r, Fraction):
        if r < 0:
            return ZERO
        if r > 1:
            return ONE
        return r
    if isinstance(r, Interval):
        return r.clamp_unit()
    return r  # UnitReal: already in [0, 1)


def affine_combine(
    weights: Sequence[Operand],
    states: Sequence[Operand],
    input_weights: Sequence[Operand] = (),
    inputs: Sequence[int] = (),
    bias: Operand = 0,
    budget: Optional[PrecisionBudget] = None,
) -> Union[Fraction, Interval]:
    """Exact value of sum(w*x) + sum(b*u) + c.

    All-exact operands give an exact ``Fraction``.  With lazy operands a
    budget is required and the result is a closed interval certainly
    containing the true value; stream operands are refined until the width
    reaches 2**-max_digits, or comes within that of the narrowest width
    refinement can reach (interval operands contribute their own width,
    which no amount of refinement can shrink).
    """
    if len(weights) != len(states):
        raise ShapeError(f"{len(weights)} weights vs {len(states)} states")
    if len(input_weights) != len(inputs):
        raise ShapeError(f"{len(input_weights)} input weights vs {len(inputs)} inputs")

    exact_total = ZERO
    lazy_terms: list[tuple[object, object]] = []

    def add_term(coef: Operand, operand: Operand) -> None:
        nonlocal exact_total
        c = _resolve(coef)
        v = _resolve(operand)
        if isinstance(c, Fraction) and isinstance(v, Fraction):
            exact_total += c * v
        elif (isinstance(c, Fraction) and c == 0) or (isinstance(v, Fraction) and v == 0):
            pass
        else:
            lazy_terms.append((c, v))

    for w, s in zip(weights, states):
        add_term(w, s)
    for w, u in zip(input_weights, inputs):
        add_term(w, Fraction(int(u)))
    add_term(ONE, bias)

    if not lazy_terms:
        return exact_total

    budget = _require_budget(budget, "affine_combine")
    target = Fraction(1, 2**budget.max_digits)
    share = target / len(lazy_terms)

    def enclose(value, n: int) -> Interval:
        if isinstance(value, Fraction):
            return Interval(value, value)
        if isinstance(value, Interval):
            return value
        lo, hi = value.bounds(n)
        return Interval(lo, hi)

    def product(a: Interval, b_: Interval) -> Interval:
        corners = [a.lo * b_.lo, a.lo * b_.hi, a.hi * b_.lo, a.hi * b_.hi]
        return Interval(min(corners), max(corners))

    def floor(left, right, n: int) -> Fraction:
        """A lower bound on the term's width however far streams refine."""
        for a, b_ in ((left, right), (right, left)):
            if isinstance(a, UnitReal) and isinstance(b_, Interval):
                # the stream tends to a value >= its lower bound (>= 0), and
                # that value times the fixed interval is at least this wide
                return a.bounds(n)[0] * b_.width
        return ZERO

    result = Interval(exact_total, exact_total)
    for left, right in lazy_terms:
        # Refine stream operands until the term enclosure is narrow enough,
        # or until more digits cannot narrow it by more than the share: a
        # fixed interval operand bounds how far the width can shrink.
        n = 1
        while True:
            term = product(enclose(left, n), enclose(right, n))
            refinable = any(
                isinstance(v, UnitReal)
                and (v.horizon is None or n < v.horizon)
                for v in (left, right)
            )
            if not refinable or term.width - floor(left, right, n) <= share:
                break
            n *= 2
        result = result.add(term)
    return result


def compare_with_precision(
    x: Operand, y: Operand, budget: PrecisionBudget
) -> Cmp:
    """Three-way comparison, with ``Cmp.UNKNOWN`` for undecided lazy pairs.

    Exact operands compare exactly.  Digit streams are compared through
    half-open prefix enclosures [prefix, prefix + base**-n), refined up to
    ``budget.max_digits`` digits; equality of two streams is only ever
    reported for the identical stream object or for finite expansions that
    pin the values down exactly.
    """
    if isinstance(x, (UnitReal, ExactScalar)) and x is y:
        return Cmp.EQUAL
    rx = _resolve(x)
    ry = _resolve(y)
    if isinstance(rx, UnitReal) and isinstance(ry, UnitReal) and rx is ry:
        return Cmp.EQUAL
    if isinstance(rx, Interval) or isinstance(ry, Interval):
        raise TypeError("compare_with_precision does not accept intervals")

    def bounds_at(r: Union[Fraction, UnitReal], n: int) -> tuple[Fraction, Fraction, bool]:
        # (lo, hi, hi_exclusive)
        if isinstance(r, Fraction):
            return r, r, False
        lo, hi = r.bounds(n)
        return lo, hi, hi != lo

    if isinstance(rx, Fraction) and isinstance(ry, Fraction):
        if rx < ry:
            return Cmp.LESS
        if rx > ry:
            return Cmp.GREATER
        return Cmp.EQUAL

    n = 1
    while True:
        xlo, xhi, xopen = bounds_at(rx, n)
        ylo, yhi, yopen = bounds_at(ry, n)
        # x in [xlo, xhi) when open, x == xlo when closed; same for y.
        if xopen:
            if xhi <= ylo:  # x < xhi <= ylo <= y
                return Cmp.LESS
        elif xlo < ylo:  # x == xlo < ylo <= y
            return Cmp.LESS
        if yopen:
            if xlo >= yhi:  # y < yhi <= xlo <= x
                return Cmp.GREATER
        elif xlo > ylo:  # x >= xlo > ylo == y
            return Cmp.GREATER
        if not xopen and not yopen:
            return Cmp.EQUAL  # both pinned and neither side decided above
        if n >= budget.max_digits:
            break
        n = min(n * 2, budget.max_digits)
    if budget.on_exhaustion == "fail":
        raise UnknownSign(
            f"comparison undecided after {budget.max_digits} digits"
        )
    return Cmp.UNKNOWN
