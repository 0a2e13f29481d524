"""Bijections between formal languages, string indices, and unit reals.

Strings over a finite ordered alphabet are ranked length-first then
lexicographically, 1-based with the empty string at index 1 (for {a, b}:
e->1, a->2, b->3, aa->4, ab->5, ...).  A language is an alphabet plus a
membership test, whether the test reads a finite member set or a built-in
rule.  A language L is packed into the characteristic real r_L whose k-th
binary digit records membership of the k-th string.  An oracle table holds
the first bits of such a real, and its one packed form is a strict digit
stream: base 2, or base-4 "Cantor" digits {1, 3}, which keep the decode
gadgets away from the threshold boundaries of the network activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    AlphabetError,
    EncodingError,
    HorizonExceeded,
    MembershipUndecided,
)
from .exact import BINARY, CANTOR4, UnitReal, saturated_sigma, signal

__all__ = [
    "Alphabet",
    "Language",
    "OracleTable",
    "cantor_decode_step",
    "cantor_encode",
    "decode_membership",
    "encode_language",
    "index_of_string",
    "make_rule",
    "string_of_index",
]


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free symbols; the order fixes lexicographic rank."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise AlphabetError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise AlphabetError("alphabet symbols must be distinct")
        if not all(isinstance(sym, str) and len(sym) == 1 for sym in self.symbols):
            raise AlphabetError(f"alphabet symbols must be single characters: {self.symbols}")

    @classmethod
    def of(cls, symbols: Union[str, Iterable[str]]) -> "Alphabet":
        return cls(tuple(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def rank(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {self.symbols}")

    def check(self, s: Sequence[str]) -> None:
        for ch in s:
            if ch not in self.symbols:
                raise AlphabetError(f"symbol {ch!r} not in alphabet {self.symbols}")


def _count_shorter(k: int, length: int) -> int:
    """Number of strings of length < ``length`` over a k-symbol alphabet."""
    if k == 1:
        return length
    return (k**length - 1) // (k - 1)


def index_of_string(s: str, alphabet: Alphabet) -> int:
    """Length-then-lexicographic rank of ``s``, 1-based (empty string -> 1)."""
    alphabet.check(s)
    k = len(alphabet)
    lexrank = 0
    for ch in s:
        lexrank = lexrank * k + alphabet.rank(ch)
    return _count_shorter(k, len(s)) + 1 + lexrank


def string_of_index(index: int, alphabet: Alphabet) -> str:
    """Inverse of :func:`index_of_string`."""
    if index < 1:
        raise ValueError("string indices are 1-based")
    k = len(alphabet)
    length = 0
    while _count_shorter(k, length + 1) < index:
        length += 1
    lexrank = index - 1 - _count_shorter(k, length)
    digits = []
    for _ in range(length):
        lexrank, r = divmod(lexrank, k)
        digits.append(alphabet.symbols[r])
    return "".join(reversed(digits))


# ---------------------------------------------------------------------------
# Languages


@dataclass(frozen=True)
class Language:
    """A finite alphabet plus a membership test.

    The test may return None for a string it cannot decide; ``contains``
    turns that into :class:`MembershipUndecided` rather than guessing.
    """

    alphabet: Alphabet
    test: Callable[[str], Optional[bool]]

    @classmethod
    def from_members(cls, alphabet: Alphabet, members: Iterable[str]) -> "Language":
        members = frozenset(members)
        for s in members:
            alphabet.check(s)
        return cls(alphabet, members.__contains__)

    @classmethod
    def from_rule(cls, alphabet: Alphabet, name: str, *params: str) -> "Language":
        return cls(alphabet, make_rule(alphabet, name, *params))

    def contains(self, s: str) -> bool:
        self.alphabet.check(s)
        result = self.test(s)
        if result is None:
            raise MembershipUndecided(f"membership of {s!r} is undecided")
        return bool(result)

    def __contains__(self, s: str) -> bool:
        return self.contains(s)


def make_rule(alphabet: Alphabet, name: str, *params: str) -> Callable[[str], bool]:
    """The membership test of a built-in decision rule usable in language files.

    parity <sym>   -- even number of occurrences of <sym>
    anbn [a b]     -- a^n b^n for n >= 0
    prefix <p>     -- strings starting with <p>
    abstar [a b]   -- one <a> followed by any number of <b>s
    """
    if name == "parity":
        if len(params) != 1:
            raise ValueError("parity takes one symbol parameter")
        sym = params[0]
        alphabet.rank(sym)
        fn = lambda s: s.count(sym) % 2 == 0
    elif name == "anbn":
        a, b = _two_symbols(alphabet, name, params)

        def fn(s: str, a=a, b=b) -> bool:
            n = len(s) // 2
            return len(s) % 2 == 0 and s == a * n + b * n

    elif name == "prefix":
        if len(params) != 1:
            raise ValueError("prefix takes one string parameter")
        p = params[0]
        alphabet.check(p)
        fn = lambda s, p=p: s.startswith(p)
    elif name == "abstar":
        a, b = _two_symbols(alphabet, name, params)
        fn = lambda s, a=a, b=b: len(s) >= 1 and s[0] == a and set(s[1:]) <= {b}
    else:
        raise ValueError(f"unknown rule {name!r}")
    return fn


def _two_symbols(alphabet: Alphabet, name: str, params: tuple[str, ...]) -> tuple[str, ...]:
    """A rule's two symbol parameters; by default the alphabet's first two."""
    pair = params or alphabet.symbols[:2]
    if len(pair) != 2:
        raise ValueError(f"{name} takes two symbols, or none on an alphabet of two or more")
    for sym in pair:
        alphabet.rank(sym)
    return pair


# ---------------------------------------------------------------------------
# Oracle tables


@dataclass(frozen=True)
class OracleTable:
    """Finite truncated characteristic function: bit per string index.

    ``bits[i - 1]`` answers index i.  Read a table through ``digit_view`` or
    :func:`decode_membership`, which raise :class:`HorizonExceeded` past
    the horizon rather than guessing.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError("table entries must be bits")

    @property
    def horizon(self) -> int:
        return len(self.bits)

    @classmethod
    def from_language(cls, language: Language, horizon: int) -> "OracleTable":
        real = encode_language(language, horizon)
        return cls(real.prefix(horizon))

    @classmethod
    def from_entries(cls, entries: dict[int, int], horizon: int) -> "OracleTable":
        """Sparse entries; omitted indices default to 0."""
        if horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        bits = [0] * horizon
        for i, b in entries.items():
            if not 1 <= i <= horizon:
                raise ValueError(f"index {i} outside 1..{horizon}")
            bits[i - 1] = b
        return cls(tuple(bits))

    def digit_view(self, encoding: str) -> UnitReal:
        """Digit expansion of the packed table, strict past the horizon."""
        if encoding == BINARY:
            digits, base = self.bits, 2
        elif encoding == CANTOR4:
            digits, base = tuple(2 * b + 1 for b in self.bits), 4
        else:
            raise ValueError(f"unknown encoding {encoding!r}")
        return UnitReal(digits, base=base, strict_horizon=True)


# ---------------------------------------------------------------------------
# Characteristic reals


def encode_language(language: Language, n_digits: int) -> UnitReal:
    """First ``n_digits`` binary digits of r_L: digit k = [k-th string in L]."""
    if n_digits < 1:
        raise ValueError("need at least one digit")
    digits = []
    for k in range(1, n_digits + 1):
        s = string_of_index(k, language.alphabet)
        digits.append(1 if language.contains(s) else 0)
    return UnitReal.from_digits(digits)


def decode_membership(real: UnitReal, s: str, alphabet: Alphabet) -> int:
    """Membership bit of ``s`` read from a characteristic real."""
    index = index_of_string(s, alphabet)
    if real.horizon is not None and index > real.horizon:
        raise HorizonExceeded(
            f"string {s!r} has index {index}, beyond horizon {real.horizon}"
        )
    return real.digit_at(index)


# ---------------------------------------------------------------------------
# Cantor-4 packing


def cantor_encode(bits: Union[str, Iterable[int]]) -> Fraction:
    """Pack bits into a base-4 rational with digits {1, 3} (bit b -> 2b+1)."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    total = Fraction(0)
    scale = Fraction(1)
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        scale /= 4
        total += (2 * b + 1) * scale
    return total


def cantor_decode_step(x: Union[Fraction, int]) -> Optional[tuple[int, Fraction]]:
    """Pop the leading bit of a Cantor-4 value.

    Returns None for the empty encoding (x == 0), else ``(bit, remainder)``
    where bit = signal(4x - 2) and remainder = sigma(4x - 2*bit - 1).
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise EncodingError(f"{x} is outside [0, 1)")
    if x == 0:
        return None
    top = int(4 * x)  # leading base-4 digit
    if top not in (1, 3):
        raise EncodingError(f"{x} is not a valid Cantor-4 encoding (digit {top})")
    bit = signal(4 * x - 2)
    remainder = saturated_sigma(4 * x - 2 * bit - 1)
    return bit, Fraction(remainder)
