"""Degree labels, maximal elements, and the weight-complexity hierarchy.

Degree labels are declared metadata, not computed from semantics: whether a
stream's digits are computable is not itself decidable, so the classifier
is syntactic over labeled scalars.  The built-in order ships the chain
0 < 0' < 0''; users may declare further labels, including incomparable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set

from .errors import LabelMissing, LatticeError
from .exact import BOTTOM_LABEL, ExactScalar, ScalarKind

__all__ = [
    "BOUNDED_AUTOMATA",
    "DegreeOrder",
    "ORACLE",
    "PowerClass",
    "TURING",
    "classify_network",
    "maximals",
    "scalar_degree",
]


@dataclass(frozen=True)
class DegreeOrder:
    """Finite strict partial order of degree labels with bottom "0".

    ``strictly_below`` holds the transitive closure.  The bottom label is
    implicitly below every other declared label.
    """

    labels: frozenset[str]
    strictly_below: frozenset[tuple[str, str]]

    @classmethod
    def from_relations(
        cls,
        labels: Iterable[str],
        below: Iterable[tuple[str, str]] = (),
    ) -> "DegreeOrder":
        label_set = set(labels)
        label_set.add(BOTTOM_LABEL)
        pairs = set()
        for a, b in below:
            if a not in label_set or b not in label_set:
                raise LatticeError(f"relation {a!r} < {b!r} uses an undeclared label")
            pairs.add((a, b))
        for lab in label_set:
            if lab != BOTTOM_LABEL:
                pairs.add((BOTTOM_LABEL, lab))
        closure = set(pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        for lab in label_set:
            if (lab, lab) in closure:
                raise LatticeError(f"order relation contains a cycle through {lab!r}")
        return cls(frozenset(label_set), frozenset(closure))

    @classmethod
    def builtin(cls) -> "DegreeOrder":
        """The chain 0 < 0' < 0''."""
        return cls.from_relations(
            ["0", "0'", "0''"], [("0", "0'"), ("0'", "0''")]
        )

    def is_strictly_below(self, a: str, b: str) -> bool:
        return (a, b) in self.strictly_below

    def check_label(self, label: str) -> None:
        if label not in self.labels:
            raise LatticeError(f"unknown degree label {label!r}")


def maximals(labels: Iterable[str], order: DegreeOrder) -> frozenset[str]:
    """Labels with nothing in the given set strictly above them."""
    label_set = set(labels)
    for lab in label_set:
        order.check_label(lab)
    return frozenset(
        r
        for r in label_set
        if not any(order.is_strictly_below(r, a) for a in label_set)
    )


# ---------------------------------------------------------------------------
# Hierarchy classes

BOUNDED_AUTOMATA = "bounded-automata"
TURING = "turing"
ORACLE = "oracle"

_KINDS = (BOUNDED_AUTOMATA, TURING, ORACLE)


@dataclass(frozen=True)
class PowerClass:
    """Row of the weight-complexity hierarchy table."""

    kind: str
    degrees: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown power class {self.kind!r}")
        if self.kind == ORACLE and not self.degrees:
            raise ValueError("oracle class needs at least one degree")

    @classmethod
    def at_most_bounded_automata(cls) -> "PowerClass":
        return cls(BOUNDED_AUTOMATA)

    @classmethod
    def at_most_turing(cls) -> "PowerClass":
        return cls(TURING)

    @classmethod
    def oracle_degrees(cls, degrees: Iterable[str]) -> "PowerClass":
        return cls(ORACLE, frozenset(degrees))

    def __str__(self) -> str:
        if self.kind == BOUNDED_AUTOMATA:
            return "at-most-bounded-automata"
        if self.kind == TURING:
            return "at-most-turing"
        return "oracle-degrees: " + ", ".join(sorted(self.degrees))


def scalar_degree(scalar: ExactScalar) -> str:
    """Degree label of a scalar; integers and rationals are computable."""
    if scalar.kind in (ScalarKind.INTEGER, ScalarKind.RATIONAL):
        return BOTTOM_LABEL
    if scalar.kind == ScalarKind.STREAM:
        return scalar.degree_label or BOTTOM_LABEL
    if scalar.degree_label is None:
        raise LabelMissing("oracle-backed scalar carries no degree label")
    return scalar.degree_label


def classify_network(
    net,
    timing_labels: Iterable[str] = (),
    order: Optional[DegreeOrder] = None,
) -> PowerClass:
    """Position of a network in the hierarchy table.

    All-integer weights with no timing labels are at most bounded automata;
    integer/rational weights (and streams labeled "0") are at most a Turing
    machine; anything labeled above "0" in weights or timing escalates to
    the oracle row, keyed by the maximal labels of the union.
    """
    if order is None:
        order = DegreeOrder.builtin()
    timing = set(timing_labels)
    for lab in timing:
        order.check_label(lab)

    weight_labels: Set[str] = set()
    all_integer = True
    for scalar in net.scalars():
        label = scalar_degree(scalar)
        order.check_label(label)
        weight_labels.add(label)
        if scalar.kind != ScalarKind.INTEGER:
            all_integer = False

    combined = weight_labels | timing
    nonzero = {lab for lab in combined if lab != BOTTOM_LABEL}
    if nonzero:
        return PowerClass.oracle_degrees(maximals(combined, order))
    if all_integer and not timing:
        return PowerClass.at_most_bounded_automata()
    return PowerClass.at_most_turing()
