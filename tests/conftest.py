"""Shared automata and languages used across the test modules."""

from itertools import product

import pytest
from hypothesis import strategies as st

from arnnlab import Alphabet, Dfa, Language, Rule, TwoStackMachine

AB = Alphabet.of("ab")


def make_dfa(states, transitions, start, accepting):
    return Dfa(tuple(states), AB, transitions, start, frozenset(accepting))


def parity_dfa():
    """Accepts words with an even number of b's."""
    return make_dfa(
        ["even", "odd"],
        {
            ("even", "a"): "even",
            ("even", "b"): "odd",
            ("odd", "a"): "odd",
            ("odd", "b"): "even",
        },
        "even",
        {"even"},
    )


def ends_with_ab_dfa():
    t = {
        ("q0", "a"): "qa",
        ("q0", "b"): "q0",
        ("qa", "a"): "qa",
        ("qa", "b"): "qab",
        ("qab", "a"): "qa",
        ("qab", "b"): "q0",
    }
    return make_dfa(["q0", "qa", "qab"], t, "q0", {"qab"})


def contains_aba_dfa():
    t = {
        ("0", "a"): "a",
        ("0", "b"): "0",
        ("a", "a"): "a",
        ("a", "b"): "ab",
        ("ab", "a"): "f",
        ("ab", "b"): "0",
        ("f", "a"): "f",
        ("f", "b"): "f",
    }
    return make_dfa(["0", "a", "ab", "f"], t, "0", {"f"})


def length_mod3_dfa():
    t = {(str(i), s): str((i + 1) % 3) for i in range(3) for s in "ab"}
    return make_dfa(["0", "1", "2"], t, "0", {"0"})


def starts_a_no_bb_dfa():
    t = {
        ("s", "a"): "ok",
        ("s", "b"): "dead",
        ("ok", "a"): "ok",
        ("ok", "b"): "afterb",
        ("afterb", "a"): "ok",
        ("afterb", "b"): "dead",
        ("dead", "a"): "dead",
        ("dead", "b"): "dead",
    }
    return make_dfa(["s", "ok", "afterb", "dead"], t, "s", {"ok", "afterb"})


FIVE_DFAS = [
    parity_dfa,
    ends_with_ab_dfa,
    contains_aba_dfa,
    length_mod3_dfa,
    starts_a_no_bb_dfa,
]


def anbn_machine():
    """Two-stack recogniser of {a^n b^n : n >= 0}.

    a's are pushed on stack 1 and popped by b's; the end-of-input rules
    drain leftovers into the dead state so unbalanced words reject.
    """
    return TwoStackMachine(
        states=("S", "T", "D"),
        alphabet=AB,
        rules=(
            Rule("S", "a", None, None, "S", push1=1),
            Rule("S", "b", 1, None, "T"),
            Rule("T", "b", 1, None, "T"),
            Rule("S", None, 1, None, "D"),
            Rule("T", None, 1, None, "D"),
        ),
        start="S",
        accepting=frozenset({"S", "T"}),
    )


def copy_machine():
    """Two-stack machine that uses both stacks; accepts the nonempty words.

    It loads input bits (a=0, b=1) onto stack 1, then transfers them to
    stack 2 with end-of-input rules.
    """
    return TwoStackMachine(
        states=("L", "M"),
        alphabet=AB,
        rules=(
            Rule("L", "a", None, None, "L", push1=0),
            Rule("L", "b", None, None, "L", push1=1),
            Rule("L", None, 0, None, "M", push2=0),
            Rule("L", None, 1, None, "M", push2=1),
            Rule("M", None, 0, None, "M", push2=0),
            Rule("M", None, 1, None, "M", push2=1),
        ),
        start="L",
        accepting=frozenset({"M"}),
    )


@st.composite
def two_stack_machines(draw):
    """A random two-stack machine over ``ab`` with at most one rule per
    state and read, so that no two rules of a state overlap."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 4))))
    bit, op = st.sampled_from([None, 0, 1]), st.sampled_from([None, None, 0, 1])
    rules = tuple(
        Rule(state, read, draw(op), draw(op), draw(st.sampled_from(states)), draw(bit), draw(bit))
        for state in states
        for read in ("a", "b", None)
        if draw(st.booleans())
    )
    accepting = frozenset(draw(st.sets(st.sampled_from(states))))
    return TwoStackMachine(states, AB, rules, states[0], accepting)


def words_up_to(n, symbols="ab"):
    yield ""
    for length in range(1, n + 1):
        for w in product(symbols, repeat=length):
            yield "".join(w)


def abstar_language():
    """One a followed by any number of b's: {a, ab, abb, ...}."""
    return Language.from_rule(AB, "abstar")


ABSTAR_EXPANSION_25 = "0100100000100000000000100"
ABSTAR_SPIKES = (2, 5, 11, 23)


@pytest.fixture
def ab():
    return AB
