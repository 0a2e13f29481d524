"""Degree orders, maximal elements, and the hierarchy classifier."""

import itertools
import random

import pytest

from arnnlab import (
    CANTOR4,
    DegreeOrder,
    ExactScalar,
    LabelMissing,
    LatticeError,
    Network,
    OracleTable,
    PowerClass,
    UnitReal,
    classify_network,
    maximals,
    scalar_degree,
)
from arnnlab.degrees import BOUNDED_AUTOMATA, ORACLE, TURING


def test_builtin_chain():
    order = DegreeOrder.builtin()
    assert order.is_strictly_below("0", "0'")
    assert order.is_strictly_below("0'", "0''")
    assert order.is_strictly_below("0", "0''")  # transitive closure
    assert not order.is_strictly_below("0'", "0")


def test_cycles_rejected():
    with pytest.raises(LatticeError):
        DegreeOrder.from_relations(["a", "b"], [("a", "b"), ("b", "a")])


def test_bottom_below_everything():
    order = DegreeOrder.from_relations(["x", "y"])
    assert order.is_strictly_below("0", "x")
    assert order.is_strictly_below("0", "y")
    assert not order.is_strictly_below("x", "y")


def test_maximals_examples():
    order = DegreeOrder.builtin()
    assert maximals({"0"}, order) == frozenset({"0"})
    assert maximals({"0", "0'"}, order) == frozenset({"0'"})
    incomparable = DegreeOrder.from_relations(["a", "b"])
    assert maximals({"a", "b"}, incomparable) == frozenset({"a", "b"})


def test_maximals_unknown_label():
    with pytest.raises(LatticeError):
        maximals({"mystery"}, DegreeOrder.builtin())


def _brute_force_maximals(labels, edges):
    """Independent check: reachability over the raw edges per pair."""

    def reaches(a, b):
        seen, frontier = set(), [a]
        while frontier:
            node = frontier.pop()
            for x, y in edges:
                if x == node and y not in seen:
                    if y == b:
                        return True
                    seen.add(y)
                    frontier.append(y)
        return False

    return frozenset(
        r for r in labels if not any(reaches(r, a) for a in labels if a != r)
    )


def random_order(rng, n_labels):
    labels = [f"d{i}" for i in range(n_labels)]
    edges = []
    for i in range(n_labels):
        for j in range(i + 1, n_labels):
            if rng.random() < 0.3:
                edges.append((labels[i], labels[j]))  # acyclic by index order
    edges += [("0", lab) for lab in labels]
    return labels, edges


def test_maximals_matches_brute_force_on_random_orders():
    rng = random.Random(1717)
    for _ in range(200):
        labels, edges = random_order(rng, rng.randint(1, 7))
        order = DegreeOrder.from_relations(labels, edges)
        subset = {lab for lab in labels if rng.random() < 0.7} or set(labels)
        assert maximals(subset, order) == _brute_force_maximals(subset, edges)


def test_maximals_idempotent():
    rng = random.Random(99)
    for _ in range(50):
        labels, edges = random_order(rng, 6)
        order = DegreeOrder.from_relations(labels, edges)
        first = maximals(set(labels), order)
        assert maximals(first, order) == first


# -- scalar degrees -----------------------------------------------------------


def test_scalar_degree_examples():
    assert scalar_degree(ExactScalar.rational(3, 4)) == "0"
    stream = UnitReal(gen=itertools.cycle([1, 0]))
    assert scalar_degree(ExactScalar.from_stream(stream)) == "0"
    table = OracleTable((1, 0, 1))
    assert scalar_degree(ExactScalar.oracle(table, CANTOR4, "0'")) == "0'"


def test_scalar_degree_unlabeled_oracle():
    table = OracleTable((1,))
    with pytest.raises(LabelMissing):
        scalar_degree(ExactScalar.oracle(table, CANTOR4))


# -- network classification ------------------------------------------------------


def int_net():
    return Network(
        2,
        0,
        state_weights={(0, 1): ExactScalar.integer(2)},
        biases={1: ExactScalar.integer(-1)},
    )


def rat_net():
    return Network(1, 0, state_weights={(0, 0): ExactScalar.rational(1, 4)})


def oracle_weight_net(label="0'"):
    table = OracleTable((1, 0, 1, 1))
    return Network(
        1,
        0,
        state_weights={(0, 0): ExactScalar.oracle(table, CANTOR4, label)},
    )


def test_classify_three_rows():
    assert classify_network(int_net()) == PowerClass.at_most_bounded_automata()
    assert classify_network(rat_net()) == PowerClass.at_most_turing()
    assert classify_network(oracle_weight_net()) == PowerClass.oracle_degrees({"0'"})


def test_classify_unlabeled_oracle_raises():
    with pytest.raises(LabelMissing):
        classify_network(oracle_weight_net(label=None))


def test_classify_monotone_under_weight_substitution():
    net = int_net()
    bounded = classify_network(net)
    promoted = net.replace_state_weight(0, 1, ExactScalar.rational(1, 2))
    turing = classify_network(promoted)
    oracled = net.replace_state_weight(
        0, 1, ExactScalar.oracle(OracleTable((1,)), CANTOR4, "0'")
    )
    oracle = classify_network(oracled)
    assert (bounded.kind, turing.kind, oracle.kind) == (
        BOUNDED_AUTOMATA,
        TURING,
        ORACLE,
    )


def test_classify_union_rule_timing_equals_weights():
    # timing labels act exactly like extra weight labels
    net = int_net()
    with_timing = classify_network(net, timing_labels={"0'"})
    with_weight = classify_network(oracle_weight_net("0'"))
    assert with_timing == with_weight
    # a "0" timing label only escalates integers to the Turing row
    assert classify_network(net, timing_labels={"0"}) == PowerClass.at_most_turing()
    assert classify_network(rat_net(), timing_labels={"0"}) == PowerClass.at_most_turing()


def test_classify_incomparable_maximals():
    order = DegreeOrder.from_relations(["0'", "0''", "e1", "e2"], [("0'", "0''")])
    net = oracle_weight_net("e1")
    got = classify_network(net, timing_labels={"e2"}, order=order)
    assert got == PowerClass.oracle_degrees({"e1", "e2"})


def test_power_class_str():
    assert str(PowerClass.at_most_bounded_automata()) == "at-most-bounded-automata"
    assert str(PowerClass.at_most_turing()) == "at-most-turing"
    assert str(PowerClass.oracle_degrees({"0'"})) == "oracle-degrees: 0'"
