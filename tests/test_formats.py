"""Round-trips and error handling for the text file formats."""

import re
from fractions import Fraction

import pytest

from arnnlab import (
    CANTOR4,
    ExactScalar,
    FormatError,
    Network,
    OracleTable,
    SpikeSchedule,
    dfa_budget,
    dfa_to_net,
    oracle_budget,
    oracle_consult,
    oracle_net,
    run,
    two_stack_budget,
    two_stack_to_net,
)
from arnnlab.compilers import OracleNetSpec
from arnnlab.formats import (
    format_network,
    format_schedule,
    load_dfa,
    load_language,
    load_lattice,
    load_network,
    load_oracle_table,
    load_schedule,
    load_two_stack,
    parse_schedule,
    save_network,
    save_oracle_table,
    save_schedule,
)

from conftest import AB, abstar_language


def test_language_file_members(tmp_path):
    path = tmp_path / "L.lang"
    path.write_text(
        "# one a then b's, members up to length 4\n"
        "alphabet: ab\n"
        "member: a\n"
        "member: ab\n"
        "member: abb\n"
        "member: abbb\n",
        encoding="utf-8",
    )
    language = load_language(str(path))
    assert "ab" in language and "b" not in language


def test_language_file_rule(tmp_path):
    path = tmp_path / "parity.lang"
    path.write_text("alphabet: ab\nrule: parity b\n", encoding="utf-8")
    language = load_language(str(path))
    assert "bb" in language and "b" not in language


def test_language_file_empty_member_is_epsilon(tmp_path):
    path = tmp_path / "eps.lang"
    path.write_text("alphabet: ab\nmember:\n", encoding="utf-8")
    assert "" in load_language(str(path))


def test_language_file_errors(tmp_path):
    bad = tmp_path / "bad.lang"
    bad.write_text("member: a\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_language(str(bad))
    both = tmp_path / "both.lang"
    both.write_text("alphabet: ab\nmember: a\nrule: parity b\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_language(str(both))


@pytest.mark.parametrize(
    "alphabet, rule",
    [
        ("ab", "bogus"),
        ("ab", "parity"),
        ("ab", "parity c"),
        ("ab", ""),
        ("a", "anbn"),
        ("ab", "abstar a"),
        # a symbol parameter is one symbol: "parity ab" would count a substring
        ("ab", "parity ab"),
        ("ab", "anbn ab b"),
        ("ab", "abstar a ba"),
    ],
)
def test_language_bad_rule_is_format_error(tmp_path, alphabet, rule):
    path = tmp_path / "bad.lang"
    path.write_text(f"alphabet: {alphabet}\nrule: {rule}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: ")):
        load_language(str(path))


def test_oracle_table_negative_horizon_is_format_error(tmp_path):
    path = tmp_path / "neg.tbl"
    path.write_text("horizon -3\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:1: horizon must be nonnegative")):
        load_oracle_table(str(path))


def test_oracle_table_roundtrip(tmp_path):
    table = OracleTable.from_language(abstar_language(), 25)
    path = tmp_path / "L.tbl"
    save_oracle_table(table, str(path))
    assert load_oracle_table(str(path)) == table
    # sparse files default omitted indices to zero
    sparse = tmp_path / "sparse.tbl"
    sparse.write_text("horizon 4\nindex 2 1\n", encoding="utf-8")
    assert load_oracle_table(str(sparse)).bits == (0, 1, 0, 0)


def test_dfa_file(tmp_path):
    path = tmp_path / "parity.dfa"
    path.write_text(
        "state even start accept\n"
        "state odd\n"
        "trans even a even\n"
        "trans even b odd\n"
        "trans odd a odd\n"
        "trans odd b even\n",
        encoding="utf-8",
    )
    dfa = load_dfa(str(path))
    assert dfa.accepts("bb") and not dfa.accepts("b")


def test_dfa_multi_character_symbol_is_format_error(tmp_path):
    path = tmp_path / "wide.dfa"
    path.write_text("state q start accept\ntrans q ab q\n", encoding="utf-8")
    with pytest.raises(FormatError, match="single characters"):
        load_dfa(str(path))


def test_dfa_repeated_transition_is_format_error(tmp_path):
    path = tmp_path / "dup.dfa"
    path.write_text(
        "state q start accept\nstate r\ntrans q a q\ntrans q a r\n", encoding="utf-8"
    )
    with pytest.raises(FormatError, match="repeats an earlier 'trans' record"):
        load_dfa(str(path))
    path.write_text("state q start accept\nstate q\ntrans q a q\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: repeats an earlier 'state'")):
        load_dfa(str(path))


@pytest.mark.parametrize(
    "records, kind",
    [("horizon 4\nhorizon 2\n", "horizon"), ("horizon 4\nindex 1 1\nindex 1 0\n", "index")],
)
def test_oracle_table_repeated_record_is_format_error(tmp_path, records, kind):
    path = tmp_path / "dup.tbl"
    path.write_text(records, encoding="utf-8")
    with pytest.raises(FormatError, match=f"repeats an earlier '{kind}' record"):
        load_oracle_table(str(path))


@pytest.mark.parametrize(
    "records, kind",
    [
        ("alphabet: ab\nalphabet: a\nmember: a\n", "alphabet"),
        ("alphabet: ab\nrule: parity b\nrule: parity a\n", "rule"),
    ],
)
def test_language_repeated_record_is_format_error(tmp_path, records, kind):
    path = tmp_path / "dup.lang"
    path.write_text(records, encoding="utf-8")
    with pytest.raises(FormatError, match=f"repeats an earlier '{kind}' record"):
        load_language(str(path))


def test_two_stack_repeated_alphabet_is_format_error(tmp_path):
    path = tmp_path / "dup.tsm"
    path.write_text("alphabet: ab\nalphabet: a\nstate S start accept\n", encoding="utf-8")
    with pytest.raises(FormatError, match="repeats an earlier 'alphabet' record"):
        load_two_stack(str(path))
    path.write_text("alphabet: ab\nstate S start\nstate T accept\nstate T\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:4: repeats an earlier 'state'")):
        load_two_stack(str(path))


@pytest.mark.parametrize("record, kind", [("window 9", "window"), ("label y", "label")])
def test_schedule_repeated_record_is_format_error(record, kind):
    text = "window 4\nspike 2\nlabel x\n"
    assert parse_schedule(text).window == 4
    with pytest.raises(FormatError, match=f"repeats an earlier '{kind}' record"):
        parse_schedule(text + record + "\n")


def test_dfa_file_requires_start(tmp_path):
    path = tmp_path / "broken.dfa"
    path.write_text("state q accept\ntrans q a q\ntrans q b q\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_dfa(str(path))


@pytest.mark.parametrize(
    "loader, head",
    [(load_dfa, ""), (load_two_stack, "alphabet: a\n")],
    ids=["dfa", "two-stack"],
)
@pytest.mark.parametrize(
    "states, message",
    [
        ("state q start\nstate r start\n", "second start state"),
        ("state q start bogus\n", "unknown flag 'bogus'"),
        ("state\n", "state line needs a name"),
    ],
    ids=["second-start", "unknown-flag", "no-name"],
)
def test_state_line_errors(tmp_path, loader, head, states, message):
    # both machine formats share one parser for state lines
    path = tmp_path / "machine.txt"
    path.write_text(head + states, encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        loader(str(path))


ANBN_FILE = """\
alphabet: ab
state S start accept
state T accept
state D
rule S a - - -> S 1 -
rule S b 1 - -> T - -
rule T b 1 - -> T - -
rule S - 1 - -> D - -
rule T - 1 - -> D - -
"""


def test_two_stack_file(tmp_path):
    path = tmp_path / "anbn.m2"
    path.write_text(ANBN_FILE, encoding="utf-8")
    machine = load_two_stack(str(path))
    assert machine.accepts("aabb") and not machine.accepts("aab")


def test_two_stack_rule_format_error(tmp_path):
    path = tmp_path / "bad.m2"
    path.write_text("alphabet: ab\nstate S start\nrule S a - -> S 1 -\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_two_stack(str(path))


def test_two_stack_multi_character_read_is_format_error(tmp_path):
    # a read of "ab" could never match the one character a machine reads
    path = tmp_path / "wide.m2"
    path.write_text("alphabet: ab\nstate S start accept\nrule S ab - - -> S - -\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
        load_two_stack(str(path))


def test_network_roundtrip_dfa(tmp_path):
    from conftest import parity_dfa

    net = dfa_to_net(parity_dfa())
    path = tmp_path / "parity.net"
    save_network(net, str(path))
    loaded = load_network(str(path))
    assert loaded.n_neurons == net.n_neurons
    assert loaded.input_symbols == net.input_symbols
    for w in ["", "b", "bb", "abab"]:
        assert (
            run(loaded, w, dfa_budget(len(w))).verdict
            == run(net, w, dfa_budget(len(w))).verdict
        )


def test_network_roundtrip_two_stack(tmp_path):
    from conftest import anbn_machine

    machine = anbn_machine()
    net = two_stack_to_net(machine)
    path = tmp_path / "anbn.net"
    save_network(net, str(path))
    loaded = load_network(str(path))
    for w in ["", "ab", "aabb", "aab"]:
        _, steps = machine.execute(w, 1000)
        budget = two_stack_budget(len(w), steps)
        assert run(loaded, w, budget).verdict == run(net, w, budget).verdict


def test_equal_scalars_are_one_object_across_save_and_load(tmp_path):
    from conftest import anbn_machine

    net = two_stack_to_net(anbn_machine())
    path = tmp_path / "anbn.net"
    save_network(net, str(path))
    loaded = load_network(str(path))
    for n in (net, loaded):
        scalars = list(n.scalars())
        assert len(scalars) == 217
        assert len({id(s) for s in scalars}) == 17
        assert all(type(s.value) is Fraction for s in scalars)
    assert format_network(loaded) == format_network(net)


def test_oracle_table_named_twice_is_read_once(tmp_path):
    save_oracle_table(OracleTable.from_entries({2: 1}, 4), str(tmp_path / "t.tbl"))
    path = tmp_path / "two.net"
    path.write_text(
        "neurons 2 inputs 1\na 0 0 oracle:t.tbl:cantor4\na 1 1 oracle:t.tbl:cantor4\n",
        encoding="utf-8",
    )
    loaded = load_network(str(path))
    assert loaded.state_weights[(0, 0)] is loaded.state_weights[(1, 1)]
    _, sidecars = format_network(loaded)
    assert list(sidecars) == ["oracle0.tbl"]


def test_network_roundtrip_oracle_sidecar(tmp_path):
    table = OracleTable.from_language(abstar_language(), 25)
    spec = OracleNetSpec(ExactScalar.oracle(table, CANTOR4, "0'"), AB)
    net = oracle_net(spec)
    path = tmp_path / "oracle.net"
    save_network(net, str(path))
    assert (tmp_path / "oracle0.tbl").exists()
    loaded = load_network(str(path))
    bit, _ = oracle_consult(loaded, "ab", oracle_budget("ab", AB))
    assert bit == 1
    oracle_scalar = next(
        s for s in loaded.scalars() if s.kind.value == "oracle"
    )
    assert oracle_scalar.degree_label == "0'"


def test_network_omitted_weights_are_zero(tmp_path):
    path = tmp_path / "tiny.net"
    path.write_text(
        "neurons 2 inputs 0\n"
        "a 0 1 int:2\n"
        "c 1 rat:1/2\n"
        "activation 0 sig\n"
        "out_data 0\nout_valid 0\n",
        encoding="utf-8",
    )
    net = load_network(str(path))
    assert net.state_weights[(0, 1)].value == 2
    assert (1, 0) not in net.state_weights
    assert net.activations == ("sig", "sat")


TINY_NET = (
    "neurons 2 inputs 1\nsymbols a\na 0 1 int:2\nb 0 1 int:1\nc 1 rat:1/2\n"
    "activation 0 sig\nout_data 0\nout_valid 1\nout_flag 1\n"
)


@pytest.mark.parametrize(
    "record",
    [
        "neurons 2 inputs 1",
        "symbols a",
        "a 0 1 int:3",
        "b 0 1 int:1",
        "c 1 int:0",
        "activation 0 sat",
        "out_data 1",
        "out_valid 0",
        "out_flag 0",
    ],
)
def test_network_repeated_record_is_format_error(tmp_path, record):
    path = tmp_path / "dup.net"
    path.write_text(TINY_NET, encoding="utf-8")
    assert load_network(str(path)).n_neurons == 2
    path.write_text(TINY_NET + record + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="repeats an earlier"):
        load_network(str(path))


def test_network_repeated_symbol_is_format_error(tmp_path):
    path = tmp_path / "dup.net"
    path.write_text(TINY_NET.replace("symbols a", "symbols aa"), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: symbols 'aa' repeat")):
        load_network(str(path))


@pytest.mark.parametrize(
    "line, message",
    [
        ("a 5 0 int:1", "state weight (5,0) out of range"),
        ("symbols ab", "one symbol per data line required"),
        ("activation 7 sig", "activation line 2 names neuron 7, outside 0..1"),
        ("activation -1 sig", "activation line 2 names neuron -1, outside 0..1"),
    ],
)
def test_network_shape_error_names_the_file(tmp_path, line, message):
    path = tmp_path / "bad.net"
    path.write_text(f"neurons 2 inputs 1\n{line}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        load_network(str(path))


def test_network_scalar_parse_errors(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("neurons 1 inputs 0\nc 0 float:0.5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_network(str(path))


def test_network_unknown_oracle_encoding_names_the_line(tmp_path):
    save_oracle_table(OracleTable((1,)), str(tmp_path / "t.tbl"))
    path = tmp_path / "bad.net"
    path.write_text("neurons 1 inputs 0\nc 0 oracle:t.tbl:base3\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: unknown encoding 'base3'")):
        load_network(str(path))


@pytest.mark.parametrize(
    "token, message",
    [
        ("rat:1/0", "zero denominator"),
        ("rat:1/2/3", "cannot parse scalar"),
        ("rat:1/", "expected an integer"),
    ],
)
def test_network_malformed_rational_is_format_error(tmp_path, token, message):
    path = tmp_path / "bad.net"
    path.write_text(f"neurons 1 inputs 0\nc 0 {token}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: {message}")):
        load_network(str(path))


def test_stream_scalar_not_serialisable():
    from arnnlab import UnitReal

    net = Network(
        1,
        0,
        state_weights={
            (0, 0): ExactScalar.from_stream(UnitReal.from_digits([1, 0]))
        },
    )
    with pytest.raises(FormatError):
        format_network(net)


@pytest.mark.parametrize(
    "loader, name, text, message",
    [
        (
            load_dfa, "partial.dfa",
            "state q start accept\nstate r\ntrans q a r\n",
            "transition map not total",
        ),
        (
            load_two_stack, "overlap.m2",
            "alphabet: ab\nstate S start accept\n"
            "rule S a - - -> S 1 -\nrule S a - - -> S - -\n",
            "nondeterministic machine",
        ),
        (load_language, "bad.lang", "alphabet: ab\nmember: ac\n", "not in alphabet"),
        (
            load_lattice, "cycle.lat",
            "label x\nlabel y\nbelow x y\nbelow y x\n",
            "contains a cycle",
        ),
    ],
    ids=["dfa", "two_stack", "language", "lattice"],
)
def test_loader_construction_error_names_the_file(tmp_path, loader, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*" + message):
        loader(str(path))


@pytest.mark.parametrize("loader", [load_language, load_two_stack])
def test_repeated_alphabet_symbol_names_the_line(tmp_path, loader):
    path = tmp_path / "dup.txt"
    path.write_text("alphabet: aba\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}:1: alphabet symbols must be distinct")):
        loader(str(path))


def test_lattice_file(tmp_path):
    path = tmp_path / "order.lat"
    path.write_text("label 0'\nlabel x\nbelow 0' x\n", encoding="utf-8")
    order = load_lattice(str(path))
    assert order.is_strictly_below("0'", "x")
    assert order.is_strictly_below("0", "x")


def test_schedule_roundtrip(tmp_path):
    schedule = SpikeSchedule((2, 5, 11, 23), 25, degree_label="0'")
    path = tmp_path / "s.spk"
    save_schedule(schedule, str(path))
    assert load_schedule(str(path)) == schedule
    assert "window 25" in format_schedule(schedule)
