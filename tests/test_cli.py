"""Command-line interface: outputs, exit codes, byte determinism."""

from arnnlab.cli import build_parser, main

from test_formats import ANBN_FILE

ABSTAR_LANG = "alphabet: ab\nrule: abstar\n"
PARITY_DFA = (
    "state even start accept\n"
    "state odd\n"
    "trans even a even\n"
    "trans even b odd\n"
    "trans odd a odd\n"
    "trans odd b even\n"
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_knows_all_commands():
    parser = build_parser()
    args = parser.parse_args(["index", "--alphabet", "ab", "--string", "ab"])
    assert args.command == "index"
    args = parser.parse_args(["run", "--net", "x.net", "--word", "b", "--budget", "32"])
    assert args.budget == 32


def test_index_command(capsys):
    code, out, _ = invoke(capsys, "index", "--alphabet", "ab", "--string", "ab")
    assert (code, out) == (0, "5\n")
    code, out, _ = invoke(capsys, "index", "--alphabet", "ab", "--string", "")
    assert (code, out) == (0, "1\n")
    code, out, _ = invoke(capsys, "index", "--alphabet", "ab", "--number", "11")
    assert (code, out) == (0, "abb\n")


def test_encode_command(capsys, tmp_path):
    lang = tmp_path / "L.lang"
    lang.write_text(ABSTAR_LANG, encoding="utf-8")
    code, out, _ = invoke(capsys, "encode", "--language", str(lang), "--digits", "25")
    assert code == 0
    assert out == "0100100000100000000000100\n"


def test_decode_command(capsys):
    code, out, _ = invoke(
        capsys,
        "decode",
        "--digits",
        "0100100000100000000000100",
        "--alphabet",
        "ab",
        "--string",
        "ab",
    )
    assert (code, out) == (0, "1\n")


def test_run_command_on_compiled_dfa(capsys, tmp_path):
    dfa = tmp_path / "parity.dfa"
    dfa.write_text(PARITY_DFA, encoding="utf-8")
    net = tmp_path / "parity.net"
    code, out, _ = invoke(capsys, "compile-dfa", "--dfa", str(dfa), "--out", str(net))
    assert code == 0 and out == ""
    code, out, _ = invoke(
        capsys, "run", "--net", str(net), "--word", "b", "--budget", "32"
    )
    assert (code, out) == (0, "reject\n")
    code, out, _ = invoke(
        capsys, "run", "--net", str(net), "--word", "bb", "--budget", "32"
    )
    assert (code, out) == (0, "accept\n")


def test_run_command_timeout_is_domain_error(capsys, tmp_path):
    dfa = tmp_path / "parity.dfa"
    dfa.write_text(PARITY_DFA, encoding="utf-8")
    net = tmp_path / "parity.net"
    invoke(capsys, "compile-dfa", "--dfa", str(dfa), "--out", str(net))
    code, out, err = invoke(
        capsys, "run", "--net", str(net), "--word", "bbbb", "--budget", "5"
    )
    assert code == 3 and out == ""
    assert "RunTimeout" in err


def test_compile_two_stack_and_classify(capsys, tmp_path):
    machine = tmp_path / "anbn.m2"
    machine.write_text(ANBN_FILE, encoding="utf-8")
    net = tmp_path / "anbn.net"
    code, _, _ = invoke(
        capsys, "compile-two-stack", "--machine", str(machine), "--out", str(net)
    )
    assert code == 0
    code, out, _ = invoke(capsys, "classify", "--net", str(net))
    assert (code, out) == (0, "at-most-turing\n")
    code, out, _ = invoke(
        capsys, "run", "--net", str(net), "--word", "aabb", "--budget", "400"
    )
    assert (code, out) == (0, "accept\n")


def test_build_oracle_net_classify_and_horizon(capsys, tmp_path):
    lang = tmp_path / "L.lang"
    lang.write_text(ABSTAR_LANG, encoding="utf-8")
    net = tmp_path / "oracle.net"
    code, _, _ = invoke(
        capsys,
        "build-oracle-net",
        "--language",
        str(lang),
        "--horizon",
        "25",
        "--label",
        "0'",
        "--out",
        str(net),
    )
    assert code == 0
    code, out, _ = invoke(capsys, "classify", "--net", str(net))
    assert (code, out) == (0, "oracle-degrees: 0'\n")
    code, out, _ = invoke(
        capsys, "run", "--net", str(net), "--word", "ab", "--budget", "2000"
    )
    assert (code, out) == (0, "accept\n")
    # index 26 is beyond the horizon: domain error, exit 3
    code, out, err = invoke(
        capsys, "run", "--net", str(net), "--word", "baba", "--budget", "4000"
    )
    assert code == 3 and "HorizonExceeded" in err


def test_classify_dfa_and_timing_labels(capsys, tmp_path):
    dfa = tmp_path / "parity.dfa"
    dfa.write_text(PARITY_DFA, encoding="utf-8")
    net = tmp_path / "parity.net"
    invoke(capsys, "compile-dfa", "--dfa", str(dfa), "--out", str(net))
    code, out, _ = invoke(capsys, "classify", "--net", str(net))
    assert (code, out) == (0, "at-most-bounded-automata\n")
    code, out, _ = invoke(
        capsys, "classify", "--net", str(net), "--timing-label", "0'"
    )
    assert (code, out) == (0, "oracle-degrees: 0'\n")


def test_spike_roundtrip_commands(capsys, tmp_path):
    code, out, _ = invoke(capsys, "spike-encode", "--digits", "0100100000100000000000100")
    assert code == 0
    assert out.splitlines() == [
        "window 25",
        "spike 2",
        "spike 5",
        "spike 11",
        "spike 23",
    ]
    sched = tmp_path / "s.spk"
    code, out, _ = invoke(
        capsys, "spike-encode", "--digits", "1000", "--out", str(sched)
    )
    assert code == 0 and out == ""
    code, out, _ = invoke(capsys, "spike-decode", "--schedule", str(sched))
    assert (code, out) == (0, "1000\n")


def test_usage_error_exit_code(capsys):
    assert main(["index", "--alphabet", "ab"]) == 2
    assert main(["no-such-command"]) == 2
    # bad argument values are usage errors, not tracebacks
    code, out, err = invoke(
        capsys, "decode", "--digits", "07x1", "--alphabet", "ab", "--string", "a"
    )
    assert code == 2 and out == "" and "usage error" in err


def test_malformed_file_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("horizon abc\n", encoding="utf-8")
    net = tmp_path / "bad.net"
    net.write_text(
        "neurons 1 inputs 0\nc 0 oracle:bad.tbl:cantor4\nout_data 0\nout_valid 0\n",
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "run", "--net", str(net), "--word", "", "--budget", "4")
    assert code == 3 and "FormatError" in err


def test_malformed_records_exit_with_format_error(capsys, tmp_path):
    cases = []
    for k, token in enumerate(["rat:1/0", "rat:1/2/3"]):
        net = tmp_path / f"bad{k}.net"
        net.write_text(
            f"neurons 1 inputs 0\nc 0 {token}\nout_data 0\nout_valid 0\n", encoding="utf-8"
        )
        cases.append((f"{net}:2: ", "run", "--net", str(net), "--word", "", "--budget", "4"))
    for k, rule in enumerate(["bogus", "parity"]):
        lang = tmp_path / f"bad{k}.lang"
        lang.write_text(f"alphabet: ab\nrule: {rule}\n", encoding="utf-8")
        cases.append((f"{lang}:2: ", "encode", "--language", str(lang), "--digits", "4"))
    table = tmp_path / "neg.tbl"
    table.write_text("horizon -3\n", encoding="utf-8")
    net = tmp_path / "neg.net"
    net.write_text(
        "neurons 1 inputs 0\nc 0 oracle:neg.tbl:cantor4\nout_data 0\nout_valid 0\n",
        encoding="utf-8",
    )
    cases.append((f"{table}:1: ", "run", "--net", str(net), "--word", "", "--budget", "4"))
    for where, *argv in cases:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"error: FormatError: {where}"), err


def test_missing_file_is_domain_error(capsys):
    code, out, err = invoke(capsys, "encode", "--language", "/nope.lang", "--digits", "4")
    assert code == 3 and out == ""


def test_byte_determinism(capsys, tmp_path):
    lang = tmp_path / "L.lang"
    lang.write_text(ABSTAR_LANG, encoding="utf-8")
    outs = set()
    for _ in range(3):
        code, out, _ = invoke(capsys, "encode", "--language", str(lang), "--digits", "25")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    # compiled artifacts are byte-identical across invocations
    dfa = tmp_path / "parity.dfa"
    dfa.write_text(PARITY_DFA, encoding="utf-8")
    n1, n2 = tmp_path / "p1.net", tmp_path / "p2.net"
    invoke(capsys, "compile-dfa", "--dfa", str(dfa), "--out", str(n1))
    invoke(capsys, "compile-dfa", "--dfa", str(dfa), "--out", str(n2))
    assert n1.read_bytes() == n2.read_bytes()


def test_failing_compile_leaves_no_output(capsys, tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("state q accept\n", encoding="utf-8")  # no start state
    out_path = tmp_path / "never.net"
    code, _, err = invoke(capsys, "compile-dfa", "--dfa", str(bad), "--out", str(out_path))
    assert code == 3
    assert not out_path.exists()


def test_repeated_main_calls_are_independent(capsys, tmp_path):
    machine = tmp_path / "anbn.m2"
    machine.write_text(ANBN_FILE, encoding="utf-8")
    net = tmp_path / "anbn.net"
    invoke(capsys, "compile-two-stack", "--machine", str(machine), "--out", str(net))
    # a repeatable option's values do not carry over to the next call
    code, out, _ = invoke(capsys, "classify", "--net", str(net), "--timing-label", "0'")
    assert (code, out) == (0, "oracle-degrees: 0'\n")
    code, out, _ = invoke(capsys, "classify", "--net", str(net))
    assert (code, out) == (0, "at-most-turing\n")
    # nor does a usage error spoil the next call
    code, _, _ = invoke(capsys, "index", "--alphabet", "ab")
    assert code == 2
    code, out, _ = invoke(capsys, "index", "--alphabet", "ab", "--number", "11")
    assert (code, out) == (0, "abb\n")
    assert build_parser() is not build_parser()
