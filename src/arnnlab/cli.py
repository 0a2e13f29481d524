"""Command-line front door: codecs, compilers, simulator, classifier.

Exit codes: 0 on success, 2 on usage errors (argparse), 3 on domain errors
(horizon exceeded, timeout, undecided signs, bad files), each with a
one-line diagnostic on stderr.  Output is byte-deterministic for fixed
inputs; no command uses randomness.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import formats
from .compilers import OracleNetSpec, dfa_to_net, oracle_consult, oracle_net, two_stack_to_net
from .degrees import DegreeOrder, classify_network
from .errors import ArnnError
from .exact import CANTOR4, ExactScalar, UnitReal
from .langcodec import (
    Alphabet,
    OracleTable,
    decode_membership,
    encode_language,
    index_of_string,
    string_of_index,
)
from .spikes import timing_decode, timing_encode

__all__ = ["app", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arnnlab",
        description="Exact-arithmetic ARNN workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="string/index conversion (length-lex, 1-based)")
    p.add_argument("--alphabet", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--string", help="string to rank ('' for the empty string)")
    group.add_argument("--number", type=int, help="index to invert")

    p = sub.add_parser("encode", help="characteristic-real digits of a language")
    p.add_argument("--language", required=True, help="language file")
    p.add_argument("--digits", type=int, required=True)

    p = sub.add_parser("decode", help="membership bit from a digit string")
    p.add_argument("--digits", required=True, help="binary digits of the real")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--string", required=True)

    p = sub.add_parser("compile-dfa", help="DFA file to integer-weight net file")
    p.add_argument("--dfa", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "compile-two-stack", help="two-stack machine file to rational-weight net file"
    )
    p.add_argument("--machine", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "build-oracle-net", help="oracle-consulting net from a language truncation"
    )
    p.add_argument("--language", required=True, help="language file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--label", default=None, help="degree label for the oracle weight")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run a word through a network file")
    p.add_argument("--net", required=True)
    p.add_argument("--word", required=True, help="'' for the empty word")
    p.add_argument("--budget", type=int, required=True)

    p = sub.add_parser("classify", help="hierarchy position of a network")
    p.add_argument("--net", required=True)
    p.add_argument("--lattice", default=None, help="degree order file (default 0<0'<0'')")
    p.add_argument(
        "--timing-label",
        action="append",
        default=[],
        help="degree label carried by a timing code (repeatable)",
    )

    p = sub.add_parser("spike-encode", help="spike schedule of a digit string")
    p.add_argument("--digits", required=True)
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None, help="write schedule file instead of stdout")

    p = sub.add_parser("spike-decode", help="digit string of a spike schedule")
    p.add_argument("--schedule", required=True)

    return parser


def _cmd_index(args) -> str:
    alphabet = Alphabet.of(args.alphabet)
    if args.string is not None:
        return str(index_of_string(args.string, alphabet))
    return string_of_index(args.number, alphabet)


def _cmd_encode(args) -> str:
    language = formats.load_language(args.language)
    real = encode_language(language, args.digits)
    return real.digit_string(args.digits)


def _cmd_decode(args) -> str:
    real = UnitReal.from_digits(int(c) for c in args.digits)
    alphabet = Alphabet.of(args.alphabet)
    bit = decode_membership(real, args.string, alphabet)
    return str(bit)


def _cmd_compile_dfa(args) -> str:
    net = dfa_to_net(formats.load_dfa(args.dfa))
    formats.save_network(net, args.out)
    return ""


def _cmd_compile_two_stack(args) -> str:
    net = two_stack_to_net(formats.load_two_stack(args.machine))
    formats.save_network(net, args.out)
    return ""


def _cmd_build_oracle_net(args) -> str:
    language = formats.load_language(args.language)
    table = OracleTable.from_language(language, args.horizon)
    scalar = ExactScalar.oracle(table, CANTOR4, args.label)
    net = oracle_net(OracleNetSpec(scalar, language.alphabet))
    formats.save_network(net, args.out)
    return ""


def _cmd_run(args) -> str:
    net = formats.load_network(args.net)
    bit, _ = oracle_consult(net, args.word, args.budget)
    return "accept" if bit else "reject"


def _cmd_classify(args) -> str:
    net = formats.load_network(args.net)
    order = (
        formats.load_lattice(args.lattice)
        if args.lattice is not None
        else DegreeOrder.builtin()
    )
    power = classify_network(net, args.timing_label, order)
    return str(power)


def _cmd_spike_encode(args) -> str:
    digits = [int(c) for c in args.digits]
    real = UnitReal.from_digits(digits, degree_label=args.label)
    schedule = timing_encode(real, len(digits))
    if args.out is not None:
        formats.save_schedule(schedule, args.out)
        return ""
    return formats.format_schedule(schedule).rstrip("\n")


def _cmd_spike_decode(args) -> str:
    schedule = formats.load_schedule(args.schedule)
    real = timing_decode(schedule)
    return real.digit_string(schedule.window)


_COMMANDS = {
    "index": _cmd_index,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "compile-dfa": _cmd_compile_dfa,
    "compile-two-stack": _cmd_compile_two_stack,
    "build-oracle-net": _cmd_build_oracle_net,
    "run": _cmd_run,
    "classify": _cmd_classify,
    "spike-encode": _cmd_spike_encode,
    "spike-decode": _cmd_spike_decode,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code; callable repeatedly."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = _COMMANDS[args.command](args)
    except ArnnError as exc:
        name = type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return 0


def app() -> None:  # console entry point
    raise SystemExit(main())
