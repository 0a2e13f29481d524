"""Text file formats for languages, tables, machines, networks, and lattices.

All files are UTF-8 text, one record per line; blank lines and lines
starting with ``#`` are ignored.

Language files::

    alphabet: ab
    member: ab          # finite table entries (empty string: "member:")
    rule: parity b      # or a built-in predicate instead of members

Oracle tables::

    horizon 25
    index 2 1           # omitted indices default to 0

DFA files::

    state q0 start accept
    trans q0 a q1

Two-stack machine files::

    alphabet: ab
    state S start accept
    rule S a - - -> S 1 -
    rule S - 1 - -> D - -     # read "-": applies once input is exhausted

Network files::

    neurons 5 inputs 2
    symbols ab                 # optional; names the data lines
    a 0 1 int:2                # state weight a[0][1]
    b 0 2 rat:1/4              # input weight; column M is the validation line
    c 0 int:-3                 # bias
    activation 0 sig           # default sat
    out_data 3
    out_valid 4
    out_flag 2                 # optional
    # scalars: int:K | rat:P/Q | oracle:FILE:ENCODING[:LABEL]

Lattice files::

    label 0'
    below 0 0'

Spike schedule files::

    window 25
    spike 2
    label 0'                   # optional
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from .compilers import Dfa, Rule, TwoStackMachine
from .degrees import DegreeOrder
from .errors import AlphabetError, FormatError
from .exact import BINARY, CANTOR4, ExactScalar, ScalarKind
from .langcodec import Alphabet, Language, OracleTable
from .network import SAT, SIG, Network
from .spikes import SpikeSchedule

__all__ = [
    "format_network",
    "format_schedule",
    "load_dfa",
    "load_language",
    "load_lattice",
    "load_network",
    "load_oracle_table",
    "load_schedule",
    "load_two_stack",
    "parse_schedule",
    "save_network",
    "save_oracle_table",
    "save_schedule",
]


def _lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _once(seen: set[tuple], key: tuple, where: str) -> None:
    """Reject a record that would silently replace an earlier one."""
    if key in seen:
        raise FormatError(f"{where}: repeats an earlier {key[0]!r} record")
    seen.add(key)


def _int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{where}: expected an integer, got {token!r}")


# ---------------------------------------------------------------------------
# Languages


def load_language(path: str) -> Language:
    alphabet: Optional[Alphabet] = None
    members: list[str] = []
    rule: Optional[tuple[str, ...]] = None
    rule_where = ""
    seen: set[tuple] = set()
    for lineno, line in _lines(_read(path)):
        where = f"{path}:{lineno}"
        if line.startswith("alphabet:"):
            _once(seen, ("alphabet",), where)
            alphabet = Alphabet.of(line[len("alphabet:") :].strip())
        elif line.startswith("member:"):
            members.append(line[len("member:") :].strip())
        elif line.startswith("rule:"):
            _once(seen, ("rule",), where)
            rule, rule_where = tuple(line[len("rule:") :].split()), where
            if not rule:
                raise FormatError(f"{where}: rule line needs a rule name")
        else:
            raise FormatError(f"{where}: unrecognised line {line!r}")
    if alphabet is None:
        raise FormatError(f"{path}: missing 'alphabet:' line")
    if rule is not None and members:
        raise FormatError(f"{path}: give either members or a rule, not both")
    if rule is not None:
        try:
            return Language.from_rule(alphabet, *rule)
        except (ValueError, AlphabetError) as exc:
            raise FormatError(f"{rule_where}: {exc}") from exc
    return Language.from_members(alphabet, members)


# ---------------------------------------------------------------------------
# Oracle tables


def load_oracle_table(path: str) -> OracleTable:
    horizon: Optional[int] = None
    entries: dict[int, int] = {}
    seen: set[tuple] = set()
    for lineno, line in _lines(_read(path)):
        parts = line.split()
        where = f"{path}:{lineno}"
        if parts[0] == "horizon" and len(parts) == 2:
            _once(seen, ("horizon",), where)
            horizon = _int(parts[1], where)
            if horizon < 0:
                raise FormatError(f"{where}: horizon must be nonnegative, got {horizon}")
        elif parts[0] == "index" and len(parts) == 3:
            i = _int(parts[1], where)
            _once(seen, ("index", i), where)
            entries[i] = _int(parts[2], where)
        else:
            raise FormatError(f"{path}:{lineno}: unrecognised line {line!r}")
    if horizon is None:
        raise FormatError(f"{path}: missing 'horizon' line")
    try:
        return OracleTable.from_entries(entries, horizon)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_oracle_table(table: OracleTable, path: str) -> None:
    lines = [f"horizon {table.horizon}"]
    for i, bit in enumerate(table.bits, start=1):
        if bit:
            lines.append(f"index {i} {bit}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Automata


def _state_line(
    parts: list[str],
    where: str,
    states: list[str],
    accepting: set[str],
    start: Optional[str],
) -> Optional[str]:
    """Record a ``state NAME [start] [accept]`` line; returns the start state."""
    if len(parts) < 2:
        raise FormatError(f"{where}: state line needs a name")
    name = parts[1]
    states.append(name)
    for flag in parts[2:]:
        if flag == "accept":
            accepting.add(name)
        elif flag == "start":
            if start is not None:
                raise FormatError(f"{where}: second start state")
            start = name
        else:
            raise FormatError(f"{where}: unknown flag {flag!r}")
    return start


def load_dfa(path: str) -> Dfa:
    states: list[str] = []
    accepting: set[str] = set()
    start: Optional[str] = None
    transitions: dict[tuple[str, str], str] = {}
    symbols: list[str] = []
    seen: set[tuple] = set()
    for lineno, line in _lines(_read(path)):
        parts = line.split()
        if parts[0] == "state":
            start = _state_line(parts, f"{path}:{lineno}", states, accepting, start)
        elif parts[0] == "trans" and len(parts) == 4:
            _, src, sym, dst = parts
            _once(seen, ("trans", src, sym), f"{path}:{lineno}")
            transitions[(src, sym)] = dst
            if sym not in symbols:
                symbols.append(sym)
        else:
            raise FormatError(f"{path}:{lineno}: unrecognised line {line!r}")
    if start is None:
        raise FormatError(f"{path}: no start state declared")
    return Dfa(
        tuple(states),
        Alphabet.of(symbols),
        transitions,
        start,
        frozenset(accepting),
    )


def _bit_or_none(token: str, where: str) -> Optional[int]:
    if token == "-":
        return None
    if token in ("0", "1"):
        return int(token)
    raise FormatError(f"{where}: expected 0, 1 or '-', got {token!r}")


def load_two_stack(path: str) -> TwoStackMachine:
    alphabet: Optional[Alphabet] = None
    states: list[str] = []
    accepting: set[str] = set()
    start: Optional[str] = None
    rules: list[Rule] = []
    seen: set[tuple] = set()
    for lineno, line in _lines(_read(path)):
        where = f"{path}:{lineno}"
        parts = line.split()
        if line.startswith("alphabet:"):
            _once(seen, ("alphabet",), where)
            alphabet = Alphabet.of(line[len("alphabet:") :].strip())
        elif parts[0] == "state":
            start = _state_line(parts, where, states, accepting, start)
        elif parts[0] == "rule":
            if len(parts) != 9 or parts[5] != "->":
                raise FormatError(
                    f"{where}: rule format is "
                    "'rule STATE READ POP1 POP2 -> STATE PUSH1 PUSH2'"
                )
            read = None if parts[2] == "-" else parts[2]
            rules.append(
                Rule(
                    state=parts[1],
                    read=read,
                    pop1=_bit_or_none(parts[3], where),
                    pop2=_bit_or_none(parts[4], where),
                    next_state=parts[6],
                    push1=_bit_or_none(parts[7], where),
                    push2=_bit_or_none(parts[8], where),
                )
            )
        else:
            raise FormatError(f"{where}: unrecognised line {line!r}")
    if alphabet is None:
        raise FormatError(f"{path}: missing 'alphabet:' line")
    if start is None:
        raise FormatError(f"{path}: no start state declared")
    return TwoStackMachine(
        tuple(states), alphabet, tuple(rules), start, frozenset(accepting)
    )


# ---------------------------------------------------------------------------
# Networks


def _parse_scalar(token: str, base_dir: str, where: str) -> ExactScalar:
    parts = token.split(":")
    if parts[0] == "int" and len(parts) == 2:
        return ExactScalar.integer(_int(parts[1], where))
    if parts[0] == "rat" and len(parts) == 2 and parts[1].count("/") <= 1:
        num, slash, den = parts[1].partition("/")
        q = _int(den, where) if slash else 1
        if q == 0:
            raise FormatError(f"{where}: zero denominator in scalar {token!r}")
        return ExactScalar.rational(_int(num, where), q)
    if parts[0] == "oracle" and len(parts) in (3, 4):
        table_path = parts[1]
        if not os.path.isabs(table_path):
            table_path = os.path.join(base_dir, table_path)
        table = load_oracle_table(table_path)
        encoding = parts[2]
        if encoding not in (BINARY, CANTOR4):
            raise FormatError(f"{where}: unknown oracle encoding {encoding!r}")
        label = parts[3] if len(parts) == 4 else None
        return ExactScalar.oracle(table, encoding, label)
    raise FormatError(f"{where}: cannot parse scalar {token!r}")


def _format_scalar(
    scalar: ExactScalar, oracle_files: dict[int, tuple[str, ExactScalar]]
) -> str:
    if scalar.kind == ScalarKind.INTEGER:
        return f"int:{scalar.value.numerator}"
    if scalar.kind == ScalarKind.RATIONAL:
        return f"rat:{scalar.value.numerator}/{scalar.value.denominator}"
    if scalar.kind == ScalarKind.ORACLE:
        key = id(scalar.table)
        if key not in oracle_files:
            name = f"oracle{len(oracle_files)}.tbl"
            oracle_files[key] = (name, scalar)
        name = oracle_files[key][0]
        token = f"oracle:{name}:{scalar.encoding}"
        if scalar.degree_label is not None:
            token += f":{scalar.degree_label}"
        return token
    raise FormatError("stream-backed scalars cannot be written to network files")


def load_network(path: str) -> Network:
    base_dir = os.path.dirname(os.path.abspath(path))
    n_neurons: Optional[int] = None
    n_inputs: Optional[int] = None
    symbols: Optional[str] = None
    state_weights: dict[tuple[int, int], ExactScalar] = {}
    input_weights: dict[tuple[int, int], ExactScalar] = {}
    biases: dict[int, ExactScalar] = {}
    acts: dict[int, str] = {}
    outs: dict[str, int] = {}
    seen: set[tuple] = set()
    for lineno, line in _lines(_read(path)):
        where = f"{path}:{lineno}"
        parts = line.split()
        if parts[0] == "neurons":
            if len(parts) != 4 or parts[2] != "inputs":
                raise FormatError(f"{where}: header is 'neurons N inputs M'")
            _once(seen, ("neurons",), where)
            n_neurons, n_inputs = _int(parts[1], where), _int(parts[3], where)
        elif parts[0] == "symbols" and len(parts) == 2:
            _once(seen, ("symbols",), where)
            symbols = parts[1]
        elif parts[0] in ("a", "b") and len(parts) == 4:
            i, j = _int(parts[1], where), _int(parts[2], where)
            _once(seen, (parts[0], i, j), where)
            scalar = _parse_scalar(parts[3], base_dir, where)
            (state_weights if parts[0] == "a" else input_weights)[(i, j)] = scalar
        elif parts[0] == "c" and len(parts) == 3:
            i = _int(parts[1], where)
            _once(seen, ("c", i), where)
            biases[i] = _parse_scalar(parts[2], base_dir, where)
        elif parts[0] == "activation" and len(parts) == 3:
            if parts[2] not in (SAT, SIG):
                raise FormatError(f"{where}: activation must be sat or sig")
            i = _int(parts[1], where)
            _once(seen, ("activation", i), where)
            acts[i] = parts[2]
        elif parts[0] in ("out_data", "out_valid", "out_flag") and len(parts) == 2:
            _once(seen, (parts[0],), where)
            outs[parts[0]] = _int(parts[1], where)
        else:
            raise FormatError(f"{where}: unrecognised line {line!r}")
    if n_neurons is None or n_inputs is None:
        raise FormatError(f"{path}: missing 'neurons N inputs M' header")
    activations = tuple(acts.get(i, SAT) for i in range(n_neurons))
    return Network(
        n_neurons,
        n_inputs,
        state_weights=state_weights,
        input_weights=input_weights,
        biases=biases,
        activations=activations,
        out_data=outs.get("out_data"),
        out_valid=outs.get("out_valid"),
        out_flag=outs.get("out_flag"),
        input_symbols=symbols,
    )


def format_network(net: Network) -> tuple[str, dict[str, ExactScalar]]:
    """Render a network file; returns (text, oracle sidecar files).

    The sidecar map goes from a relative table file name to the oracle
    scalar whose table must be written there.
    """
    oracle_files: dict[int, tuple[str, ExactScalar]] = {}
    lines = [f"neurons {net.n_neurons} inputs {net.n_inputs}"]
    if net.input_symbols is not None:
        lines.append("symbols " + "".join(net.input_symbols))
    for (i, j) in sorted(net.state_weights):
        lines.append(f"a {i} {j} {_format_scalar(net.state_weights[(i, j)], oracle_files)}")
    for (i, j) in sorted(net.input_weights):
        lines.append(f"b {i} {j} {_format_scalar(net.input_weights[(i, j)], oracle_files)}")
    for i in sorted(net.biases):
        lines.append(f"c {i} {_format_scalar(net.biases[i], oracle_files)}")
    for i, act in enumerate(net.activations):
        if act != SAT:
            lines.append(f"activation {i} {act}")
    for name, idx in (
        ("out_data", net.out_data),
        ("out_valid", net.out_valid),
        ("out_flag", net.out_flag),
    ):
        if idx is not None:
            lines.append(f"{name} {idx}")
    sidecars = {name: scalar for name, scalar in oracle_files.values()}
    return "\n".join(lines) + "\n", sidecars


def save_network(net: Network, path: str) -> None:
    """Write a network file plus oracle table sidecars next to it.

    All contents are rendered before anything is written, so a formatting
    failure leaves no files behind.
    """
    text, sidecars = format_network(net)
    base_dir = os.path.dirname(os.path.abspath(path))
    for name, scalar in sidecars.items():
        save_oracle_table(scalar.table, os.path.join(base_dir, name))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Degree lattices


def load_lattice(path: str) -> DegreeOrder:
    labels: list[str] = []
    below: list[tuple[str, str]] = []
    for lineno, line in _lines(_read(path)):
        parts = line.split()
        if parts[0] == "label" and len(parts) == 2:
            labels.append(parts[1])
        elif parts[0] == "below" and len(parts) == 3:
            below.append((parts[1], parts[2]))
        else:
            raise FormatError(f"{path}:{lineno}: unrecognised line {line!r}")
    return DegreeOrder.from_relations(labels, below)


# ---------------------------------------------------------------------------
# Spike schedules


def parse_schedule(text: str, where: str = "<schedule>") -> SpikeSchedule:
    window: Optional[int] = None
    ticks: list[int] = []
    label: Optional[str] = None
    seen: set[tuple] = set()
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "window" and len(parts) == 2:
            _once(seen, ("window",), f"{where}:{lineno}")
            window = _int(parts[1], f"{where}:{lineno}")
        elif parts[0] == "spike" and len(parts) == 2:
            ticks.append(_int(parts[1], f"{where}:{lineno}"))
        elif parts[0] == "label" and len(parts) == 2:
            _once(seen, ("label",), f"{where}:{lineno}")
            label = parts[1]
        else:
            raise FormatError(f"{where}:{lineno}: unrecognised line {line!r}")
    if window is None:
        raise FormatError(f"{where}: missing 'window' line")
    try:
        return SpikeSchedule(tuple(sorted(ticks)), window, label)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_schedule(path: str) -> SpikeSchedule:
    return parse_schedule(_read(path), path)


def format_schedule(schedule: SpikeSchedule) -> str:
    lines = [f"window {schedule.window}"]
    lines.extend(f"spike {t}" for t in schedule.ticks)
    if schedule.degree_label is not None:
        lines.append(f"label {schedule.degree_label}")
    return "\n".join(lines) + "\n"


def save_schedule(schedule: SpikeSchedule, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_schedule(schedule))
