"""The four seeded workloads, driven through arnnlab's public API.

Each workload builds its inputs from a ``random.Random`` it is handed, so
arnnlab sees only generated words, languages, automata and files.  Set-up
(``__init__``) generates the inputs and compiles and loads the fixed nets;
``run_op(i)`` then performs operation ``i`` of a fixed cycle and checks it
against the source machine, returning ``(outcome, ok)``; the ticks its runs
took accumulate in ``op_ticks``.

Every call into arnnlab goes through ``self.call(layer, name, fn, ...)`` so
that a traced run records a span for it.  A call is charged to the module
that owns the function, except that ``run`` and ``oracle_consult`` are
charged to ``exact`` on nets whose weights are not all known rationals:
those runs take the lazy interval path in ``exact.affine_combine``.
"""

from __future__ import annotations

import contextlib
import io
import os
import weakref
from time import perf_counter

#: The a^n b^n two-stack machine as (state, read, pops, next state, pushes):
#: each x pushes a bit on stack 1, each y pops one, and input that ends with
#: the stack nonempty drains to the dead state D.  Toolchain jobs vary which
#: symbol is x and which bit is pushed.
ANBN_RULES = (
    ("S", "x", False, "S", True),
    ("S", "y", True, "T", False),
    ("T", "y", True, "T", False),
    ("S", None, True, "D", False),
    ("T", None, True, "D", False),
)


class Workload:
    """Shared checking, run accounting and fault injection."""

    name = ""
    #: Tail percentile, fixed per workload so that it does not move when a
    #: faster program completes more operations in the same time.
    tail_pct = 50.0

    def __init__(self, lab, rng, probe, scratch: str, inject_fault: bool = False):
        self.lab = lab
        self.rng = rng
        self.probe = probe
        self.call = probe.call
        self.scratch = scratch
        self.inject_fault = inject_fault
        self._checks = 0
        self.op_ticks = 0
        # Weak sets: toolchain nets die after each job, and a new net may reuse
        # a dead one's id.
        self._seen_nets = weakref.WeakSet()
        self._lazy_nets = weakref.WeakSet()

    # -- helpers used by the workloads ----------------------------------

    def expect(self, layer: str, got, want) -> bool:
        """Compare an outcome with its reference; a mismatch is charged to ``layer``.

        With fault injection every fifth reference is deliberately wrong.
        """
        if self.inject_fault and self._checks % 5 == 0:
            want = ("wrong reference", want)
        self._checks += 1
        if got != want:
            self.probe.fail(layer)
            return False
        return True

    def compile(self, name: str, fn, *args):
        """Build a net and record its size (neurons, nonzero weights)."""
        net = self.call("compilers", name, fn, *args)
        self.probe.count("compilers.nets")
        self.probe.count("compilers.net_neurons", net.n_neurons)
        self.probe.count(
            "compilers.net_weights",
            len(net.state_weights) + len(net.input_weights) + len(net.biases),
        )
        if not net.is_exact():
            self._lazy_nets.add(net)
        return net

    def _layer(self, net) -> str:
        return "exact" if net in self._lazy_nets else "network"

    def _timed_run(self, name: str, fn, net, *args, **kwargs):
        """Call ``fn(net, ...)``; returns (result, seconds).  First runs count as cold."""
        cold = net not in self._seen_nets
        self._seen_nets.add(net)
        start = perf_counter()
        try:
            return self.call(self._layer(net), name, fn, net, *args, **kwargs), perf_counter() - start
        finally:
            if cold:
                self.probe.count("network.cold_run_s", perf_counter() - start)

    def _tally(self, net, result, seconds: float) -> None:
        layer = self._layer(net)
        self.probe.count(f"{layer}.runs")
        self.probe.count("network.timeouts" if result.verdict.value == "timeout" else "network.decided")
        self.probe.count(f"{layer}.run_s", seconds)
        self.probe.count(f"{layer}.run_ticks", result.ticks)
        self.op_ticks += result.ticks

    def run_word(self, net, word: str, budget: int) -> str:
        """``network.run``; returns the verdict string."""
        result, seconds = self._timed_run(
            "run", self.lab.network.run, net, word, budget, record_trace=False
        )
        self._tally(net, result, seconds)
        return result.verdict.value

    def consult(self, net, word: str, budget: int):
        """``oracle_consult``; returns the bit, or "horizon".

        A consult that raises ``HorizonExceeded`` returns no RunResult, so its
        ticks are unknown; it counts as a decided run but adds neither ticks
        nor seconds to the tick rates.
        """
        try:
            (bit, result), seconds = self._timed_run(
                "oracle_consult", self.lab.compilers.oracle_consult, net, word, budget
            )
        except self.lab.errors.HorizonExceeded:
            self.probe.count(f"{self._layer(net)}.runs")
            self.probe.count("network.decided")
            return "horizon"
        self._tally(net, result, seconds)
        return bit

    def reference_membership(self, real, word: str):
        try:
            return self.call(
                "langcodec", "decode_membership",
                self.lab.langcodec.decode_membership, real, word, self.alphabet,
            )
        except self.lab.errors.HorizonExceeded:
            return "horizon"

    def stack_sample(self, net, machine, word: str):
        """(net, word, budget) of one two-stack run, for the ``step`` replay."""
        _, steps = machine.execute(word, 100_000)
        return net, word, self.lab.compilers.two_stack_budget(len(word), steps)


class _Anbn(Workload):
    """Words through the 113-neuron a^n b^n net, checked against the machine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        c = self.lab.compilers
        self.alphabet = self.lab.langcodec.Alphabet.of("ab")
        symbol = {"x": "a", "y": "b", None: None}
        rules = tuple(
            c.Rule(state, symbol[read], 1 if pop else None, None, nxt, push1=1 if push else None)
            for state, read, pop, nxt, push in ANBN_RULES
        )
        self.machine = c.TwoStackMachine(("S", "T", "D"), self.alphabet, rules, "S", frozenset({"S", "T"}))
        self.net = self.compile("two_stack_to_net", self.lab.compilers.two_stack_to_net, self.machine)
        self.ops = self.words()
        self.run_word(self.net, "ab", 64)  # the first run builds the kernel's tables

    def run_op(self, i: int):
        word = self.ops[i % len(self.ops)]
        want, steps = self.call("compilers", "reference", self.machine.execute, word, 100_000)
        budget = self.lab.compilers.two_stack_budget(len(word), steps)
        verdict = self.run_word(self.net, word, budget)
        return verdict, self.expect("network", verdict, "accept" if want else "reject")


class AnbnSweep(_Anbn):
    """Short words: per-tick overhead dominates."""

    name = "anbn-sweep"
    tail_pct = 95.0

    def words(self) -> list[str]:
        # Criterion 4 runs every word of length <= 12; a uniform draw from
        # those is mostly length 11 and 12.  Draw 1/16 of each length so every
        # seed gets the same length mix, and add every a^n b^n, the only
        # accepted words, so the accept path runs on every seed.
        words = ["a" * n + "b" * n for n in range(7)]
        for length in range(13):
            for code in self.rng.sample(range(2**length), max(1, 2**length // 16)):
                words.append(format(code, f"0{length}b").translate(_BITS_TO_AB) if length else "")
        self.rng.shuffle(words)
        return words

    def replay_sample(self):
        return self.stack_sample(self.net, self.machine, "a" * 6 + "b" * 6)


class AnbnDeep(_Anbn):
    """Long words: big-int arithmetic on growing denominators dominates."""

    name = "anbn-deep"
    tail_pct = 50.0
    n_range = (110, 130)

    def words(self) -> list[str]:
        # Eight words per cycle, two of each shape, so the accept/reject mix
        # and the tick counts are the same on every seed up to the jitter in n.
        shapes = [
            lambda n: "a" * n + "b" * n,
            lambda n: "a" * (n + 1) + "b" * n,
            lambda n: "a" * n + "b" * (n + 1),
            lambda n: "a" * (n - 1) + "b" * n,
        ] * 2
        self.rng.shuffle(shapes)
        return [shape(self.rng.randint(*self.n_range)) for shape in shapes]

    def replay_sample(self):
        return self.stack_sample(self.net, self.machine, min(self.ops, key=len))


_BITS_TO_AB = str.maketrans("01", "ab")


class Oracle(Workload):
    """A seeded random language consulted through three kinds of oracle net."""

    name = "oracle"
    tail_pct = 75.0
    horizon = 25
    lazy_horizon = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        lab = self.lab
        lc, c, ex = lab.langcodec, lab.compilers, lab.exact
        self.alphabet = lc.Alphabet.of("ab")
        members = [
            lc.string_of_index(i, self.alphabet)
            for i in self.rng.sample(range(1, self.horizon + 1), self.rng.randint(6, 14))
        ]
        language = lc.Language.from_members(self.alphabet, members)
        real, table = self._pack(language, self.horizon)
        short_real, short = self._pack(language, self.lazy_horizon)
        spec = c.OracleNetSpec(ex.ExactScalar.oracle(table, ex.CANTOR4, "0'"), self.alphabet)
        fast = self.compile("oracle_net", c.oracle_net, spec)
        first, second, handoff = self.call("compilers", "oracle_net_parts", c.oracle_net_parts, spec)
        composed = self.compile("compose_nets", c.compose_nets, first, second, handoff)
        # The stream view is strict past its horizon, so the weight is not a
        # known rational and every tick takes the interval path.
        lazy_spec = c.OracleNetSpec(
            ex.ExactScalar.from_stream(short.digit_view(ex.CANTOR4)), self.alphabet
        )
        lazy = self.compile("oracle_net", c.oracle_net, lazy_spec)
        # The indices are the same on every seed, so only the memberships
        # vary.  The last indices of each kind lie past its horizon.
        groups = (
            (fast, real, range(1, self.horizon + 3), c.oracle_budget),
            (composed, real, (1, 4, 9, 16, 25, 26), c.composed_oracle_budget),
            (lazy, short_real, (1, 2), c.oracle_budget),
        )
        self.ops = []
        for net, ref, indices, budget_of in groups:
            for word in (lc.string_of_index(i, self.alphabet) for i in indices):
                self.ops.append((net, ref, word, budget_of(word, self.alphabet)))
        word = lc.string_of_index(9, self.alphabet)
        self.replay = (fast, word, c.oracle_budget(word, self.alphabet))

    def replay_sample(self):
        return self.replay

    def _pack(self, language, horizon: int):
        lc = self.lab.langcodec
        real = self.call("langcodec", "encode_language", lc.encode_language, language, horizon)
        table = self.call(
            "langcodec", "OracleTable.from_language", lc.OracleTable.from_language, language, horizon
        )
        return real, table

    def run_op(self, i: int):
        net, real, word, budget = self.ops[i % len(self.ops)]
        want = self.reference_membership(real, word)
        got = self.consult(net, word, budget)
        return f"{word}:{got}", self.expect(self._layer(net), got, want)


class Toolchain(Workload):
    """Many small generated jobs taken through every module end to end."""

    name = "toolchain"
    tail_pct = 90.0
    jobs = 64

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.alphabet = self.lab.langcodec.Alphabet.of("ab")
        # Job k's sizes and kinds follow from k, so every seed's cycle has
        # the same mix of costs; the seed fills in the contents and the order.
        self.ops = [self._make_job(k) for k in range(self.jobs)]
        self.rng.shuffle(self.ops)
        os.makedirs(self.scratch, exist_ok=True)

    def _make_job(self, k: int) -> dict:
        rng = self.rng
        n_states = 2 + k % 3
        states = [f"q{k}" for k in range(n_states)]
        accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
        dfa_lines = [
            f"state {q}" + (" start" if q == "q0" else "") + (" accept" if q in accepting else "")
            for q in states
        ]
        dfa_lines += [f"trans {q} {s} {rng.choice(states)}" for q in states for s in "ab"]
        rule = [
            ("parity", rng.choice("ab")), ("anbn",), ("prefix", rng.choice(["a", "ab", "ba"])), ("abstar",), None
        ][k % 5]
        if rule is None:
            members = sorted({"".join(rng.choice("ab") for _ in range(rng.randint(0, 3))) for _ in range(5)})
            lang_lines = ["alphabet: ab"] + [f"member: {m}" for m in members]
        else:
            lang_lines = ["alphabet: ab", "rule: " + " ".join(rule)]
        x, y = rng.choice([("a", "b"), ("b", "a")])
        bit = rng.randint(0, 1)
        machine_lines = ["alphabet: ab", "state S start accept", "state T accept", "state D"]
        symbol = {"x": x, "y": y, None: "-"}
        for state, read, pop, nxt, push in ANBN_RULES:
            pop_s, push_s = (str(bit) if flag else "-" for flag in (pop, push))
            machine_lines.append(f"rule {state} {symbol[read]} {pop_s} - -> {nxt} {push_s} -")
        words = ["".join(rng.choice("ab") for _ in range(length)) for length in (5, 0, 3, 8)]
        stack_word = x * (k % 4) + y * (k % 4 + k // 4 % 2)
        bits = [rng.randint(0, 1) for _ in range(1 + 7 * k % 24)]
        return {
            "dfa": "\n".join(dfa_lines) + "\n",
            "language": "\n".join(lang_lines) + "\n",
            "machine": "\n".join(machine_lines) + "\n",
            "words": words,
            "stack_word": stack_word,
            "consult_index": 1 + k % 6,
            "indices": [rng.randint(1, 10**5) for _ in range(4)],
            "bits": bits,
            "labels": sorted(set(rng.sample(["0", "0'", "0''"], rng.randint(1, 3)))),
        }

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.scratch, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.call("cli", argv[0], self.lab.cli.main, argv)
        return code, out.getvalue().strip()

    def _load(self, name: str, fn, path: str):
        self.probe.count("formats.bytes", os.path.getsize(path))
        return self.call("formats", name, fn, path)

    def run_op(self, i: int):
        lab, job = self.lab, self.ops[i % len(self.ops)]
        c, lc, f, deg = lab.compilers, lab.langcodec, lab.formats, lab.degrees
        call, expect = self.call, self.expect
        checks = []

        dfa_path = self._write("job.dfa", job["dfa"])
        lang_path = self._write("job.lang", job["language"])
        dfa = self._load("load_dfa", f.load_dfa, dfa_path)
        language = self._load("load_language", f.load_language, lang_path)
        machine = self._load("load_two_stack", f.load_two_stack, self._write("job.tsm", job["machine"]))

        dfa_net = self.compile("dfa_to_net", c.dfa_to_net, dfa)
        stack_net = self.compile("two_stack_to_net", c.two_stack_to_net, machine)
        horizon = 12
        real = call("langcodec", "encode_language", lc.encode_language, language, horizon)
        table = call("langcodec", "OracleTable.from_language", lc.OracleTable.from_language, language, horizon)
        scalar = lab.exact.ExactScalar.oracle(table, lab.exact.CANTOR4, "0'")
        oracle = self.compile("oracle_net", c.oracle_net, c.OracleNetSpec(scalar, self.alphabet))

        # One net per row of the hierarchy table.
        rows = (
            (dfa_net, "at-most-bounded-automata"),
            (stack_net, "at-most-turing"),
            (oracle, "oracle-degrees: 0'"),
        )
        for net, want in rows:
            power = str(call("degrees", "classify_network", deg.classify_network, net))
            checks.append(expect("degrees", power, want))
        top = call("degrees", "maximals", deg.maximals, job["labels"], deg.DegreeOrder.builtin())
        chain = ["0", "0'", "0''"]
        checks.append(expect("degrees", top, frozenset({max(job["labels"], key=chain.index)})))

        loaded = self._round_trip(oracle, "job.net")
        text = lambda net: call("formats", "format_network", f.format_network, net)[0]
        checks.append(expect("formats", text(loaded), text(oracle)))

        for index in job["indices"]:
            s = call("langcodec", "string_of_index", lc.string_of_index, index, self.alphabet)
            back = call("langcodec", "index_of_string", lc.index_of_string, s, self.alphabet)
            checks.append(expect("langcodec", back, index))
        bits = job["bits"]
        packed = call("langcodec", "cantor_encode", lc.cantor_encode, bits)
        decoded, rest = [], packed
        while rest:
            bit, rest = call("langcodec", "cantor_decode_step", lc.cantor_decode_step, rest)
            decoded.append(bit)
        checks.append(expect("langcodec", decoded, bits))
        pushed = 0
        for bit in reversed(bits):
            pushed = call("compilers", "gadget", c.push_gadget, pushed, bit)
        popped, rest = [], pushed
        while rest:
            bit, rest = call("compilers", "gadget", c.pop_gadget, rest)
            popped.append(bit)
        checks.append(expect("compilers", (pushed, popped), (packed, bits)))
        schedule = call("spikes", "timing_encode", lab.spikes.timing_encode, real, horizon)
        back = call("spikes", "timing_decode", lab.spikes.timing_decode, schedule)
        checks.append(expect("spikes", back.digit_string(horizon), real.digit_string(horizon)))

        verdicts, wants = [], []
        for word in job["words"]:
            accepted = call("compilers", "reference", dfa.accepts, word)
            wants.append("accept" if accepted else "reject")
            verdicts.append(self.run_word(dfa_net, word, c.dfa_budget(len(word))))
            checks.append(expect("network", verdicts[-1], wants[-1]))
        word = job["words"][0]
        fresh = self._round_trip(dfa_net, "dfa.net")
        checks.append(expect("network", self.run_word(fresh, word, c.dfa_budget(len(word))), wants[0]))
        word = job["stack_word"]
        if i == 0:
            self.replay = self.stack_sample(stack_net, machine, word)
        want, steps = call("compilers", "reference", machine.execute, word, 10_000)
        verdicts.append(self.run_word(stack_net, word, c.two_stack_budget(len(word), steps)))
        checks.append(expect("network", verdicts[-1], "accept" if want else "reject"))
        s = lc.string_of_index(job["consult_index"], self.alphabet)
        verdicts.append(self.consult(oracle, s, c.oracle_budget(s, self.alphabet)))
        checks.append(expect("network", verdicts[-1], self.reference_membership(real, s)))

        cli_net = os.path.join(self.scratch, "cli.net")
        word = job["words"][0]
        runs = (
            (["compile-dfa", "--dfa", dfa_path, "--out", cli_net], ""),
            (["run", "--net", cli_net, "--word", word, "--budget", str(c.dfa_budget(len(word)))], wants[0]),
            (["classify", "--net", cli_net], "at-most-bounded-automata"),
            (["encode", "--language", lang_path, "--digits", str(horizon)], real.digit_string(horizon)),
        )
        for argv, want in runs:
            checks.append(expect("cli", self._cli(argv), (0, want)))
        outcome = "|".join(map(str, verdicts + [top, packed, real.digit_string(horizon)]))
        return outcome, all(checks)

    def replay_sample(self):
        return self.replay

    def _round_trip(self, net, name: str):
        """``save_network`` then ``load_network``: a fresh net, whose first run is cold."""
        path = os.path.join(self.scratch, name)
        self.call("formats", "save_network", self.lab.formats.save_network, net, path)
        self.probe.count("formats.bytes", os.path.getsize(path))
        return self._load("load_network", self.lab.formats.load_network, path)


WORKLOADS = {w.name: w for w in (AnbnSweep, AnbnDeep, Oracle, Toolchain)}
