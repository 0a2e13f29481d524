"""Long-run decay of the kernel's tick rate on the a^n b^n two-stack net.

Run from the root of a checkout::

    python3 perfbench/decay.py

A word of N a's keeps the net buffering for N ticks, and each tick adds
bits to the buffer neuron's denominator, so later ticks cost more.  ``run``
is timed on prefixes of 2k, 4k, ... 24k symbols with a budget of N + 1
ticks (each run ends in the expected TIMEOUT while still buffering),
keeping the fastest of three runs, and the script prints each length's
average rate.  Rates over single windows, from differences between runs,
are too noisy on a shared host to read.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

STEP, LAST, REPEATS = 2000, 24000, 3


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from arnnlab import Alphabet, Rule, TwoStackMachine, Verdict, run, two_stack_to_net

    machine = TwoStackMachine(
        ("S", "T", "D"),
        Alphabet.of("ab"),
        (
            Rule("S", "a", None, None, "S", push1=1),
            Rule("S", "b", 1, None, "T"),
            Rule("T", "b", 1, None, "T"),
            Rule("S", None, 1, None, "D"),
            Rule("T", None, 1, None, "D"),
        ),
        "S",
        frozenset({"S", "T"}),
    )
    net = two_stack_to_net(machine)
    run(net, "ab", 64)
    print("ticks  average ticks/s")
    for n in range(STEP, LAST + 1, STEP):
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            result = run(net, "a" * n, n + 1, record_trace=False)
            best = min(best, perf_counter() - start)
            if result.verdict != Verdict.TIMEOUT:
                raise SystemExit(f"expected TIMEOUT while buffering {n} symbols")
        print(f"{n:6d} {n / best:16.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
