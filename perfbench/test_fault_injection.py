"""Self-test of the benchmark's checks: a wrong reference must be caught.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_fault_injection.py

Each case runs one workload twice for its check operations only
(``--seconds 0``): once as is and once with ``--inject-fault``, which makes
every fifth reference wrong.  The faulty run must report failed operations,
``correct: false`` and a different verdict digest.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 424_242  # not in digests.json, so only the injected fault can fail a run


def bench(workload: str, *extra: str) -> tuple[dict, dict]:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", "0", *extra,
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"BENCH_{workload}_{SEED}_0.json"), encoding="utf-8") as fh:
        return line, json.load(fh)


@pytest.mark.parametrize("workload", ["anbn-sweep", "toolchain"])
def test_wrong_reference_fails_operations_and_changes_digest(workload):
    clean_line, clean = bench(workload)
    assert clean_line["correct"] and clean_line["failed"] == 0
    assert clean["error_rate"] == 0
    faulty_line, faulty = bench(workload, "--inject-fault")
    assert not faulty_line["correct"]
    assert faulty_line["failed"] > 0
    assert faulty["error_rate"] > 0
    assert faulty["digest"] != clean["digest"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
