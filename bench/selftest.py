"""Self-tests of the benchmark itself (a few minutes).

    python3 bench/selftest.py [--workload NAME] [--seed N]

1. A traced run passes: the traced pass's stdout and exit codes are
   byte-identical to the untraced pass (run.py counts any difference as a
   failed command).
2. Two traced runs give identical per-layer counts and ratios.
3. A deliberately wrong expected output drives fail_ratio to 1 and makes
   the benchmark exit non-zero.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# per-layer metrics that must repeat exactly between runs
EXACT_SUFFIXES = (".calls", ".cells", ".max_out_bits", ".raised",
                  "_per_graph", ".accept_ratio", ".elims_per_candidate")


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "1"]
        + list(args), cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def exact_counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(EXACT_SUFFIXES)}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="perturb_verify")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(BENCH))
    import workloads

    common = ("--workload", args.workload, "--seed", str(args.seed))
    failures = []

    code_a, traced_a, err = bench(*common, "--trace", "1")
    if code_a != 0 or not traced_a["correct"] or traced_a["failed"]:
        failures.append("traced run failed: %s" % err.strip()[-500:])
    code_b, traced_b, _ = bench(*common, "--trace", "1")
    if traced_a is None or traced_b is None:
        failures.append("a traced run printed no result")
    elif exact_counts(traced_a) != exact_counts(traced_b):
        a, b = exact_counts(traced_a), exact_counts(traced_b)
        diff = sorted(k for k in a if a[k] != b.get(k))
        failures.append("traced counts differ between runs: %s" % diff)

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        wl = workloads.build(args.workload, args.seed)
        wrong = {args.workload: {str(args.seed): {
            c.key: [0, "0" * 64] for c in wl.commands}}}
        path = tmp / "expected.json"
        path.write_text(json.dumps(wrong))
        code, result, _ = bench(*common, "--expected", str(path))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code == 0 or result is None \
            or result["failed"] != result["attempted"]:
        failures.append("wrong expected output was not caught: exit %d, %s"
                        % (code, result and
                           (result["failed"], result["attempted"])))

    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
