"""nullcore benchmark: one workload through the CLI, timed and checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Load is a closed loop with one client: each command is a fresh
``python -m nullcore.cli`` child, started only after the previous one
exited, in its own empty working directory and with the same minimal
environment on every commit (``src`` on PYTHONPATH, NULLCORE_THREADS
unset).  A pass runs the workload's fixed command list once; passes repeat
while another one still fits in ``--seconds`` (at least three).  Each
command's time is its median over the passes, and ``wall_s`` and
``cpu_s`` are the sums of those, so one disturbed pass on a shared
machine does not move them.  Every reported time is scaled to the
machine's nominal speed by a probe timed before each command (see
``probe``), so a drift in the shared host's speed does not move them
either.  Every output is checked (see checks.py) and, for seeds recorded
in expected.json, compared byte for byte with this program's recorded
output.  Any failure makes the run exit 1.

The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``; with ``--trace 1`` one more pass runs under traced.py and
the per-layer metrics are reported instead.  ``--record`` runs one pass,
checks it and stores its output hashes as the expected outputs for the
seed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
STARTUP_REPEATS = 5
# the whole run must end within 180 s; a stuck child is killed before that
DEADLINE_S = 170


class Deadline(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise Deadline("run exceeded %d s" % DEADLINE_S)


def child_env():
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
        "LC_ALL": "C",
    }


class Child(NamedTuple):
    """Outcome of one finished child process."""

    code: int
    out: bytes
    wall: float
    cpu: float
    rss_kb: int
    err: bytes


def run_child(argv, workdir: Path) -> Child:
    """Run argv in a fresh empty directory under workdir, wait for it and
    return its exit code, stdout, wall time, CPU time and max RSS."""
    cwd = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with open(cwd / ".stdout", "wb") as out, \
                open(cwd / ".stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, (cwd / ".stdout").read_bytes(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                     (cwd / ".stderr").read_bytes()[-400:])
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def cli_argv(command, inputs: Path):
    return [str(inputs / a) if a == command.graph else a
            for a in command.argv]


def setup(workload_name, seed, expected_path, workdir):
    """Inputs written, expected outputs loaded, one untimed warm-up run."""
    wl = workloads.build(workload_name, seed)
    fewest = MIN_PASSES * len(wl.commands)
    if samples_beyond(fewest, wl.tail_pct) < 10:
        raise ValueError("p%d leaves fewer than 10 of %d samples beyond it"
                         % (wl.tail_pct, fewest))
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=workdir))
    for name, g in wl.graphs.items():
        (inputs / name).write_text(g.text())
    gate = {}
    if expected_path.exists():
        recorded = json.loads(expected_path.read_text())
        gate = recorded.get(workload_name, {}).get(str(seed), {})
    first = wl.commands[0]
    run_child([sys.executable, "-m", "nullcore.cli"]
              + cli_argv(first, inputs), workdir)
    return wl, inputs, gate


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def samples_beyond(samples: int, pct: int) -> int:
    return samples - math.ceil(pct / 100 * samples)


def digest(code, out):
    return [code, hashlib.sha256(out).hexdigest()]


def check_pass(wl, results, gate):
    """Reason per failing command key (None when right)."""
    by_key = {c.key: r for c, r in zip(wl.commands, results)}
    reasons = {}
    for command, res in zip(wl.commands, results):
        context = None
        if command.graph is not None:
            analyzed = by_key.get("analyze " + command.graph)
            context = analyzed.out if analyzed is not None else None
        graph = wl.graphs.get(command.graph)
        reason = checks.check(command, graph, res.code, res.out, context)
        if reason is None and gate:
            want = gate.get(command.key)
            if want != digest(res.code, res.out):
                reason = "differs from the recorded output"
        if reason is not None and res.err:
            reason += " (stderr: %s)" % res.err.decode(errors="replace")
        reasons[command.key] = reason
    return reasons


# The host is shared and its speed drifts, at times by 2x within a minute.
# Before every command the parent times probe.py, a fixed piece of exact
# arithmetic in a fresh interpreter (the benchmark's own, independent of
# nullcore), and every time a run reports is scaled to nominal speed:
# multiplied by NOMINAL_PROBE_S over the median probe time among the
# PROBE_WINDOW commands on either side.  NOMINAL_PROBE_S is about the
# probe's time on an idle core of the machine the baseline was taken on.
# The unscaled times are kept in the run record.
NOMINAL_PROBE_S = 0.06
PROBE_WINDOW = 5


def probe(workdir) -> float:
    return run_child([sys.executable, str(BENCH / "probe.py")], workdir).wall


def speed_scales(probes):
    """Per-command factor to nominal speed, from a windowed median."""
    return [NOMINAL_PROBE_S / statistics.median(
        probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        for i in range(len(probes))]


def run_pass(wl, inputs, workdir, launcher=None, spans_dir=None):
    """Run the command list once; return the results and the probe time
    taken before each command."""
    results, probes = [], []
    for i, command in enumerate(wl.commands):
        probes.append(probe(workdir))
        args = cli_argv(command, inputs)
        if launcher is None:
            argv = [sys.executable, "-m", "nullcore.cli"] + args
        else:
            argv = [sys.executable, str(launcher),
                    str(spans_dir / ("%03d.json" % i))] + args
        results.append(run_child(argv, workdir))
    return results, probes


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def startup_s(workdir):
    walls = [run_child([sys.executable, "-c", "import nullcore.cli"],
                       workdir).wall for _ in range(STARTUP_REPEATS)]
    return statistics.median(walls)


def measure(args, workdir):
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "git_sha": git_sha(),
        "src_sha256": src_digest(), "loadavg_start": loadavg(),
    }
    setups, setup_probes = [], [probe(workdir)]
    for _ in range(1 if args.record else SETUP_REPEATS):
        start = time.perf_counter()
        wl, inputs, gate = setup(args.workload, args.seed, args.expected,
                                 workdir)
        setups.append(time.perf_counter() - start)
        setup_probes.append(probe(workdir))
    if args.record:
        gate = {}

    passes, probes, walls = [], [], []
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        results, pass_probes = run_pass(wl, inputs, workdir)
        passes.append(results)
        probes.extend(pass_probes)
        walls.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - started
        if args.record or (len(passes) >= MIN_PASSES
                           and elapsed + walls[-1] > args.seconds):
            break

    reasons = check_pass(wl, passes[0], gate)
    first = {c.key: (r.code, r.out) for c, r in zip(wl.commands, passes[0])}

    def failed(runs, what):
        bad = 0
        for command, res in zip(wl.commands, runs):
            if reasons[command.key] is None \
                    and first[command.key] != (res.code, res.out):
                reasons[command.key] = "output differs in %s" % what
            bad += reasons[command.key] is not None
        return bad

    n_failed = sum(failed(runs, "a later pass") for runs in passes)
    attempted = len(wl.commands) * len(passes)
    per_pass = len(wl.commands)
    pct = wl.tail_pct
    scales = speed_scales(probes)

    def times(field, scaled):
        """times[i][p]: command i's time in pass p."""
        return [[getattr(runs[i], field)
                 * (scales[p * per_pass + i] if scaled else 1.0)
                 for p, runs in enumerate(passes)]
                for i in range(per_pass)]

    def end_to_end(scaled):
        wall, cpu = times("wall", scaled), times("cpu", scaled)
        latencies = [x for per_command in wall for x in per_command]
        setup_scale = NOMINAL_PROBE_S / statistics.median(setup_probes) \
            if scaled else 1.0
        return {
            "setup_s": (statistics.median(setups) * setup_scale, "s"),
            "wall_s": (sum(map(statistics.median, wall)), "s"),
            "cpu_s": (sum(map(statistics.median, cpu)), "s"),
            "cmd_p50_s": (statistics.median(latencies), "s"),
            "cmd_tail_s": (nearest_rank(latencies, pct), "s"),
        }

    metrics = end_to_end(scaled=True)
    metrics["peak_rss_mb"] = (max(r.rss_kb for runs in passes for r in runs)
                              / 1024, "MB")
    wall_s = metrics["wall_s"][0]
    record["unscaled"] = {k: v for k, (v, _) in
                          end_to_end(scaled=False).items()}
    record["passes"] = len(passes)
    record["pass_walls_s"] = walls
    record["setups_s"] = setups
    record["probes_s"] = {"setup": setup_probes, "passes": probes}
    record["cmd_walls_s"] = {c.key: [runs[i].wall for runs in passes]
                             for i, c in enumerate(wl.commands)}
    record["cmd_tail"] = {"percentile": pct,
                          "samples": per_pass * len(passes),
                          "samples_beyond": samples_beyond(
                              per_pass * len(passes), pct)}

    if args.trace:
        spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=workdir))
        traced, traced_probes = run_pass(wl, inputs, workdir,
                                         BENCH / "traced.py", spans_dir)
        n_failed += failed(traced, "the traced run")
        attempted += per_pass
        traced_scales = speed_scales(traced_probes)
        stats = traced_mod.LayerStats()
        for i in range(per_pass):
            path = spans_dir / ("%03d.json" % i)
            if path.exists():
                stats.add(json.loads(path.read_text()), traced_scales[i])
        graphs_read = sum(c.graph is not None for c in wl.commands)
        trials = sum(c.trials for c in wl.commands)
        layer = stats.metrics(graphs_read + trials, trials)
        layer["cli.startup_s"] = (startup_s(workdir) * NOMINAL_PROBE_S
                                  / statistics.median(traced_probes), "s")
        traced_wall = sum(r.wall * f for r, f in zip(traced, traced_scales))
        layer["trace.overhead_ratio"] = (traced_wall / wall_s, "ratio")
        record["end_to_end"] = metrics
        metrics = layer

    record["fail_ratio"] = n_failed / attempted
    record["failures"] = {k: v for k, v in reasons.items() if v}
    record["loadavg_end"] = loadavg()
    return wl, passes[0], record, metrics, attempted, n_failed


def record_expected(args, wl, results, record):
    if record["failures"]:
        print("not recorded: outputs failed their checks", file=sys.stderr)
        return
    data = json.loads(args.expected.read_text()) \
        if args.expected.exists() else {}
    data.setdefault(args.workload, {})[str(args.seed)] = {
        c.key: digest(r.code, r.out) for c, r in zip(wl.commands, results)}
    args.expected.write_text(json.dumps(data, indent=1, sort_keys=True)
                             + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", type=Path, default=EXPECTED,
                   help="recorded outputs to compare against")
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs in --expected")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(
        prefix="%s-%d-" % (args.workload, args.seed), dir=scratch))
    try:
        wl, results, record, metrics, attempted, n_failed = measure(
            args, workdir)
    except Deadline as exc:
        print("benchmark aborted: %s" % exc, file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        record_expected(args, wl, results, record)
    for key, reason in record["failures"].items():
        print("FAILED %s: %s" % (key, reason), file=sys.stderr)
    if args.trace:
        print("end to end (untraced):")
        for name, (value, unit) in record["end_to_end"].items():
            print("  %-34s %14.6f %s" % (name, value, unit))
    print("%s metrics, workload %s, seed %d:" % (
        "per-layer" if args.trace else "end-to-end", args.workload,
        args.seed))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6f %s" % (name, value, unit))
    print("  %-34s %14.6f %s" % ("fail_ratio", record["fail_ratio"],
                                 "ratio"))
    tail = record["cmd_tail"]
    print("  cmd_tail_s is p%d of %d samples (%d beyond)" % (
        tail["percentile"], tail["samples"], tail["samples_beyond"]))
    print("  times are scaled to nominal speed; the machine ran at %.2f "
          "of it; unscaled: %s" % (
              NOMINAL_PROBE_S / statistics.median(
                  record["probes_s"]["passes"]),
              ", ".join("%s %.4f" % kv for kv in record["unscaled"].items())))
    record["metrics"] = metrics
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if n_failed == 0 else 1


def _require_checkout():
    missing = [p for p in (SRC / "nullcore" / "cli.py", TESTS / "oracle.py")
               if not p.is_file()]
    if missing:
        print("not a nullcore checkout: missing %s"
              % ", ".join(str(p.relative_to(ROOT)) for p in missing),
              file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    _require_checkout()
    sys.path.insert(0, str(TESTS))
    import checks  # noqa: E402  (needs tests/ on sys.path for the oracle)
    import traced as traced_mod  # noqa: E402
    import workloads  # noqa: E402
    sys.exit(main())
