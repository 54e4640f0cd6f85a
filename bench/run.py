"""Benchmark of the subcart command line, run from the root of a checkout.

    python3 bench/run.py --workload probe_sweep --seed 1 --seconds 25 --trace 0

One process, one thread, one caller: `subcart.cli.main(argv)` is called in
process, back to back, the way a user waits for each report.  The commands
come from the workload seed (see workloads.py) in whole rounds.  The number
of rounds is fixed by `--seconds` and the round times below, so a run does
the same work on every machine and takes about `--seconds` on the reference
one.  Round 0 runs twice, and its reports must be byte-identical.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` half of the rounds runs untraced, then again under the
tracer of spans.py, and the last line carries the per-layer metrics.  The
lines before it list every failed command and a record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference, kernel_seconds
from workloads import WORKLOADS, make_rounds, scenarios_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "subcart" / "scenarios"

SETUP_RUNS = 7
# Seconds one round takes on the reference machine (2 vCPU Xeon, Python 3.11,
# numpy 2.4) at the commit that added the benchmark.
ROUND_SECONDS = {"probe_sweep": 4.5, "orbit_sweep": 4.9, "symbolic_sweep": 1.5}
# enough reports for a p90 with 10 samples beyond it
MIN_REPORTS = 100
TRACE_SHARE = 2
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from subcart.cli import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(time.perf_counter() - t0)
"""


def scenario_path(name: str) -> str:
    return str(SCENARIOS / f"{name}.json")


def measure_setup(workload: str) -> list[float]:
    """Wall seconds for fresh interpreters to import subcart.cli and load the workload's scenarios.

    Not scaled by speed.py: import work (unmarshalling, loading extension
    modules) did not slow with the kernel on the reference host.
    """
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC)] + scenarios_of(workload, scenario_path)
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first child only warms the page cache and bytecode files
            times.append(float(out.stdout))
    return times


class Outcome:
    __slots__ = ("cmd", "seconds", "scaled", "code", "stdout", "error")

    def __init__(self, cmd, seconds, code, stdout, error):
        self.cmd, self.seconds, self.code, self.stdout, self.error = cmd, seconds, code, stdout, error
        self.scaled = seconds  # wall seconds at the reference speed, see speed.py


def run_command(cli, cmd) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd.argv)
        except Exception as exc:  # an uncaught exception is a traceback for a CLI user
            error = f"traceback: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if error is None and "Traceback" in err.getvalue():
        error = "traceback on stderr"
    return Outcome(cmd, seconds, code, out.getvalue(), error)


def judge(o: Outcome) -> str | None:
    """Why the command's outcome is wrong, or None."""
    if o.error:
        return o.error
    if o.code != o.cmd.exit_code:
        return f"exit {o.code}, expected {o.cmd.exit_code}"
    if o.cmd.malformed:
        return None
    lines = o.stdout.splitlines()
    if len(lines) != 1 or not o.stdout.endswith("\n"):
        return f"expected one report line, got {len(lines)}"
    try:
        report = json.loads(lines[0])
        if report.get("command") != o.cmd.argv[0]:
            return f"report names command {report.get('command')!r}"
        return o.cmd.check(report["result"]) if o.cmd.check else None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"report does not have the expected form: {exc!r}"


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 of n samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), TAIL_LADDER[-1])


def plan_rounds(workload: str, seconds: float) -> int:
    reports = sum(not c.malformed for c in make_rounds(workload, 0, 1, scenario_path)[0])
    # the replay of round 0 is one more round
    return max(2, math.ceil(seconds / ROUND_SECONDS[workload]) - 1, math.ceil(MIN_REPORTS / reports))


def run_all(cli, commands, deadline_s):
    """Run the commands in order, each between two speed calibrations.

    Commands not started by deadline_s are dropped, so that a much slower
    program still ends the run in time, with what it did.
    """
    outcomes = []
    t0 = time.perf_counter()
    after = kernel_seconds()
    for cmd in commands:
        if time.perf_counter() - t0 > deadline_s:
            break
        before = after
        o = run_command(cli, cmd)
        after = kernel_seconds()
        o.scaled = at_reference(o.seconds, before, after)
        outcomes.append(o)
    return outcomes, time.perf_counter() - t0


def list_failures(outcomes, reasons) -> None:
    seen: dict[tuple, int] = {}
    for o, why in zip(outcomes, reasons):
        if why:
            key = (o.cmd.template, " ".join(o.cmd.argv), why, o.cmd.known_defect)
            seen[key] = seen.get(key, 0) + 1
    for (template, argv, why, known), n in seen.items():
        rel = argv.replace(str(ROOT) + os.sep, "")
        print(f"FAILED x{n} [{template}] subcart {rel}\n    {why}" + (f" (known: {known})" if known else ""))


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def reports_sha256(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.stdout.encode("utf-8"))
    return h.hexdigest()


def replay_mismatches(first, second) -> list[str]:
    return [f"report of [{a.cmd.template}] differs on replay: subcart {' '.join(a.cmd.argv)}"
            for a, b in zip(first, second) if a.stdout != b.stdout or a.code != b.code]


def end_to_end(cli, args) -> dict:
    setup = measure_setup(args.workload)
    rounds = make_rounds(args.workload, args.seed, plan_rounds(args.workload, args.seconds),
                         scenario_path)
    first = len(rounds[0])
    outcomes, wall = run_all(cli, rounds[0] + [c for r in rounds for c in r], 5 * args.seconds)
    reasons = [judge(o) for o in outcomes]
    mismatches = replay_mismatches(outcomes[:first], outcomes[first:2 * first])
    wellformed = [o for o in outcomes if not o.cmd.malformed]
    correct = not mismatches and not any(
        why for o, why in zip(outcomes, reasons) if not o.cmd.known_defect)
    failed = sum(1 for why in reasons if why) + len(mismatches)

    lat = sorted(o.scaled * 1e3 for o in wellformed)
    raw = sorted(o.seconds * 1e3 for o in wellformed)
    busy = sum(o.scaled for o in outcomes)
    tail_p = tail_percentile(len(lat))
    beyond = len(lat) - int(len(lat) * tail_p / 100)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "reports_per_s": (len(wellformed) / busy, "1/s",
                          f"{len(wellformed)} reports; raw {len(wellformed) / wall:.4g} in {wall:.1f} s wall"),
        "report_p50_ms": (statistics.median(lat), "ms", f"p50, n={len(lat)}; raw {statistics.median(raw):.4g}"),
        "report_tail_ms": (percentile(lat, tail_p), "ms",
                           f"p{tail_p:g}, n={len(lat)}, {beyond} beyond; raw {percentile(raw, tail_p):.4g}"),
        "failed_frac": (failed / len(outcomes), "ratio", f"{failed} of {len(outcomes)} commands"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the workload process"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds and a replay of round 0, "
          f"{len(outcomes)} commands")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<15} {value:12.4f} {unit:<6} {note}")
    list_failures(outcomes, reasons)
    for line in mismatches:
        print("FAILED " + line)
    record = dict(machine_record(), reports_sha256=reports_sha256(outcomes[first:]),
                  reports_sha256_of=f"{len(outcomes) - first} commands after the replay")
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def per_layer(cli, args) -> dict:
    from spans import Tracer

    n = max(1, plan_rounds(args.workload, args.seconds) // TRACE_SHARE)
    commands = [c for r in make_rounds(args.workload, args.seed, n, scenario_path) for c in r]
    first, wall = run_all(cli, commands, 2 * args.seconds)
    tracer = Tracer()
    tracer.install()
    second, traced_wall = run_all(cli, [o.cmd for o in first], 3 * args.seconds)
    reasons = [judge(o) for o in second]
    mismatches = replay_mismatches(first, second)
    correct = not mismatches and not any(why for o, why in zip(second, reasons) if not o.cmd.known_defect)
    failed = sum(1 for why in reasons if why) + len(mismatches)

    # in scaled time, so that a change of host speed between the passes cancels
    metrics = tracer.metrics(sum(o.scaled for o in second) - sum(o.scaled for o in first))
    print(f"workload {args.workload} seed {args.seed}: {n} rounds, {len(second)} commands traced, "
          f"untraced {wall:.2f} s, traced {traced_wall:.2f} s, {tracer.span_count()} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    list_failures(second, reasons)
    for line in mismatches:
        print("FAILED " + line)
    record = dict(machine_record(), **tracer.summary(), reports_sha256=reports_sha256(second),
                  reports_sha256_of=f"{len(second)} commands")
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": correct,
        "attempted": len(second),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "subcart" / "cli.py").is_file():
        sys.stderr.write(f"error: no subcart sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from subcart import cli

    result = per_layer(cli, args) if args.trace else end_to_end(cli, args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
