"""Benchmark of fairex: closed-loop exchange sessions, their audits, and key set-up.

    python3 perfbench/run.py --workload {optimistic,dispute,cli,explore}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One client runs one session at a time
(closed loop): in this process through the public API, or, for `cli`, as
one `fairex run` child followed by one `fairex audit` child.

--trace 0 measures the end-to-end metrics for --seconds seconds after
set-up.  --trace 1 runs the workload's fixed session list twice, first
plain and then with layer spans installed from perfbench/tracing.py, and
reports the per-layer metrics.  Every session is checked either way.

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.  Spans of a
traced run are written to .perfbench/trace/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while the benchmark was written; re-check claims on it

E2E_UNITS = {
    "setup_s": "s",
    "session_p50_ms": "ms",
    "session_tail_ms": "ms",
    "sessions_per_s": "1/s",
    "audit_p50_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
# error_rate reads 0 on a healthy workload, so the result line carries it
# as attempted/failed rather than as a metric.
E2E_RESULT = [name for name in E2E_UNITS if name != "error_rate"]
# A timed in-process session audits its transcript this often and keeps the
# median time, so one preempted audit does not move audit_p50_ms.
AUDIT_REPS = 3


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Tally:
    """Folds session outcomes into the figures a run reports.

    Only per-session times are kept, so memory does not grow with what a
    session leaves behind; the digest covers the first `digest_sessions`.
    """

    def __init__(self, label: str, digest_sessions: int, sha256):
        self.label = label
        self.session_ms = array("d")
        self.audit_ms = array("d")
        self.attempted = 0
        self.failed = 0
        self.crashed = 0
        self.off_reference = 0
        self.failures: list[str] = []
        self.histogram: Counter = Counter()
        self.messages = 0
        self.wire_bytes = 0
        self._digest = sha256()
        self.digested = 0
        self.digest_sessions = digest_sessions

    def add(self, o) -> None:
        self.attempted += 1
        if o.error:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"session {self.attempted - 1}: {o.error}")
        self.off_reference += not o.reference_ok
        if o.audited is None:
            self.crashed += 1
        else:
            self.session_ms.append(o.session_ms)
            self.audit_ms.append(o.audit_ms)
            fair, involved = o.audited[:2]
            self.histogram[f"{'fair' if fair else 'unfair'}/{'arbiter' if involved else 'idle'}"] += 1
        for record in o.text.splitlines():  # tick, sender, receiver, hex(message)
            self.messages += 1
            self.wire_bytes += len(record.rsplit("\t", 1)[1]) // 2
        if self.digested < self.digest_sessions:
            self._digest.update(f"{o.text}{o.verdicts} {o.audited}\n".encode())
            self.digested += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def lines(self) -> list[str]:
        hist = " ".join(f"{k}={v}" for k, v in sorted(self.histogram.items()))
        return [
            f"{self.label}: outcomes {hist}",
            f"{self.label}: failed {self.failed} of {self.attempted} sessions",
            *(f"{self.label}: failed {line}" for line in self.failures),
            f"{self.label}: digest {self.digest} over the first {self.digested} sessions",
        ]


class Run:
    """One workload run: set-up, the session loop, checks and the printed report."""

    def __init__(self, wl, seed: int):
        import workloads

        self.w = workloads
        self.wl = wl
        self.seed = seed
        self.keys = None  # parameters, or for `cli` the key file, of the first set-up
        self.problems: list[str] = []  # run-level check failures
        self.tallies: list[Tally] = []
        self.lines: list[str] = []

    def setup(self, trace=None) -> float:
        times = []
        for rep in range(self.wl.setup_reps):
            if self.wl.in_process:
                elapsed, keys, ok = self.w.setup_in_process(self.wl, self.seed, rep)
            else:
                elapsed, keys, ok = self.w.setup_cli(self.wl, self.seed, rep, trace)
            times.append(elapsed)
            if not ok:
                self.problems.append(f"set-up {rep} failed: keygen, key-file round trip or validation")
            if rep == 0:
                self.keys = keys
        return statistics.median(times)

    def session(self, job, trace=None, audit_reps=1):
        if self.wl.in_process:
            return self.w.run_in_process(job, self.keys, audit_reps)
        return self.w.run_cli(job, self.keys, trace)

    def tally(self, label: str) -> Tally:
        tally = Tally(label, self.wl.fixed_sessions, self.w.untraced_sha256)
        self.tallies.append(tally)
        return tally

    @property
    def correct(self) -> bool:
        """Set-up round-tripped, no session crashed, shipped scripts match README.

        Sessions that stall or whose audit disagrees with the parties count
        as failed; they make the run incorrect only where the README fixes
        the outcome.
        """
        return not self.problems and not any(t.crashed or t.off_reference for t in self.tallies)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        self.lines += self.problems
        for tally in self.tallies:
            self.lines += tally.lines()
        for name, (value, unit) in metrics.items():
            self.lines.append(f"{name} {value:.6g} {unit}")
        return {
            "correct": self.correct,
            "attempted": sum(t.attempted for t in self.tallies),
            "failed": sum(t.failed for t in self.tallies),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }


def measure(run: Run, seconds: float) -> dict:
    setup_s = run.setup()
    jobs = run.wl.jobs(run.seed)
    tally = run.tally("sessions")
    start = time.perf_counter()
    deadline = start + seconds
    while not tally.attempted or time.perf_counter() < deadline:
        tally.add(run.session(next(jobs), audit_reps=AUDIT_REPS))
    elapsed = time.perf_counter() - start
    sessions = list(tally.session_ms) or [math.nan]
    tail, beyond = percentile(sessions, run.wl.tail_pct)
    # An audit costs 6 to 20 ms on paper keys depending on the script, so the
    # median of all audits falls on the edge of one of those levels, and a
    # fast or slow spell of the host moves it: take the median time of each
    # (protocol, script) pair, then the median over the pairs.
    rotation = len(run.wl.rotation) or 1
    audits = [statistics.median(tally.audit_ms[i::rotation])
              for i in range(min(rotation, len(tally.audit_ms)))]
    who = resource.RUSAGE_SELF if run.wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": setup_s,
        "session_p50_ms": statistics.median(sessions),
        "session_tail_ms": tail,
        "sessions_per_s": len(tally.session_ms) / elapsed,
        "audit_p50_ms": statistics.median(audits or [math.nan]),
        "error_rate": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    run.lines.append(
        f"session_tail_ms is p{run.wl.tail_pct:g} of {len(sessions)} sessions, {beyond} beyond it; "
        f"audit_p50_ms is the median of {len(audits)} per-pair medians; "
        f"setup_s is the median of {run.wl.setup_reps} set-ups"
    )
    result = run.result({name: (value, E2E_UNITS[name]) for name, value in metrics.items()})
    result["metrics"] = {name: result["metrics"][name] for name in E2E_RESULT}
    return result


def measure_traced(run: Run) -> dict:
    import tracing

    w, wl = run.w, run.wl
    tracer = tracing.Tracer()
    child = w.ChildTrace(tracer) if not wl.in_process else None
    if wl.in_process:
        tracer.install()
    try:
        run.setup(child)
    finally:
        tracer.uninstall()
    jobs = list(islice(wl.jobs(run.seed), wl.fixed_sessions))
    plain, traced = run.tally("plain"), run.tally("traced")
    for job in jobs:
        plain.add(run.session(job))
    if wl.in_process:
        tracer.install()
    try:
        for job in jobs:
            tracer.session = job.index
            traced.add(run.session(job, child))
    finally:
        tracer.uninstall()
    if plain.digest != traced.digest:
        run.problems.append("tracing changed the outputs")
    metrics = tracing.layer_metrics(
        tracer, sessions=len(jobs), setups=wl.setup_reps, messages=traced.messages,
        wire_bytes=traced.wire_bytes,
    )
    metrics["cli.import_ms"] = (w.startup_ms("import fairex"), "ms")
    metrics["cli.process_ms"] = (w.startup_ms("pass"), "ms")
    overhead = statistics.median(traced.session_ms) - statistics.median(plain.session_ms)
    metrics["trace.overhead_ms"] = (overhead, "ms")
    spans = w.WORK / "trace" / f"{wl.name}-seed{run.seed}.tsv"
    tracer.write(spans)
    run.lines.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    return run.result(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairex" / "__init__.py").is_file():
        print(f"error: no fairex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    result = measure_traced(run) if args.trace else measure(run, args.seconds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in run.lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
