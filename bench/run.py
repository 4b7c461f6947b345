"""Benchmark for hookforest: end-to-end metrics, or per-layer metrics
from a traced run.

Run from the repository root:

    python3 bench/run.py --workload signed-sweep --seed 1 --seconds 30 --trace 0

Workloads (inputs come from --seed; see bench/workloads.py):

  signed-sweep      forest-level distribution theorems at n = 5, 6, 7,
                    a fixed thm-inv-b sweep at jobs 1 and 2, and both
                    golden counterexample searches
  partition-series  type-B partition series, dec1 and shift checks on
                    seeded labelings of every forest of size 3 and 4
  small-checks      many cheap CLI calls covering every theorem id

A pass runs every operation of the workload once, on the same inputs.
Passes repeat, one process and the library's own worker threads only,
until the next pass would end after --seconds.  Every output is
checked; an operation that raises or returns a wrong output counts as
failed.

--trace 0 prints the end-to-end metrics.  The machine's speed drifts
by 20-40% over minutes on shared hosts, so every time is reported in
reference seconds: its wall time times REF_SECONDS over the time of a
fixed pure-Python kernel (no hookforest code) sampled every
REF_INTERVAL seconds between operations, from the samples just before
and after it.  Unscaled values are printed alongside.

  setup_s          median time of a fresh interpreter that imports
                   hookforest.cli and builds its parser, sampled
                   20 times spread over the run (not counted in passes)
  wall_s           median time of one pass (the sum of its operations)
  check_ms.p50/p90 latency of the individual operations over all passes
                   (the sample count is printed), except the paired
                   jobs-1/jobs-2 sweeps: those are batches, timed for
                   speedup_j2
  labelings_per_s  labelings (or signed words) covered by passed checks,
                   per second: sum of labeling_count(n, mode) over the
                   distributions certified, so it does not change when
                   an engine stops visiting every labeling
  checks_per_s     operations per second
  speedup_j2       time of the paired sweeps at --jobs 1 divided by
                   their time at --jobs 2
  peak_rss_mb      peak resident memory of this process (the library
                   starts no processes of its own)

fail_share (failed / attempted) is printed and carried by the result's
"failed" and "attempted" fields.

--trace 1 alternates untraced and traced passes, wraps the public
functions of forest, stats, qpoly, formulas, verify and cli from
outside the library (bench/tracer.py), and prints per-layer metrics
per traced pass: inclusive seconds of named functions and groups
(".s"), call and item counts, ratios, each module's self time, and the
tracing overhead (traced minus untraced pass wall time).  Spans of the
first traced pass are written to .bench_out/ at exit.  Which end-to-end metric each layer
metric should move:

  forest.enumerate_labelings.*, forest.labelings_per_certified,
  stats.forest.*, verify.distribution.self_s, verify.check.s
      labelings_per_s and check_ms.p90 on signed-sweep (ROADMAP item 2);
      flat on partition-series
  verify.is_partition_b.calls, verify.partition_member_ratio,
  verify.partition_lhs_series.s, verify.dec1.s
      checks_per_s and wall_s on partition-series (item 3)
  forest.enumerate_forests.s, forest.linear_extensions.*, stats.word.*,
  formulas.rhs.*, qpoly.*, cli.*
      checks_per_s on small-checks (items 4 and 5); stats.word is the
      oracle and should not move

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 20
REF_INTERVAL = 0.25   # seconds between reference-kernel samples
REF_SECONDS = 0.010   # kernel time of the machine that times are scaled to
SETUP_CODE = "import hookforest.cli as c; c.build_parser()"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Timings and outcomes of one run through a workload's operations."""

    def __init__(self):
        self.ops: list[tuple[float, float, int]] = []   # start, end, jobs
        self.failed = 0
        self.labelings = 0
        self.partitions = 0
        self.output_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def wall(self) -> float:
        return sum(end - start for start, end, _ in self.ops)


def run_pass(ops, tracer=None, between=None) -> Pass:
    """Run every operation once.  ``between`` is called before each
    operation and may take machine samples; they are not part of any
    operation's time."""
    result = Pass()
    outputs: dict[str, str] = {}
    for op in ops:
        if between is not None:
            between()
        if tracer is not None:
            tracer.check = op.key
        t0 = time.perf_counter()
        try:
            out = op.run()
            ok = True
        except Exception as exc:  # every failure mode counts against the op
            out, ok = None, False
            print(f"FAILED {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        t1 = time.perf_counter()
        if ok and op.same_as is not None and out.output != outputs.get(op.same_as):
            ok = False
            print(f"FAILED {op.key}: output differs from {op.same_as}", file=sys.stderr)
        result.ops.append((t0, t1, op.jobs))
        if not ok:
            result.failed += 1
            continue
        outputs[op.key] = out.output
        result.labelings += out.labelings
        result.partitions += out.partitions
        result.output_bytes += len(out.output.encode())
    return result


def keep_going(walls: list[float], elapsed: float, seconds: float, minimum: int) -> bool:
    """Start another pass while it should end within the time budget,
    and up to ``minimum`` passes as long as that stays within 3x it."""
    if not walls:
        return True
    expected = elapsed + statistics.median(walls)
    if expected <= seconds:
        return True
    return len(walls) < minimum and expected <= 3 * seconds


# ---------------------------------------------------------------------------
# measurements


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work that does not touch
    hookforest: inversion counts over every permutation of 7 values."""
    t0 = time.perf_counter()
    hist: dict[int, int] = {}
    for perm in itertools.permutations(range(7)):
        inv = 0
        for i in range(7):
            pi = perm[i]
            for j in range(i + 1, 7):
                if pi > perm[j]:
                    inv += 1
        hist[inv] = hist.get(inv, 0) + 1
    return time.perf_counter() - t0


class Machine:
    """Samples taken between operations, so that they see the same
    machine as the operations around them: the reference kernel every
    REF_INTERVAL seconds, and a fresh interpreter that imports
    hookforest.cli and builds the parser every ``setup_interval``
    seconds."""

    def __init__(self, setup_interval: float):
        self.setup_interval = setup_interval
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        subprocess.run(self.cmd, env=self.env, check=True)   # writes bytecode; not timed
        self.ref: list[tuple[float, float]] = []     # (taken at, kernel seconds)
        self.setup: list[tuple[float, float]] = []   # (start, end)
        self._sample_ref()
        self.last_setup = self.ref[-1][0]

    def _sample_ref(self) -> None:
        seconds = reference_kernel()
        self.ref.append((time.perf_counter(), seconds))

    def sample_setup(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        self.last_setup = time.perf_counter()
        self.setup.append((t0, self.last_setup))
        self._sample_ref()

    def between(self) -> None:
        now = time.perf_counter()
        if now - self.last_setup >= self.setup_interval:
            self.sample_setup()
        elif now - self.ref[-1][0] >= REF_INTERVAL:
            self._sample_ref()

    def finish(self) -> None:
        while len(self.setup) < SETUP_RUNS:
            self.sample_setup()
        self._sample_ref()

    def scaled(self, start: float, end: float) -> float:
        """end - start in reference seconds: scaled by REF_SECONDS over
        the mean kernel time of the samples just before and after."""
        taken = [t for t, _ in self.ref]
        i = bisect.bisect_right(taken, start) - 1
        j = bisect.bisect_left(taken, end)
        around = [self.ref[k][1] for k in (i, j) if 0 <= k < len(self.ref)]
        return (end - start) * REF_SECONDS * len(around) / sum(around)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_line(samples: list[float]) -> tuple[float, float, str]:
    ms = [s * 1000.0 for s in samples]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8]
    beyond = sum(1 for v in ms if v > p90)
    return p50, p90, f"{len(ms)} samples, {beyond} beyond p90"


def source_meta() -> dict:
    files = sorted((SRC / "hookforest").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += sum(1 for line in data.decode().splitlines() if line.strip())
    return {"src_loc": loc, "src_files": len(files), "src_sha256": digest.hexdigest()[:16],
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# reporting


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<{width}}  {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"fail_share  {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def end_to_end(workload, seconds: float):
    passes: list[Pass] = []
    machine = Machine(seconds / SETUP_RUNS)
    start = time.perf_counter()
    while keep_going([p.wall for p in passes], time.perf_counter() - start, seconds, 2):
        passes.append(run_pass(workload, between=machine.between))
    machine.finish()
    op_times = [[machine.scaled(t0, t1) for t0, t1, _ in p.ops] for p in passes]
    walls = [sum(times) for times in op_times]
    busy = sum(walls)
    latencies, jobs = [], {1: 0.0, 2: 0.0}
    for p, times in zip(passes, op_times):
        for (_, _, j), t in zip(p.ops, times):
            if j:
                jobs[j] += t
            else:
                latencies.append(t)
    p50, p90, sample_note = percentile_line(latencies)
    setup = [machine.scaled(t0, t1) for t0, t1 in machine.setup]
    raw_setup = statistics.median(t1 - t0 for t0, t1 in machine.setup)
    kernel = statistics.median(s for _, s in machine.ref)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "check_ms.p50": (p50, "ms"),
        "check_ms.p90": (p90, "ms"),
        "labelings_per_s": (sum(p.labelings for p in passes) / busy, "1/s"),
        "checks_per_s": (sum(p.attempted for p in passes) / busy, "1/s"),
        "speedup_j2": (jobs[1] / jobs[2], "x"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; {raw_setup:.4f} s unscaled",
        "wall_s": f"median of {len(passes)} passes; "
                  f"{statistics.median(p.wall for p in passes):.4f} s unscaled",
        "check_ms.p90": sample_note,
        "speedup_j2": f"{jobs[1]:.3f} s at jobs 1 / {jobs[2]:.3f} s at jobs 2",
    }
    print(f"reference kernel: median {kernel * 1000:.3f} ms over {len(machine.ref)} samples; "
          f"times below are scaled to {REF_SECONDS * 1000:.0f} ms")
    partitions = sum(p.partitions for p in passes)
    if partitions:
        print(f"partitions certified: {partitions / len(passes):.0f} per pass, "
              f"{partitions / busy:.6g} per s")
    return passes, metrics, notes


def traced(workload, seconds: float, out_dir: Path, tag: str):
    from tracer import Tracer, groups_of

    tracer = Tracer()
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    start = time.perf_counter()
    while keep_going([a.wall + b.wall for a, b in zip(plain, traced_passes)],
                     time.perf_counter() - start, seconds, 1):
        plain.append(run_pass(workload))
        with tracer.installed():
            traced_passes.append(run_pass(workload, tracer))
        tracer.keep_spans = False   # every pass runs the same inputs
    k = len(traced_passes)
    funcs, groups = tracer.funcs(), tracer.groups()

    def rec(name):   # calls, self s, True results, items yielded
        return [v / k for v in funcs.get(name, (0, 0.0, 0, 0))]

    def group_s(group):
        return groups.get(group, 0.0) / k

    def group_calls(group):
        return sum(r[0] for name, r in funcs.items() if group in groups_of(name)) / k

    def self_s(module):
        return sum(r[1] for name, r in funcs.items() if name.startswith(module + ".")) / k

    def per(count, base):
        return count / base if base else 0.0

    certified = sum(p.labelings for p in traced_passes) / k
    labelings_visited = rec("forest.enumerate_labelings")[3]
    stat_calls = group_calls("stats.forest")
    member_tests, _, members, _ = rec("verify.is_partition_b")
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced_passes)
    metrics = {
        "forest.enumerate_labelings.s": (group_s("forest.enumerate_labelings"), "s"),
        "forest.enumerate_labelings.count": (labelings_visited, "count"),
        "forest.labelings_per_certified": (per(labelings_visited, certified), "ratio"),
        "forest.enumerate_forests.s": (group_s("forest.enumerate_forests"), "s"),
        "forest.linear_extensions.s": (group_s("forest.linear_extensions"), "s"),
        "forest.linear_extensions.count": (rec("forest.linear_extensions")[3], "count"),
        "stats.forest.s": (group_s("stats.forest"), "s"),
        "stats.forest.calls": (stat_calls, "count"),
        "stats.forest.calls_per_labeling": (per(stat_calls, certified), "ratio"),
        "stats.word.s": (group_s("stats.word"), "s"),
        "stats.word.calls": (group_calls("stats.word"), "count"),
        "qpoly.mul.s": (group_s("qpoly.mul"), "s"),
        "qpoly.mul.calls": (group_calls("qpoly.mul"), "count"),
        "qpoly.series.s": (group_s("qpoly.series"), "s"),
        "formulas.rhs.s": (group_s("formulas.rhs"), "s"),
        "formulas.rhs.calls": (group_calls("formulas.rhs"), "count"),
        "verify.distribution.self_s": (rec("verify.distribution")[1], "s"),
        "verify.check.s": (group_s("verify.check_theorem"), "s"),
        "verify.is_partition_b.calls": (member_tests, "count"),
        "verify.partition_member_ratio": (per(members, member_tests), "ratio"),
        "verify.partition_lhs_series.s": (group_s("verify.partition_lhs_series"), "s"),
        "verify.dec1.s": (group_s("verify.dec1"), "s"),
        "cli.main.s": (group_s("cli.main"), "s"),
        "cli.render.s": (group_s("cli.render"), "s"),
        "cli.output_bytes": (sum(p.output_bytes for p in traced_passes) / k, "bytes"),
    }
    for module in ("forest", "stats", "qpoly", "formulas", "verify", "cli"):
        metrics[f"{module}.self_s"] = (self_s(module), "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    notes = {"trace.overhead_s": f"traced pass {traced_wall:.3f} s, untraced {plain_wall:.3f} s, "
                                 f"{k} of each"}
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{tag}.jsonl"
    tracer.write_spans(spans)
    print(f"spans: {tracer.span_count()} written to {spans.relative_to(ROOT)}")
    return plain + traced_passes, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hookforest" / "__init__.py").is_file():
        print(f"error: no hookforest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "operations_per_pass": len(workload),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            **source_meta()}
    print("meta " + json.dumps(meta))
    if args.trace:
        tag = f"{args.workload}-seed{args.seed}"
        passes, metrics, notes = traced(workload, args.seconds, ROOT / ".bench_out", tag)
    else:
        passes, metrics, notes = end_to_end(workload, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes: {len(passes)}")
    emit(failed == 0, attempted, failed, metrics, notes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
