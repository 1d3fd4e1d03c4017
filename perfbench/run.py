"""Benchmark of the bwinr command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts ``bwinr.cli.main`` in fresh processes (``child.py``), one
at a time, on the workload's command line with ``--seed N``.

``--trace 0`` repeats the command until ``S`` seconds are used (at least
four times) and prints the median of each end-to-end metric over all
runs but the first, a warm-up run that is still checked. Only the
command's compute calls are wrapped, to mark where set-up ends and the
output path begins.

``--trace 1`` alternates untraced runs and runs with every traced
function wrapped (``tracing.py``), at least one of each, until ``S``
seconds are used. It prints the median of each per-layer metric over the
traced runs, and their overhead against the untraced ones.

Every run's outputs are read back and checked (``checks.py``), and all
runs of one invocation, which share the seed, must write byte-identical
files. A run that exits non-zero or fails a check counts in ``failed``.
The last line of standard output is the JSON result; the line before it
is the manifest.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_RUNS = 3          # medians and the determinism check need repeats
WARMUP_RUNS = 1       # checked and counted, but left out of the medians
DEADLINE_S = 170.0    # every invocation must end within 180 s
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
VALIDATION_SEED = 20240607   # reserved for re-checking claims; see README.md

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "step_s": "s",
    "write_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


class Bench:
    """Runs of one workload and seed, each in a fresh child process."""

    def __init__(self, workload, seed, out_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ, **{
            var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        })
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.reports = []
        self.checked = []  # output dirs of passed runs, removed once timing ends

    def run(self, mode):
        """One command run; returns (report, wall seconds), or None if it failed."""
        index = self.attempted
        self.attempted += 1
        run_id = f"{self.workload.name}-{self.seed}-{index}"
        out = self.out_dir / f"run{index}"
        report_path = self.out_dir / f"run{index}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), str(report_path), mode, run_id,
            "--", *self.workload.cli_args, "--seed", str(self.seed), "--out", str(out),
        ]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            return self._fail(run_id, "timed out")
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not report_path.is_file():
            return self._fail(run_id, f"exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        report = json.loads(report_path.read_text(encoding="ascii"))
        report["t0"] = t0
        try:
            digests, report["quality"] = _check(self.workload, self.seed, out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                changed = sorted(k for k in digests.keys() | self.digests.keys()
                                 if digests.get(k) != self.digests.get(k))
                raise RuntimeError(f"outputs differ from the first run: {changed}")
        except Exception:
            return self._fail(run_id, traceback.format_exc())
        self.checked.append(out)
        self.reports.append(report)
        return report, wall

    def _fail(self, run_id, why):
        self.failed += 1
        print(f"perfbench: run {run_id} failed: {why}", file=sys.stderr)
        return None


def _check(workload, seed, out):
    """Check the outputs; returns their digests and the figures of merit."""
    import checks  # imports bwinr, so only after main has put src/ on the path

    digests = checks.output_digests(out)
    if workload.epochs is None:
        dyadic, relu = checks.check_conditioning(out)
        return digests, {"quality.dyadic_kappa_max": max(dyadic),
                         "quality.relu_kappa_max": relu[-1]}
    final = checks.check_training(out, workload, seed)
    return digests, {"quality.final_loss": final.loss,
                     "quality.final_psnr_db": final.psnr}


def _end_to_end(workload, report, wall):
    marks = report["marks"]
    steps = workload.epochs or marks["compute_calls"]
    return {
        "setup_s": marks["compute_start"] - report["t0"],
        "step_s": marks["compute_s"] / steps,
        "write_s": marks["main_end"] - marks["compute_start"] - marks["compute_s"],
        "run_s": wall,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _repeat(bench, modes, seconds, min_rounds):
    """Rounds of one run per mode until ``seconds`` are used; outcomes by mode."""
    start = time.monotonic()
    outcomes = {mode: [] for mode in modes}
    rounds = 0
    while True:
        for mode in modes:
            outcome = bench.run(mode)
            if outcome is not None:
                outcomes[mode].append(outcome)
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if rounds >= min_rounds and elapsed + per_round > seconds:
            return outcomes
        if time.monotonic() + per_round > bench.deadline:
            return outcomes


def _medians(rows, units):
    return {
        name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
        for name, unit in units.items()
    }


def timed_runs(bench, seconds):
    runs = _repeat(bench, ("plain",), seconds, WARMUP_RUNS + MIN_RUNS)["plain"]
    rows = [_end_to_end(bench.workload, *run) for run in runs[WARMUP_RUNS:]]
    return _medians(rows, END_TO_END) if rows else {}


def traced_runs(bench, seconds):
    """Alternate untraced and traced runs; medians of the traced runs' layers."""
    runs = _repeat(bench, ("plain", "trace"), seconds, 1)
    if not runs["plain"] or not runs["trace"]:
        return {}
    spans = [span for report, _ in runs["trace"] for span in report["spans"]]
    (bench.out_dir / "spans.json").write_text(json.dumps(spans), encoding="ascii")
    missing = layers.missing_spans(spans, bench.workload.expect_spans)
    if missing:
        bench.failed += 1
        print(f"perfbench: traced run of {bench.workload.name} recorded no call "
              f"of {', '.join(missing)}; a traced function was renamed or inlined",
              file=sys.stderr)
        return {}
    overhead = (statistics.median(wall for _, wall in runs["trace"])
                / statistics.median(wall for _, wall in runs["plain"]) - 1.0)
    rows = [layers.per_layer_metrics(report["spans"], report["quality"], overhead)
            for report, _ in runs["trace"]]
    return _medians(rows, {name: unit for name, (unit, _) in layers.PER_LAYER.items()})


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def manifest(bench, trace):
    first = bench.reports[0] if bench.reports else {}
    return {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "validation_seed": VALIDATION_SEED,
        "trace": trace,
        "command": ["bwinr", *bench.workload.cli_args, "--seed", str(bench.seed)],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "versions": first.get("versions"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": first.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "runs": bench.attempted,
        "computed_metrics": layers.COMPUTED if trace else [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bwinr" / "__init__.py").is_file():
        print(f"perfbench: no bwinr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = time.monotonic() + DEADLINE_S
    out_dir = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, out_dir, deadline)
    run = traced_runs if args.trace else timed_runs
    metrics = run(bench, args.seconds)
    for out in bench.checked:  # deleting files while a run is timed would load the disk
        shutil.rmtree(out)

    correct = bench.failed == 0 and bool(metrics)
    print(json.dumps({"manifest": manifest(bench, args.trace)}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
