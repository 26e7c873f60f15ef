"""latdisc benchmark: times one workload and checks its verdicts.

    python3 perfbench/run.py --workload thm1 --seed 20200817 --seconds 32 --trace 0

Run from the root of a source checkout; latdisc is imported from its `src/`.
One run sets up `SETUP_PROBES` fresh processes to time set-up, then repeats
the workload's campaign (see workloads.py) in this process for `--seconds`
seconds and reports medians over the repetitions. With `--trace 1` it first
repeats untraced for half the time, then traced (see spans.py) for the
other half, and reports the per-layer metrics and the tracing overhead.

Every repetition is gated: a task that raised, a FAIL verdict, or a
per-check row count that differs from the one the corpus implies marks
tasks failed. The sha256 of campaign.json must be the same in every
repetition, traced or not.

Output: a run record line, then the result as the last line, one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench-out"  # relative, so campaign.json does not depend on the checkout's path
SETUP_PROBES = 5
WORKLOAD_NAMES = ("thm1", "prop1", "body")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}
MC_SAMPLE_METRICS = (
    "montecarlo.box_fraction.samples",
    "montecarlo.box_fractions_multi.samples",
    "distance.distance_norms.mc_samples",
)


def _require_source() -> None:
    if not (SRC / "latdisc" / "harness.py").is_file():
        sys.exit(f"error: no latdisc source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import latdisc

    if Path(latdisc.__file__).resolve().parent != SRC / "latdisc":
        sys.exit(f"error: latdisc imported from {latdisc.__file__}, not from {SRC}")


def setup_times(workload: str, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from process start to task list ready, one per fresh process."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def run_rep(c, expected, tasks: list[str]) -> dict:
    """One campaign run, timed, then gated. Artifacts go to c.out_dir."""
    from latdisc.harness import run_campaign

    import workloads

    out = Path(c.out_dir)
    if out.exists():
        shutil.rmtree(out)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = run_campaign(c)
    except Exception:
        traceback.print_exc()
        return {"wall_s": None, "cpu_s": None, "sha256": None, "failed": set(tasks)}
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    failed = {workloads.task_of(r) for r in result.rows if r["verdict"] == "FAIL"}
    got = {}
    for r in result.rows:
        got[r["check"]] = got.get(r["check"], 0) + 1
    if got != dict(expected):
        print(f"row counts differ: expected {dict(expected)}, got {got}", file=sys.stderr)
        failed = set(tasks)
    sha = hashlib.sha256((out / "campaign.json").read_bytes()).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "sha256": sha, "failed": failed}


def run_phase(c, expected, tasks, seconds: float, tracer=None) -> list[dict]:
    """Repeat the campaign until the next repetition would end after
    `seconds`; always at least one. Traced repetitions carry their
    per-layer metrics."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.spans.clear()
        rep = run_rep(c, expected, tasks)
        if tracer is not None and rep["wall_s"] is not None:
            rep["layers"] = tracer.layer_metrics()
        reps.append(rep)
        if rep["wall_s"] is None:
            break
        if time.perf_counter() - start + rep["wall_s"] > seconds:
            break
    return reps


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    toy: bool = False,
    corrupt_check: str | None = None,
    setup: list[float] | None = None,
) -> dict:
    """Run one workload and return the result object plus its run record."""
    from latdisc.harness import builtin_corpus

    import spans
    import workloads

    c = workloads.campaign(workload, seed, out_dir=out_dir, toy=toy, corrupt_check=corrupt_check)
    expected = workloads.expected_rows(c)
    tasks = workloads.task_list(c)

    plain = run_phase(c, expected, tasks, seconds / 2 if trace else seconds)
    traced: list[dict] = []
    tracer = spans.Tracer()
    if trace and plain[-1]["wall_s"] is not None:
        tracer.install()
        try:
            traced = run_phase(c, expected, tasks, seconds / 2, tracer)
        finally:
            tracer.uninstall()
    reps = plain + traced

    hashes = {r["sha256"] for r in reps}
    attempted = len(tasks) * len(reps)
    failed = sum(len(r["failed"]) for r in reps)
    correct = failed == 0 and len(hashes) == 1 and None not in hashes
    timed = [r for r in plain if r["wall_s"] is not None]
    layered = [r for r in traced if "layers" in r]

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    if trace:
        metrics = {
            name: {"value": median(r["layers"][name] for r in layered), "unit": unit}
            for name, unit in spans.METRICS
            if name != "trace.overhead_frac"
        }
        overhead = (
            median(r["wall_s"] for r in layered) / median(r["wall_s"] for r in timed) - 1
            if layered and timed
            else 0.0
        )
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        values = {
            "setup_s": median(setup or []),
            "wall_s": median(r["wall_s"] for r in timed),
            "cpu_s": median(r["cpu_s"] for r in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    lattices = builtin_corpus(c.corpus, c.seed) if workload != "body" else []
    record = {
        "workload": workload,
        "seed": seed,
        "campaign_seed": c.seed,
        "seconds": seconds,
        "trace": int(trace),
        "tasks": len(tasks),
        "sum_N": sum(n for _, n, _ in lattices),
        "mc_samples": (
            median(sum(r["layers"][k] for k in MC_SAMPLE_METRICS) for r in layered)
            if layered
            else "counted in traced runs only"
        ),
        "reps": len(reps),
        "rep_wall_s": [r["wall_s"] for r in plain],
        "traced_rep_wall_s": [r["wall_s"] for r in traced],
        "setup_probe_s": setup,
        "campaign_sha256": sorted(h for h in hashes if h),
        "waited_s": "not reported: the layers have no queue",
        "untraced": sorted(set(tracer.missing)),
    }
    return {
        "record": record,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=20200817)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One BLAS thread: on two shared cores a second one bought no wall time
    # and doubled CPU time, tying cpu_s to the neighbouring core's load. Set
    # before numpy loads; the set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _require_source()
    os.chdir(ROOT)
    out_dir = f"{OUT_DIR}/{args.workload}"
    try:
        setup = None if args.trace else setup_times(args.workload, args.seed)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir, setup=setup)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(json.dumps({"record": {**environment(), **run["record"]}}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
