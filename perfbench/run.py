"""qcrystal benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (perfbench/child.py), because
the package's memo caches are process-wide and a CLI user pays the cold
cost on every run.  Repetitions run back to back for S seconds.

--trace 0 reports the end-to-end metrics: run_ref, the CLI run time in
units of the reference workload (reference.py), which the child times
among the jobs (see run_ref below); peak_rss_mib, the median over
repetitions; and setup_s (interpreter start to `qcrystal.cli` imported),
the median over every child but the first, which only warms the file
cache.  Wall seconds
of the jobs are too unsteady on a shared host to carry a bound: the host
slows the CPU by up to a factor of two for minutes at a time, which moves a
median over a whole run.  They are kept in the record line.  --trace 1
alternates plain and traced repetitions and reports the per-layer metrics
from the traced ones plus the tracing overhead.

The outputs of the first repetition are checked for correctness after the
timed loop; every other repetition, traced ones too, must reproduce them
byte for byte.  The second-to-last stdout line is a JSON record of the
seed, the generated argv, the environment and every sample; the last line
is the result object.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SPAWNS = 10  # extra import-only children, so setup_s has many samples
MIN_REPS = 3
BUDGET_S = 140  # every child ends by then, so a run exits well within 180 s

END_TO_END = {"run_ref": "ref", "setup_s": "s", "peak_rss_mib": "MiB"}
TIMED_SPANS = (
    "multiplicity.gf_comb",
    "multiplicity.count",
    "qseries.mul",
    "qseries.det",
    "multiplicity.assemble",
    "qseries.invert",
    "qseries.add",
    "qseries.build",
    "multiplicity.gf_theta",
    "multiplicity.master",
    "multiplicity.table",
    "weightlat.classify",
    "young.enumerate",
    "cli.main",
    "identities.check",
    "identities.sum_form",
)
COUNTED_SPANS = (
    "multiplicity.gf_comb",
    "multiplicity.count",
    "qseries.mul",
    "qseries.det",
    "multiplicity.assemble",
    "qseries.invert",
    "qseries.add",
    "qseries.build",
    "multiplicity.gf_theta",
    "weightlat.classify",
    "young.enumerate",
)
COUNTERS = ("qseries.mul.dense_calls", "qseries.mul.sparse_calls", "qseries.mul.terms", "young.shapes")


class ChildError(RuntimeError):
    pass


def spawn(jobs, deadline: float, trace=False, emit=False) -> dict:
    """Run one child to completion and return its report, with setup_s added.
    The child is killed if it is still running at `deadline` (monotonic)."""
    env = {k: v for k, v in os.environ.items() if k != "QSERIES_ORDER"}
    spec = json.dumps({"jobs": jobs, "trace": trace, "emit": emit})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), spec],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - t_spawn, 0.001),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError("child still running at the deadline") from exc
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["t_imported"] - t_spawn
    return report


def run_ref(reports) -> float:
    """Sum over jobs of the median, across repetitions, of the job's time in
    reference units: its seconds divided by the mean of the reference times
    of its repetition, which the child measured before, between and after
    the jobs.  One divisor for the whole repetition, because the reference
    runs a little slower the more the jobs before it left in memory, and the
    seed sets the job order."""
    per_rep = ([j["s"] / statistics.fmean(r["ref_s"]) for j in r["jobs"]] for r in reports)
    return sum(statistics.median(ratios) for ratios in zip(*per_rep))


def summary(values) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (null below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    return {
        "median": statistics.median(ordered),
        "n": n,
        "upper": ordered[n - 11] if n >= 11 else None,
        "upper_pct": round(100 * (n - 10) / n, 1) if n >= 11 else None,
    }


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": read("/proc/loadavg").split()[:3],
    }


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> tuple[dict, dict]:
    """Run one benchmark measurement; returns (details record, result object).

    Raises ChildError when the program cannot be started at all.
    """
    jobs = workloads.make_jobs(name, seed, scale)
    env_start = environment()
    deadline = time.monotonic() + BUDGET_S
    spawn([], deadline)  # warm the file cache and write bytecode; not a sample
    setups = [] if trace else [spawn([], deadline)["setup_s"] for _ in range(SETUP_SPAWNS)]

    plain, traced, failures = [], [], []
    start = time.monotonic()
    while True:
        done = min(len(plain), len(traced)) if trace else len(plain)
        if done >= MIN_REPS and time.monotonic() - start >= seconds:
            break
        as_traced = trace and len(traced) < len(plain)
        try:
            report = spawn(jobs, deadline, trace=as_traced, emit=not plain)
        except ChildError as exc:
            failures.append(str(exc))
            break
        (traced if as_traced else plain).append(report)
        setups.append(report["setup_s"])

    reps = plain + traced
    attempted = len(jobs) * (len(reps) + len(failures))
    failed = len(jobs) * len(failures)
    if plain:
        reference = plain[0]
        verdicts = [workloads.check_output(argv, text) for argv, text in zip(jobs, reference["outputs"])]
        for report in reps:
            for argv, job, ref, verdict in zip(jobs, report["jobs"], reference["jobs"], verdicts):
                if job["rc"] != 0 or job["error"]:
                    verdict = f"exit {job['rc']}: {job['error']}"
                elif job["sha256"] != ref["sha256"]:
                    verdict = "output differs from the first repetition"
                if verdict:
                    failed += 1
                    failures.append(f"{' '.join(argv)}: {verdict}")

    samples = {
        "run_ref": [run_ref([r]) for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        "setup_s": setups,
        "traced_run_s": [r["run_s"] for r in traced],
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": jobs,
        "environment": env_start,
        "loadavg_end": environment()["loadavg"],
        "summary": {k: summary(v) for k, v in samples.items() if v},
        "samples": samples,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
    }
    metrics = {}
    if trace and traced:
        metrics, details["counts_repeat"] = layer_metrics(plain, traced, jobs)
    elif not trace and plain:
        metrics = {k: {"value": statistics.median(samples[k]), "unit": unit} for k, unit in END_TO_END.items()}
        metrics["run_ref"]["value"] = run_ref(plain)
    result = {"correct": bool(metrics) and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def layer_metrics(plain, traced, jobs) -> tuple[dict, bool]:
    """Per-layer metrics from the traced repetitions, and whether every
    count repeated exactly across them."""

    def counts(report):
        spans, counters = report["spans"], report["counters"]
        out = {f"{s}.calls": spans.get(s, [0])[0] for s in COUNTED_SPANS}
        out.update({c: counters.get(c, 0) for c in COUNTERS})
        return out

    first = counts(traced[0])
    metrics = {k: {"value": v, "unit": "count"} for k, v in first.items()}
    for span in TIMED_SPANS:
        self_s = [r["spans"].get(span, [0, 0.0, 0.0])[2] for r in traced]
        metrics[f"{span}.s"] = {"value": statistics.median(self_s), "unit": "s"}
    total_s = [r["spans"].get("qseries.det", [0, 0.0, 0.0])[1] for r in traced]
    metrics["qseries.det.total_s"] = {"value": statistics.median(total_s), "unit": "s"}
    reference = plain[0]
    metrics["cli.out_bytes"] = {"value": sum(j["bytes"] for j in reference["jobs"]), "unit": "bytes"}
    coeffs = maxbits = 0
    for argv, text in zip(jobs, reference["outputs"]):
        try:
            c, b = workloads.output_size(argv, text)
        except (ValueError, KeyError, TypeError):
            continue  # the gate already counts this job as failed
        coeffs, maxbits = coeffs + c, max(maxbits, b)
    metrics["output.coeffs"] = {"value": coeffs, "unit": "count"}
    metrics["output.maxbits"] = {"value": maxbits, "unit": "bits"}
    overhead = run_ref(traced) / run_ref(plain) - 1
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, all(counts(r) == first for r in traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcrystal" / "cli.py").is_file():
        print(f"no qcrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"cannot run the program: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
