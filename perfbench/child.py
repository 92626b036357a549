"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec>' where spec is a JSON object
{"jobs": [[argv...], ...], "trace": bool, "emit": bool}.

Imports `qcrystal.cli` first, so that the harness can time interpreter
start-up to import, then runs `qcrystal.cli.main(argv)` once per job with
stdout sent to an in-memory sink that hashes it, and prints one JSON
report on its own stdout.  Before the first job and after each job it
times the fixed reference workload (reference.py), so that the harness
can divide the jobs' times by the reference times measured among them.
With "trace" the package's public functions are wrapped in spans first,
at the name each caller looks them up by; nothing under src/ changes.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import qcrystal.cli  # noqa: E402

T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from reference import reference  # noqa: E402


class Tracer:
    """Per-name span aggregates (calls, inclusive seconds, self seconds) and
    counters.  Self time is a span's duration minus its child spans; the
    tracer's own bookkeeping is charged to no span."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._child_time = [0.0]  # one accumulator per open span, plus the root

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, tally=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        def span(*args, **kwargs):
            t_enter = clock()
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child_time.pop()
                stats[0] += 1
                stats[1] += t1 - t0
                stats[2] += t1 - t0 - inner
            if tally is not None:
                tally(self, args, result)
            child_time[-1] += clock() - t_enter
            return result

        span.__wrapped__ = fn
        return span


def _tally_mul(tracer: Tracer, args, result) -> None:
    """Nonzero coefficient pairs inside the product window, and whether the
    sparser factor has under 10% nonzeros."""
    a, b = args
    if not isinstance(b, type(a)):
        return
    nz_a = [i for i, c in enumerate(a.coeffs) if c]
    b_prefix = [0, *itertools.accumulate(1 if c else 0 for c in b.coeffs)]
    width = a.order + min(0, a.lowest, b.lowest) - a.lowest - b.lowest
    terms = sum(b_prefix[min(len(b.coeffs), max(0, width - i))] for i in nz_a)
    density = min(
        len(nz_a) / len(a.coeffs) if a.coeffs else 0.0,
        b_prefix[-1] / len(b.coeffs) if b.coeffs else 0.0,
    )
    tracer.count("qseries.mul.terms", terms)
    tracer.count("qseries.mul.sparse_calls" if density < 0.1 else "qseries.mul.dense_calls", 1)


def _tally_shapes(tracer: Tracer, args, result) -> None:
    tracer.count("young.shapes", len(result))


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each binding a caller looks it up by.

    `from ... import` copies a binding, so wrapping only the defining module
    would miss the calls made through `multiplicity` and `identities`.
    """
    from qcrystal import cli, identities, multiplicity, qseries

    def patch(owner, attr, name, tally=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), tally))

    patch(cli, "main", "cli.main")
    for owner in (multiplicity, identities):
        patch(owner, "gf_comb", "multiplicity.gf_comb")
        patch(owner, "master_discrepancy", "multiplicity.master")
        patch(owner, "coefficient_matrix", "multiplicity.assemble")
    patch(multiplicity, "gf_theta", "multiplicity.gf_theta")
    patch(multiplicity, "multiplicity_table", "multiplicity.table")
    patch(multiplicity, "enumerate_maximal_shapes", "young.enumerate", _tally_shapes)
    patch(multiplicity, "classify_maximal", "weightlat.classify")
    patch(identities, "count_maximal_shapes", "multiplicity.count")
    patch(identities, "distinct_odd_sum_form", "identities.sum_form")
    for attr in (
        "check_lemma_5_1",
        "check_lemma_5_2",
        "check_lemma_5_3",
        "check_lemma_5_4",
        "check_theorem_5_1",
        "check_master",
        "check_triple_product",
    ):
        patch(identities, attr, "identities.check")
    patch(qseries, "det", "qseries.det")
    for attr in (
        "euler_phi",
        "theta_f",
        "theta_g",
        "triple_product_f",
        "triple_product_g",
        "restricted_partition_gf",
    ):
        patch(qseries, attr, "qseries.build")
    patch(qseries.QSeries, "__mul__", "qseries.mul", _tally_mul)
    patch(qseries.QSeries, "__add__", "qseries.add")
    patch(qseries.QSeries, "invert", "qseries.invert")


class Sink:
    """Stands in for stdout during a job: hashes and counts what the CLI
    prints, and keeps the text only when asked, so that peak RSS does not
    depend on how much output earlier jobs printed."""

    def __init__(self, keep: bool):
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.chunks = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.hash.update(data)
        self.bytes += len(data)
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        install(tracer)
    sinks, statuses, job_s, job_cpu_s = [], [], [], []
    reference()  # warm-up, so the first timed reference is not the slowest
    ref_s = [timed(reference)]
    for argv in spec["jobs"]:
        sink = Sink(keep=spec["emit"])
        t_job, cpu_job = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink):
                statuses.append((qcrystal.cli.main(argv), None))
        except SystemExit as exc:  # argparse rejects the argv
            statuses.append((exc.code, "SystemExit"))
        except Exception:  # a crashing job is a failed job; the rest still run
            statuses.append((None, traceback.format_exc(limit=-3)))
        job_s.append(time.perf_counter() - t_job)
        job_cpu_s.append(time.process_time() - cpu_job)
        sinks.append(sink)
        ref_s.append(timed(reference))
    report = {
        "t_imported": T_IMPORTED,
        "run_s": sum(job_s),
        "cpu_s": sum(job_cpu_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_s": ref_s,
        "jobs": [
            {"rc": rc, "error": error, "sha256": sink.hash.hexdigest(), "bytes": sink.bytes, "s": s}
            for (rc, error), sink, s in zip(statuses, sinks, job_s)
        ],
    }
    if spec["emit"]:
        report["outputs"] = ["".join(sink.chunks) for sink in sinks]
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    return report


if __name__ == "__main__":
    json.dump(run(json.loads(sys.argv[1])), sys.stdout)
