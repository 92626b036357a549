"""Self-tests of the benchmark harness, at reduced sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import child
import run
import workloads

SCALE = 0.25
sys.path.insert(0, str(run.ROOT / "src"))


def test_jobs_depend_only_on_the_seed_and_stay_in_band():
    for name, workload in workloads.WORKLOADS.items():
        assert workloads.make_jobs(name, 7) == workloads.make_jobs(name, 7)
        stated = {}
        for fixed, sized in workload.jobs:
            for flag, size in sized:
                stated[(tuple(fixed), flag)] = size
        for seed in range(20):
            jobs = workloads.make_jobs(name, seed)
            assert len(jobs) == len(workload.jobs)
            for argv in jobs:
                fixed = next(tuple(f) for f, _ in workload.jobs if list(f) == argv[: len(f)])
                for flag in argv[len(fixed) :: 2]:
                    size = stated[(fixed, flag)]
                    drawn = int(argv[argv.index(flag) + 1])
                    assert size - int(size * workloads.BAND) <= drawn <= size
    orders = {tuple(map(tuple, workloads.make_jobs("theta-solve", s))) for s in range(10)}
    assert len(orders) > 1


def _tamper(argv, text):
    payload = json.loads(text)
    if argv[0] == "bseries":
        row = payload["series"][-1]
        method = "comb" if "comb" in row else "theta"
        row[method][-1] += 1
    elif argv[0] == "decompose":
        payload["entries"][-1]["b"] += 1
    else:
        payload["checks"][0]["order"] += 1
    return json.dumps(payload)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_repetitions_repeat_fire_and_keep_outputs(name):
    jobs = workloads.make_jobs(name, 3, SCALE)
    deadline = time.monotonic() + 60
    plain = run.spawn(jobs, deadline, emit=True)
    first, second = run.spawn(jobs, deadline, trace=True), run.spawn(jobs, deadline, trace=True)

    for argv, text in zip(jobs, plain["outputs"]):
        assert workloads.check_output(argv, text) is None
        assert workloads.check_output(argv, _tamper(argv, text)) is not None
    hashes = [j["sha256"] for j in plain["jobs"]]
    for traced in (first, second):
        assert [j["rc"] for j in traced["jobs"]] == [0] * len(jobs)
        assert [j["sha256"] for j in traced["jobs"]] == hashes
    calls = {span: stats[0] for span, stats in first["spans"].items()}
    assert calls == {span: stats[0] for span, stats in second["spans"].items()}
    assert first["counters"] == second["counters"]
    silent = [span for span in workloads.WORKLOADS[name].spans if calls.get(span, 0) == 0]
    assert silent == []


def test_mul_tally_counts_pairs_inside_the_window():
    from qcrystal.qseries import QSeries

    tracer = child.Tracer()
    dense = QSeries.from_coeffs([1, 2, 3, 4], 4)
    sparse = QSeries.from_coeffs([1] + [0] * 19, 20)
    child._tally_mul(tracer, (dense, dense), None)
    child._tally_mul(tracer, (sparse, sparse), None)
    # dense x dense to order 4: pairs (i, j) with i + j < 4
    assert tracer.counters == {
        "qseries.mul.terms": 10 + 1,
        "qseries.mul.dense_calls": 1,
        "qseries.mul.sparse_calls": 1,
    }


def test_run_ref_ignores_a_uniform_slowdown():
    quick = {"ref_s": [0.05, 0.05, 0.06], "jobs": [{"s": 0.5}, {"s": 0.3}]}
    slow = {"ref_s": [1.7 * t for t in quick["ref_s"]], "jobs": [{"s": 1.7 * j["s"]} for j in quick["jobs"]]}
    assert run.run_ref([quick, slow, quick]) == pytest.approx(0.8 / (0.16 / 3))
    faster_program = {"ref_s": quick["ref_s"], "jobs": [{"s": j["s"] / 2} for j in quick["jobs"]]}
    assert run.run_ref([faster_program]) == pytest.approx(run.run_ref([quick]) / 2)


def test_result_lists_every_declared_metric():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        details, result = run.measure("verify-catalog", 5, 0, trace, SCALE)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert details["failed_ratio"] == 0
        units = {m["name"]: m["unit"] for m in declared[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert details["counts_repeat"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "comb-count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
