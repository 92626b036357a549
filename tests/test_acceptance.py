"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import subprocess
import sys
import time

from qcrystal.crystal import is_maximal_second_factor
from qcrystal.identities import (
    check_lemma_5_1,
    check_lemma_5_2,
    check_lemma_5_3,
    check_lemma_5_4,
    check_theorem_5_1,
)
from qcrystal.multiplicity import gf_comb, gf_theta, master_discrepancy
from qcrystal.qseries import (
    euler_phi,
    theta_f,
    theta_g,
    triple_product_f,
    triple_product_g,
)
from qcrystal.weightlat import classify_maximal, closed_form_component_index
from qcrystal.young import (
    EMPTY,
    Partition,
    enumerate_maximal_shapes,
    is_maximal_shape,
    is_n_regular,
)

from helpers import partitions_upto

EXPECTED_B0 = {
    0: (1, {"()"}),
    1: (0, set()),
    2: (1, {"(4,1^2)"}),
    3: (2, {"(7,1^2)", "(4,3,2)"}),
    4: (3, {"(10,1^2)", "(7,3,2)", "(5^2,2)"}),
    5: (4, {"(13,1^2)", "(10,3,2)", "(7,6,2)", "(7,4^2)"}),
    6: (7, {"(16,1^2)", "(13,3,2)", "(10,6,2)", "(10,4^2)", "(8^2,2)", "(7,6,5)", "(5^2,3^2,1^2)"}),
}
EXPECTED_B1 = {
    1: (1, {"(1)"}),
    2: (2, {"(4)", "(2^2)"}),
    3: (2, {"(7)", "(4,3)"}),
    4: (4, {"(10)", "(7,3)", "(5^2)", "(4,3,2,1)"}),
    5: (5, {"(13)", "(10,3)", "(7,6)", "(7,3,2,1)", "(5^2,2,1)"}),
    6: (8, {"(16)", "(13,3)", "(10,6)", "(10,3,2,1)", "(8^2)", "(7,6,2,1)", "(7,4^2,1)", "(5^2,3^2)"}),
    7: (11, {"(19)", "(16,3)", "(13,6)", "(13,3,2,1)", "(10,9)", "(10,6,2,1)", "(10,4^2,1)", "(8^2,2,1)", "(7,6,5,1)", "(7,6,3^2)", "(7,4^2,2^2)"}),
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qcrystal", *argv], capture_output=True, text=True
    )


def render(witness_pairs) -> str:
    return str(Partition(tuple(map(tuple, witness_pairs))))


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    result = run_cli("decompose", "--n", "3", "--max-k", "7", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    got = {
        (e["i"], e["k"]): (e["b"], {render(w) for w in e["witnesses"]})
        for e in payload["entries"]
    }
    for k, expected in EXPECTED_B0.items():
        assert got[(0, k)] == expected, (0, k)
    for k, expected in EXPECTED_B1.items():
        assert got[(1, k)] == expected, (1, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[criterion 1] PASS table reproduction, witnesses verbatim ({elapsed:.2f}s < 5s)")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in (2, 3, 4, 5):
        for parts in partitions_upto(12):
            shape = Partition.from_parts(parts)
            chain = is_maximal_shape(shape, n)
            crystal = is_n_regular(shape, n) and is_maximal_second_factor(shape, n)
            checked += 1
            if chain != crystal:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    print(
        f"[criterion 2] PASS congruence chain equals crystal maximality on "
        f"{checked} cases, 0 mismatches ({elapsed:.2f}s < 60s)"
    )


def test_criterion_3_classification_consistency():
    violations = 0
    squares = 0
    for n in (2, 3, 4, 5):
        for boxes in range(13):
            for member in enumerate_maximal_shapes(n, boxes):
                label = classify_maximal(member, n)
                if label.k < label.i:
                    violations += 1
                if boxes != label.i**2 + (label.k - label.i) * n:
                    violations += 1
                if member.pairs and closed_form_component_index(member, n) != label.i:
                    violations += 1
                if label.k == label.i:
                    squares += 1
                    expected = (
                        EMPTY if label.i == 0 else Partition.from_parts([label.i] * label.i)
                    )
                    if member != expected:
                        violations += 1
    assert violations == 0
    print(f"[criterion 3] PASS classification consistent, {squares} square buckets checked")


def test_criterion_4_triple_product():
    start = time.perf_counter()
    for r in range(11):
        for s in range(11):
            if r + s == 0:
                continue
            assert theta_f(r, s, 200) == triple_product_f(r, s, 200), (r, s)
            assert theta_g(r, s, 200) == triple_product_g(r, s, 200), (r, s)
    assert theta_g(1, 2, 300) == euler_phi(300)
    elapsed = time.perf_counter() - start
    print(f"[criterion 4] PASS sum and product theta forms agree to order 200 ({elapsed:.2f}s)")


def test_criterion_5_pipeline_agreement():
    start = time.perf_counter()
    for n, order in ((2, 30), (3, 30), (5, 12), (6, 12)):
        for i in range(n // 2 + 1):
            assert gf_comb(i, n, order) == gf_theta(i, n, order), (n, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"[criterion 5] PASS enumeration and theta pipelines agree ({elapsed:.2f}s < 300s)")


def test_criterion_6_master_identity():
    start = time.perf_counter()
    for n in range(2, 8):
        assert master_discrepancy(n, 120) is None, n
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] PASS product identity holds to order 120 for n=2..7 ({elapsed:.2f}s)")


def test_criterion_7_series_identity_suite():
    start = time.perf_counter()
    for check in (check_lemma_5_1, check_lemma_5_2, check_lemma_5_3, check_lemma_5_4):
        report = check(300)
        assert report.holds, report
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[criterion 7] PASS series identity suite holds to order 300 ({elapsed:.2f}s < 30s)")


def test_criterion_8_counting_identities():
    report = check_theorem_5_1(30)
    assert report.holds, report
    print("[criterion 8] PASS counting identities a=c and b=d up to k=30")


def test_criterion_9_conjecture_experiment():
    outcomes = {}
    for n in (4, 9):
        result = run_cli(
            "bseries", "--n", str(n), "--order", "20", "--method", "both",
            "--conjecture", "--format", "json",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert len(payload["series"]) == n // 2 + 1
        per_component = []
        for series in payload["series"]:
            assert len(series["comb"]) == 20
            per_component.append(series.get("equal", series.get("theta_error")))
        outcomes[n] = per_component
    print(f"[criterion 9] PASS conjecture experiment reported without crashing: {outcomes}")
