"""Workload definitions for the qcrystal benchmark: seeded job lists and the
correctness gate that checks each job's CLI output.

A job is the argv of one `qcrystal` invocation.  The seed permutes the job
order and draws every size flag uniformly from [size - floor(1% of size),
size]; sizes under 100 are therefore fixed, because one step of a small
size (a `--max-k` of 13, say) changes the work by 15-45% and would make the
workload's cost depend on the seed more than on the code.

The gate recomputes every result from the library along the other route, so
it needs no stored answers and works for any seed.  It runs in the harness
process, outside the timed region.
"""

import json
import random
from dataclasses import dataclass

BAND = 0.01
THETA_PREFIX = 12  # gf_comb prefix compared against theta-route output


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (fixed argv, ((size flag, stated size), ...)) per job
    jobs: tuple
    # span names that must record calls in a traced run of this workload
    spans: tuple


def _bseries(method: str, pairs) -> tuple:
    return tuple(
        (("bseries", "--n", str(n), "--method", method, "--format", "json"), (("--order", order),))
        for n, order in pairs
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "comb-count",
            "bseries --method comb: the chain counter is the whole run, qseries idle",
            _bseries("comb", ((2, 128), (3, 104), (5, 64), (7, 44))),
            ("cli.main", "multiplicity.gf_comb"),
        ),
        Workload(
            "theta-solve",
            "bseries --method theta on proven n<=11: series products, det, invert, assembly",
            _bseries(
                "theta",
                ((2, 900), (3, 900), (5, 600), (6, 520), (7, 450), (10, 260), (11, 260)),
            ),
            (
                "cli.main",
                "multiplicity.gf_theta",
                "multiplicity.assemble",
                "qseries.det",
                "qseries.mul",
                "qseries.add",
                "qseries.invert",
                "qseries.build",
            ),
        ),
        Workload(
            "decompose-witness",
            "decompose --format json: shape enumeration, classification, large JSON output",
            tuple(
                (("decompose", "--n", str(n), "--format", "json"), (("--max-k", k),))
                for n, k in ((2, 40), (3, 25), (5, 12))
            ),
            ("cli.main", "multiplicity.table", "young.enumerate", "weightlat.classify"),
        ),
        Workload(
            "verify-catalog",
            "verify --identity all: identities, sparse theta products, shared chain memo",
            (
                (
                    ("verify", "--identity", "all"),
                    (("--order", 1200), ("--master-order", 200), ("--max-k", 66)),
                ),
            ),
            (
                "cli.main",
                "identities.check",
                "identities.sum_form",
                "multiplicity.count",
                "multiplicity.master",
                "multiplicity.gf_comb",
                "multiplicity.assemble",
                "qseries.det",
                "qseries.mul",
                "qseries.add",
                "qseries.invert",
                "qseries.build",
            ),
        ),
    )
}


def make_jobs(name: str, seed: int, scale: float = 1.0) -> list[list[str]]:
    """The workload's argv list for one seed; `scale` shrinks every stated
    size (before the band is applied) for quick self-tests."""
    rng = random.Random(f"{name}:{seed}")
    jobs = []
    for fixed, sized in WORKLOADS[name].jobs:
        argv = list(fixed)
        for flag, size in sized:
            size = max(1, round(size * scale))
            argv += [flag, str(rng.randint(size - int(size * BAND), size))]
        jobs.append(argv)
    rng.shuffle(jobs)
    return jobs


# -- correctness gate -------------------------------------------------------


def _flag(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _check_comb(payload, n, order):
    from qcrystal.multiplicity import gf_theta, theta_branch

    if theta_branch(n)[1]:
        for row in payload["series"]:
            if row["comb"] != gf_theta(row["i"], n, order).coefficient_list():
                return f"comb series i={row['i']} differs from gf_theta"
    return None


def _check_theta(payload, n, order):
    from qcrystal.multiplicity import gf_comb, gf_theta, master_discrepancy
    from qcrystal.qseries import QSeries

    series = [QSeries.from_coeffs(row["theta"], order) for row in payload["series"]]
    diff = master_discrepancy(n, n * order, series=series)
    if diff is not None:
        return f"master identity fails at {diff}"
    # Coefficient m of B_i first enters the identity at q^(i^2 + n m), so the
    # last few coefficients of the high components lie beyond n * order.
    # Cover them through a longer solve that must extend the output.
    longer = order + (n // 2) ** 2 // n + 1
    extended = [gf_theta(i, n, longer) for i in range(n // 2 + 1)]
    diff = master_discrepancy(n, n * longer, series=extended)
    if diff is not None:
        return f"master identity fails at {diff} for the order-{longer} solve"
    for row, s in zip(payload["series"], extended):
        if row["theta"] != s.coefficient_list()[:order]:
            return f"theta series i={row['i']} differs from the order-{longer} solve"
    prefix = min(order, THETA_PREFIX)
    for row in payload["series"]:
        if row["theta"][:prefix] != gf_comb(row["i"], n, prefix).coefficient_list():
            return f"theta series i={row['i']} differs from gf_comb on its prefix"
    return None


def _check_bseries(argv, payload):
    n, order = _flag(argv, "--n"), _flag(argv, "--order")
    method = argv[argv.index("--method") + 1]
    if payload["n"] != n or payload["order"] != order:
        return "reported n or order differs from the request"
    if [row["i"] for row in payload["series"]] != list(range(n // 2 + 1)):
        return "components missing"
    if any(len(row[method]) != order for row in payload["series"]):
        return "series length differs from the order"
    return (_check_comb if method == "comb" else _check_theta)(payload, n, order)


def _check_decompose(argv, payload):
    from qcrystal.multiplicity import count_by_component
    from qcrystal.young import Partition, is_maximal_shape
    from qcrystal.weightlat import closed_form_component_index

    n, max_k = _flag(argv, "--n"), _flag(argv, "--max-k")
    keys = [(e["i"], e["k"]) for e in payload["entries"]]
    if keys != [(i, k) for i in range(n // 2 + 1) for k in range(i, max_k + 1)]:
        return "entries do not cover every (i, k)"
    for e in payload["entries"]:
        i, k = e["i"], e["k"]
        boxes = i * i + (k - i) * n
        if e["b"] != count_by_component(n, boxes)[i] or len(e["witnesses"]) != e["b"]:
            return f"b({i},{k}) differs from count_by_component"
        for w in e["witnesses"]:
            p = Partition(tuple((part, mult) for part, mult in w))
            if p.boxes != boxes or not is_maximal_shape(p, n):
                return f"witness {w} of ({i},{k}) is not a chain shape"
            if (closed_form_component_index(p, n) if w else 0) != i:
                return f"witness {w} of ({i},{k}) has another component index"
    return None


def _check_verify(argv, payload):
    from qcrystal.cli import MASTER_DEFAULT_NS, TRIPLE_DEFAULT_ORDER

    order = _flag(argv, "--order")
    expected = {f"lemma5.{j}": order for j in (1, 2, 3, 4)}
    expected["theorem5.1"] = _flag(argv, "--max-k")
    for n in MASTER_DEFAULT_NS:
        expected[f"master[n={n}]"] = _flag(argv, "--master-order")
    expected["triple-product"] = TRIPLE_DEFAULT_ORDER
    if not payload["all_hold"]:
        return "not all identities hold"
    reported = {c["name"]: c["order"] for c in payload["checks"]}
    if reported != expected:
        return f"reported checks or orders {reported} differ from {expected}"
    return None


_GATES = {"bseries": _check_bseries, "decompose": _check_decompose, "verify": _check_verify}


def check_output(argv: list[str], text: str) -> str | None:
    """Why one job's output is wrong, or None when it is correct."""
    try:
        return _GATES[argv[0]](argv, json.loads(text))
    except Exception as exc:  # a malformed output is a failed job, not a crash
        return f"gate error: {exc!r}"


def output_size(argv: list[str], text: str) -> tuple[int, int]:
    """(coefficients reported, their largest bit length) for one job.

    bseries reports series coefficients, decompose the b values; verify
    reports no coefficients when all checks hold, so it counts the
    coefficients its checks compared (the sum of their orders) and 0 bits.
    """
    payload = json.loads(text)
    if argv[0] == "bseries":
        values = [c for row in payload["series"] for key in ("comb", "theta") for c in row.get(key, ())]
    elif argv[0] == "decompose":
        values = [e["b"] for e in payload["entries"]]
    else:
        return sum(c["order"] for c in payload["checks"]), 0
    return len(values), max((abs(v).bit_length() for v in values), default=0)
