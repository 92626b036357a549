"""Machine checks for the package's catalog of series and counting identities.

Each check builds both sides from independent code paths (bilateral theta
sums against Euler products, enumeration against restricted-partition
series) and reports the first disagreeing coefficient if any.  Checks are
named after their CLI identifiers; the README lists the statements.
"""

import functools
from dataclasses import dataclass

from . import qseries as qs
from .multiplicity import (
    coefficient_matrix,
    count_maximal_shapes,
    gf_comb,
    master_discrepancy,
)
from .qseries import QSeries

__all__ = [
    "IdentityReport",
    "distinct_odd_sum_form",
    "partition_identity_counts",
    "check_lemma_5_1",
    "check_lemma_5_2",
    "check_lemma_5_3",
    "check_lemma_5_4",
    "check_theorem_5_1",
    "check_master",
    "check_triple_product",
]


@dataclass(frozen=True)
class IdentityReport:
    name: str
    order: int
    holds: bool
    first_discrepancy: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.holds != (self.first_discrepancy is None):
            raise ValueError("holds must mirror the absence of a discrepancy")


def _report(name: str, order: int, diff: tuple[int, int, int] | None) -> IdentityReport:
    return IdentityReport(name, order, diff is None, diff)


def distinct_odd_sum_form(i: int, order: int) -> QSeries:
    """Sum over m of q^(2m^2 + 2im) / prod_{k=1}^{2m+i} (1 - q^k).

    For i = 0 the coefficient of q^k counts partitions of 2k into distinct
    odd parts; for i = 1, partitions of 2k - 1.
    """
    if i not in (0, 1):
        raise ValueError("only components 0 and 1 exist for modulus 2")
    if order < 1:
        raise ValueError("order must be at least 1")
    acc = [0] * order
    inv = [0] * order  # running inverse of prod (1 - q^k)
    inv[0] = 1
    k_done = 0
    m = 0
    while True:
        exponent = 2 * m * m + 2 * i * m
        if exponent >= order:
            break
        while k_done < 2 * m + i:
            k_done += 1
            for x in range(k_done, order):
                inv[x] += inv[x - k_done]
        for t in range(order - exponent):
            acc[exponent + t] += inv[t]
        m += 1
    return QSeries.from_coeffs(acc, order)


def _two_core_pieces(order: int):
    phi = qs.euler_phi(order)
    f53 = qs.theta_f(5, 3, order)
    f17 = qs.theta_f(1, 7, order)
    disc = f53 * f53 - (f17 * f17).shift(1).truncate(order)
    return phi, f53, f17, disc


def check_lemma_5_1(order: int) -> IdentityReport:
    """Sum forms equal the theta quotients for modulus 2."""
    phi, f53, f17, disc = _two_core_pieces(order)
    disc_inv = disc.invert()
    for i, numer in ((0, f53), (1, f17)):
        diff = qs.first_difference(distinct_odd_sum_form(i, order), phi * numer * disc_inv)
        if diff is not None:
            return _report(f"lemma5.1[i={i}]", order, diff)
    return _report("lemma5.1", order, None)


def check_lemma_5_2(order: int) -> IdentityReport:
    """Theta-square difference factors as the product of two Euler products."""
    _, _, _, disc = _two_core_pieces(order)
    rhs = qs.euler_phi(order) * qs.euler_phi(order, stride=2)
    return _report("lemma5.2", order, qs.first_difference(disc, rhs))


def check_lemma_5_3(order: int) -> IdentityReport:
    """Two equivalent quotient presentations of the modulus-2 series."""
    phi_inv = qs.euler_phi(order).invert()
    phi2_inv = qs.euler_phi(order, stride=2).invert()
    pairs = (
        (qs.theta_f(5, 3, order), qs.theta_f(11, 13, order), qs.theta_f(5, 19, order), 1),
        (qs.theta_f(1, 7, order), qs.theta_f(7, 17, order), qs.theta_f(1, 23, order), 2),
    )
    for idx, (lhs_num, rhs_a, rhs_b, power) in enumerate(pairs):
        lhs = lhs_num * phi2_inv
        rhs = (rhs_a - rhs_b.shift(power).truncate(order)) * phi_inv
        diff = qs.first_difference(lhs, rhs)
        if diff is not None:
            return _report(f"lemma5.3[{idx}]", order, diff)
    return _report("lemma5.3", order, None)


def check_lemma_5_4(order: int) -> IdentityReport:
    """Determinant factorization for modulus 3, with its two supporting facts."""
    phi_sq = qs.euler_phi(order) ** 2

    full_det = qs.det(coefficient_matrix(3, order))
    diff = qs.first_difference(full_det, phi_sq)
    if diff is not None:
        return _report("lemma5.4[det]", order, diff)

    vanishing = qs.theta_g(0, 15, order)
    product = qs.theta_g(5, 10, order) * vanishing
    if not vanishing.is_zero or not product.is_zero:
        e = vanishing.lowest if not vanishing.is_zero else product.lowest
        return _report("lemma5.4[zero-term]", order, (e, 0, 1))

    def shifted(series: QSeries, by: int) -> QSeries:
        return series.shift(by).truncate(order)

    expansion = (
        qs.theta_g(7, 8, order) * qs.theta_g(6, 9, order)
        - shifted(qs.theta_g(4, 11, order) * qs.theta_g(3, 12, order), 1)
        - shifted(qs.theta_g(1, 14, order) * qs.theta_g(3, 12, order), 2)
        - shifted(qs.theta_g(6, 9, order) * qs.theta_g(2, 13, order), 1)
        + shifted(qs.theta_g(5, 10, order) * qs.theta_g(0, 15, order), 2)
    )
    diff = qs.first_difference(expansion, phi_sq)
    if diff is not None:
        return _report("lemma5.4[cosets]", order, diff)
    return _report("lemma5.4", order, None)


_MOD15_EXCLUSIONS = {
    "c+": frozenset({0, 7, 8}),
    "c-": frozenset({0, 2, 13}),
    "d+": frozenset({0, 4, 11}),
    "d-": frozenset({0, 1, 14}),
}


# Four tags per order; eight entries hold the current and previous order.
@functools.lru_cache(maxsize=8)
def _mod15_series(tag: str, order: int) -> QSeries:
    return qs.restricted_partition_gf(_MOD15_EXCLUSIONS[tag], 15, order)


def _count_at(tag: str, m: int, order: int) -> int:
    """Restricted partition count, with count(0) = 1 and count(m < 0) = 0."""
    if m < 0:
        return 0
    return _mod15_series(tag, order).coeff(m)


def _quadruple(k: int, order: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) at index k, reading the mod-15 series at `order` > k."""
    a = count_maximal_shapes(3, 3 * k)
    b = count_maximal_shapes(3, 3 * k - 2)
    c = _count_at("c+", k, order) - _count_at("c-", k - 1, order)
    d = _count_at("d+", k - 1, order) + _count_at("d-", k - 2, order)
    return a, b, c, d


def partition_identity_counts(k: int) -> tuple[int, int, int, int]:
    """The quadruple (a, b, c, d) at index k.

    a and b count chain shapes at 3k and 3k - 2 boxes; c and d are signed
    combinations of mod-15 restricted partition counts at k and nearby
    indices.  The counting identities assert a = c (k >= 0) and b = d
    (k >= 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _quadruple(k, k + 1)


def check_theorem_5_1(max_k: int) -> IdentityReport:
    """Counting identities a(k) = c(k) and b(k) = d(k) up to max_k; every
    a = c case is checked before the first b = d case."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    # Largest first, so the chain-count table is built once at full size.
    count_maximal_shapes(3, 3 * max_k)
    quadruples = [_quadruple(k, max_k + 1) for k in range(max_k + 1)]
    for k, (a, _, c, _) in enumerate(quadruples):
        if a != c:
            return _report(f"theorem5.1[a=c,k={k}]", max_k, (k, a, c))
    for k, (_, b, _, d) in enumerate(quadruples[1:], start=1):
        if b != d:
            return _report(f"theorem5.1[b=d,k={k}]", max_k, (k, b, d))
    return _report("theorem5.1", max_k, None)


def check_master(n: int, order: int) -> IdentityReport:
    """Product identity for one modulus, generating functions from `gf_comb`."""
    return _report(f"master[n={n}]", order, master_discrepancy(n, order))


TRIPLE_MAX_RS = 10
TRIPLE_EULER_ORDER = 300


def check_triple_product(order: int = 200) -> IdentityReport:
    """Sum forms equal product forms for every exponent pair up to
    TRIPLE_MAX_RS, plus the pentagonal-number special case against the
    Euler product at TRIPLE_EULER_ORDER."""
    for r in range(TRIPLE_MAX_RS + 1):
        for s in range(TRIPLE_MAX_RS + 1):
            if r + s == 0:
                continue
            for sum_form, product_form in (
                (qs.theta_f(r, s, order), qs.triple_product_f(r, s, order)),
                (qs.theta_g(r, s, order), qs.triple_product_g(r, s, order)),
            ):
                diff = qs.first_difference(sum_form, product_form)
                if diff is not None:
                    return _report(f"triple-product[r={r},s={s}]", order, diff)
    diff = qs.first_difference(
        qs.theta_g(1, 2, TRIPLE_EULER_ORDER), qs.euler_phi(TRIPLE_EULER_ORDER)
    )
    if diff is not None:
        return _report("triple-product[pentagonal]", TRIPLE_EULER_ORDER, diff)
    return _report("triple-product", order, None)
