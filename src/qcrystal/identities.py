"""Machine checks for the package's catalog of series and counting identities.

Each check builds both sides from independent code paths (bilateral theta
sums against Euler products, enumeration against restricted-partition
series) and reports the first disagreeing coefficient if any.  Checks are
named after their CLI identifiers; the README lists the statements.
"""

import functools
from dataclasses import dataclass
from operator import add

from . import qseries as qs
from .multiplicity import (
    coefficient_matrix,
    count_maximal_shapes,
    gf_comb,  # unused here; perfbench/child.py's tracer patches identities.gf_comb
    master_discrepancy,
)
from .qseries import QSeries

__all__ = [
    "IdentityReport",
    "distinct_odd_sum_form",
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
    first_discrepancy: tuple[int, int, int] | None = None

    @property
    def holds(self) -> bool:
        return self.first_discrepancy is None


def distinct_odd_sum_form(i: int, order: int, times: QSeries | None = None) -> QSeries:
    """Sum over m of q^(2m^2 + 2im) / prod_{k=1}^{2m+i} (1 - q^k), times
    the series `times` (None: the series 1).

    For i = 0 the coefficient of q^k counts partitions of 2k into distinct
    odd parts; for i = 1, partitions of 2k - 1.  `times` must have the
    truncation order `order` (else `OrderMismatchError`) and valuation >= 0
    (else `ValueError`); the product is exact mod q^order.
    """
    if i not in (0, 1):
        raise ValueError("only components 0 and 1 exist for modulus 2")
    if order < 1:
        raise ValueError("order must be at least 1")
    if times is None:
        times = QSeries.one(order)
    elif times.order != order:
        raise qs.OrderMismatchError(f"orders differ: {times.order} != {order}")
    elif times.lowest < 0:
        raise ValueError("times must have valuation at least 0")
    return _distinct_odd_sum_forms(order, times)[i]


# Lemma 5.1 asks for both components at one order, with one multiplier.
@functools.lru_cache(maxsize=1)
def _distinct_odd_sum_forms(order: int, times: QSeries) -> tuple[QSeries, QSeries]:
    """Both sum forms, each times `times`, from one running quotient
    times / prod (1 - q^k).

    Term k = 2m + i of either form is q^(k^2 // 2) / prod_{j<=k} (1 - q^j),
    so the terms of S_0 and S_1 alternate as k grows; by distributivity
    term k of S_i * times is q^(k^2 // 2) times the running quotient.
    Term k and all later ones read the quotient only below
    order - k^2 // 2, and dividing by (1 - q^k) never reads above the
    coefficient it writes, so the quotient is cut to that length before
    each division, exactly.
    """
    sums = ([0] * order, [0] * order)
    run = times.coefficient_list()  # times / prod (1 - q^j), j <= k
    k = 0
    while (exponent := k * k // 2) < order:
        del run[order - exponent:]
        if k:
            qs._div_binomial_inplace(run, k)
        acc = sums[k % 2]
        acc[exponent:] = map(add, acc[exponent:], run)
        k += 1
    return tuple(QSeries.from_coeffs(acc, order) for acc in sums)


# Lemmas 5.1 and 5.2 ask for the same order in one catalog run; the pieces
# are immutable, so they are shared.
@functools.lru_cache(maxsize=1)
def _two_core_pieces(order: int):
    phi = qs.euler_phi(order)
    f53 = qs.theta_f(5, 3, order)
    f17 = qs.theta_f(1, 7, order)
    disc = f53 * f53 - (f17 * f17).shift(1).truncate(order)
    return phi, f53, f17, disc


def check_lemma_5_1(order: int) -> IdentityReport:
    """Sum forms equal the theta quotients for modulus 2, checked with the
    denominator cleared: S_i * D == phi * theta_i.

    D has constant term 1, so at the same truncation this is equivalent to
    S_i == phi * theta_i / D, and the first failing exponent and the gap
    there are the same; the reported values are those of S_i * D and
    phi * theta_i.  S_i * D comes from the pass that builds the sum forms,
    started from D instead of 1, so S_i itself is never formed."""
    phi, f53, f17, disc = _two_core_pieces(order)
    for i, numer in ((0, f53), (1, f17)):
        diff = qs.first_difference(distinct_odd_sum_form(i, order, disc), phi * numer)
        if diff is not None:
            return IdentityReport(f"lemma5.1[i={i}]", order, diff)
    return IdentityReport("lemma5.1", order, None)


def check_lemma_5_2(order: int) -> IdentityReport:
    """Theta-square difference factors as the product of two Euler products."""
    _, _, _, disc = _two_core_pieces(order)
    rhs = qs.euler_phi(order) * qs.euler_phi(order, stride=2)
    return IdentityReport("lemma5.2", order, qs.first_difference(disc, rhs))


def check_lemma_5_3(order: int) -> IdentityReport:
    """Two equivalent quotient presentations of the modulus-2 series."""
    phi_inv = qs.euler_phi(order).invert()
    # phi(q^2)^-1 is phi^-1 under q -> q^2, a ring map, so exact.
    phi2_inv = phi_inv.truncate(-(-order // 2)).expand(2).truncate(order)
    pairs = (
        (qs.theta_f(5, 3, order), qs.theta_f(11, 13, order), qs.theta_f(5, 19, order), 1),
        (qs.theta_f(1, 7, order), qs.theta_f(7, 17, order), qs.theta_f(1, 23, order), 2),
    )
    for idx, (lhs_num, rhs_a, rhs_b, power) in enumerate(pairs):
        lhs = lhs_num * phi2_inv
        rhs = (rhs_a - rhs_b.shift(power).truncate(order)) * phi_inv
        diff = qs.first_difference(lhs, rhs)
        if diff is not None:
            return IdentityReport(f"lemma5.3[{idx}]", order, diff)
    return IdentityReport("lemma5.3", order, None)


def check_lemma_5_4(order: int) -> IdentityReport:
    """Determinant factorization for modulus 3, with its two supporting facts."""
    phi_sq = qs.euler_phi(order) ** 2

    full_det = qs.det(coefficient_matrix(3, order))
    diff = qs.first_difference(full_det, phi_sq)
    if diff is not None:
        return IdentityReport("lemma5.4[det]", order, diff)

    vanishing = qs.theta_g(0, 15, order)
    if not vanishing.is_zero:
        e = vanishing.lowest
        return IdentityReport("lemma5.4[zero-term]", order, (e, vanishing.coeff(e), 0))

    def shifted(series: QSeries, by: int) -> QSeries:
        return series.shift(by).truncate(order)

    expansion = (
        qs.theta_g(7, 8, order) * qs.theta_g(6, 9, order)
        - shifted(qs.theta_g(4, 11, order) * qs.theta_g(3, 12, order), 1)
        - shifted(qs.theta_g(1, 14, order) * qs.theta_g(3, 12, order), 2)
        - shifted(qs.theta_g(6, 9, order) * qs.theta_g(2, 13, order), 1)
        + shifted(qs.theta_g(5, 10, order) * vanishing, 2)
    )
    diff = qs.first_difference(expansion, phi_sq)
    if diff is not None:
        return IdentityReport("lemma5.4[cosets]", order, diff)
    return IdentityReport("lemma5.4", order, None)


# Part classes mod 15 left out of the four restricted series c+, c-, d+, d-.
_MOD15_EXCLUSIONS = (
    frozenset({0, 7, 8}),
    frozenset({0, 2, 13}),
    frozenset({0, 4, 11}),
    frozenset({0, 1, 14}),
)


def _mod15_counts(order: int) -> tuple[list[int], ...]:
    """Coefficients of the series c+, c-, d+, d- below `order`, each list
    followed by two zeros, so index -1 or -2 (a count at m < 0) reads 0."""
    return tuple(
        qs.restricted_partition_gf(excluded, 15, order).coefficient_list() + [0, 0]
        for excluded in _MOD15_EXCLUSIONS
    )


def _quadruple(k: int, counts: tuple[list[int], ...]) -> tuple[int, int, int, int]:
    """(a, b, c, d) at index k, reading `_mod15_counts` of an order > k."""
    c_plus, c_minus, d_plus, d_minus = counts
    a = count_maximal_shapes(3, 3 * k)
    b = count_maximal_shapes(3, 3 * k - 2)
    return a, b, c_plus[k] - c_minus[k - 1], d_plus[k - 1] + d_minus[k - 2]


def check_theorem_5_1(max_k: int) -> IdentityReport:
    """Counting identities a(k) = c(k) and b(k) = d(k) up to max_k; every
    a = c case is checked before the first b = d case."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    # Largest first, so the chain-count table is built once at full size.
    count_maximal_shapes(3, 3 * max_k)
    counts = _mod15_counts(max_k + 1)
    quadruples = [_quadruple(k, counts) for k in range(max_k + 1)]
    for k, (a, _, c, _) in enumerate(quadruples):
        if a != c:
            return IdentityReport(f"theorem5.1[a=c,k={k}]", max_k, (k, a, c))
    for k, (_, b, _, d) in enumerate(quadruples[1:], start=1):
        if b != d:
            return IdentityReport(f"theorem5.1[b=d,k={k}]", max_k, (k, b, d))
    return IdentityReport("theorem5.1", max_k, None)


def check_master(n: int, order: int) -> IdentityReport:
    """Product identity for one modulus, generating functions from `gf_comb`."""
    return IdentityReport(f"master[n={n}]", order, master_discrepancy(n, order))


TRIPLE_MAX_RS = 10
TRIPLE_EULER_ORDER = 300


def check_triple_product(order: int) -> IdentityReport:
    """Sum forms equal product forms for every exponent pair up to
    TRIPLE_MAX_RS, plus the pentagonal-number special case against the
    Euler product at TRIPLE_EULER_ORDER.

    A product form is symmetric in r and s, so each is built once per
    unordered pair and compared with the sum forms of both orderings."""
    for r in range(TRIPLE_MAX_RS + 1):
        for s in range(r, TRIPLE_MAX_RS + 1):
            if r + s == 0:
                continue
            product_f = qs.triple_product_f(r, s, order)
            product_g = qs.triple_product_g(r, s, order)
            for a, b in ((r, s),) if r == s else ((r, s), (s, r)):
                for sum_form, product_form in (
                    (qs.theta_f(a, b, order), product_f),
                    (qs.theta_g(a, b, order), product_g),
                ):
                    diff = qs.first_difference(sum_form, product_form)
                    if diff is not None:
                        return IdentityReport(f"triple-product[r={a},s={b}]", order, diff)
    diff = qs.first_difference(
        qs.theta_g(1, 2, TRIPLE_EULER_ORDER), qs.euler_phi(TRIPLE_EULER_ORDER)
    )
    if diff is not None:
        return IdentityReport("triple-product[pentagonal]", TRIPLE_EULER_ORDER, diff)
    return IdentityReport("triple-product", order, None)
