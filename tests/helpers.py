"""Brute-force oracles used to pin expected values independently of the
library's own algorithms, and checks of series laws the library itself
never calls."""

import functools

from qcrystal.qseries import theta_f, theta_g


def partitions_of(total, max_part=None):
    """All partitions of `total` as weakly decreasing tuples."""
    if total == 0:
        yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    for first in range(max_part, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def partitions_upto(limit):
    """All partitions with at most `limit` boxes, as a tuple of tuples."""
    out = []
    for total in range(limit + 1):
        out.extend(partitions_of(total))
    return tuple(out)


def count_partitions(total, allowed=None):
    """Number of partitions of `total`, optionally with an allowed-part
    predicate; 1 for total 0, 0 for negative totals."""
    if total < 0:
        return 0
    return sum(
        1
        for p in partitions_of(total)
        if allowed is None or all(allowed(part) for part in p)
    )


@functools.lru_cache(maxsize=None)
def _distinct_odd(remaining, max_part):
    if remaining == 0:
        return 1
    part = min(max_part, remaining)
    if part % 2 == 0:
        part -= 1
    total = 0
    while part >= 1:
        total += _distinct_odd(remaining - part, part - 2)
        part -= 2
    return total


def count_distinct_odd(total):
    """Partitions of `total` into distinct odd parts."""
    if total < 0:
        return 0
    return _distinct_odd(total, total)


def naive_series_mul(a: dict, b: dict, order: int) -> dict:
    """Schoolbook product of exponent->coefficient maps, truncated."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < order:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def series_to_dict(s) -> dict:
    """Exponent->coefficient map of a QSeries, nonzero entries only."""
    return {
        s.lowest + idx: c
        for idx, c in enumerate(s.coeffs)
        if c
    }


def colors_by_cell(parts, n):
    """Tally of cell colors computed cell by cell."""
    counts = [0] * n
    for row, length in enumerate(parts, start=1):
        for col in range(1, length + 1):
            counts[(col - row) % n] += 1
    return tuple(counts)


def chain_shapes_per_box_count(n, boxes):
    """Chain shapes with exactly `boxes` boxes, as (part, multiplicity)
    pair tuples in descending lexicographic order of their parts.

    A depth-first search run for this one box count: each part's
    multiplicity is forced by the previous pair, and a branch is emitted
    only when it uses up the box count exactly.
    """
    if boxes == 0:
        return [()]
    out = []

    def extend(prefix, prev_part, prev_mult, remaining):
        for part in range(min(prev_part - 1, remaining), 0, -1):
            mult = (-(prev_mult + prev_part - part)) % n
            if mult == 0 or part * mult > remaining:
                continue
            pairs = prefix + ((part, mult),)
            if part * mult == remaining:
                out.append(pairs)
            else:
                extend(pairs, part, mult, remaining - part * mult)

    for part in range(boxes, 0, -1):
        mult = part % n
        if mult == 0 or part * mult > boxes:
            continue
        if part * mult == boxes:
            out.append(((part, mult),))
        else:
            extend(((part, mult),), part, mult, boxes - part * mult)
    return out


def component_index_by_cells(pairs, n):
    """Component index of a chain shape from a cell-by-cell color tally.

    The weight 2 L_0 - sum_t c_t alpha_t, with
    alpha_t = 2 L_t - L_{t-1} - L_{t+1} + [t = 0] delta, must have
    L-part L_i + L_{n-i} for exactly one i in 0..n//2.
    """
    c = colors_by_cell([part for part, mult in pairs for _ in range(mult)], n)
    lam = [2 * (t == 0) - 2 * c[t] + c[t - 1] + c[(t + 1) % n] for t in range(n)]
    (i,) = [t for t in range(n // 2 + 1) if lam[t]]
    assert lam == [(t == i) + (t == (n - i) % n) for t in range(n)]
    return i


def multiplicity_table_by_filter(n, max_k, witness_cap=None):
    """(i, k) -> (count, witness pair tuples, omitted), enumerating each
    (i, k)'s box count on its own and keeping the shapes of component i."""
    out = {}
    for i in range(n // 2 + 1):
        for k in range(i, max_k + 1):
            witnesses = [
                pairs
                for pairs in chain_shapes_per_box_count(n, i * i + (k - i) * n)
                if component_index_by_cells(pairs, n) == i
            ]
            kept = witnesses if witness_cap is None else witnesses[:witness_cap]
            out[(i, k)] = (len(witnesses), tuple(kept), len(witnesses) - len(kept))
    return out


def transform_check(r, s, order):
    """Verify the index shift (r, s) -> (2r + s, -r) with prefactor q^r.

    The f-series picks up the prefactor directly, the g-series also flips
    sign.  Both comparisons are exact to the given order.
    """
    if r + s <= 0:
        raise ValueError("transformation needs r + s > 0")
    lhs_f = theta_f(r, s, order)
    rhs_f = theta_f(2 * r + s, -r, order - r).shift(r)
    if lhs_f != rhs_f:
        return False
    lhs_g = theta_g(r, s, order)
    rhs_g = -(theta_g(2 * r + s, -r, order - r).shift(r))
    return lhs_g == rhs_g
