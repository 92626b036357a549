"""Outer multiplicities of the tensor square, computed two independent ways.

The combinatorial route enumerates (or counts) congruence-chain shapes and
buckets them by component label.  The analytic route assembles a matrix of
shifted theta series, one row per quadratic-residue class of exponents,
and solves for the generating functions by Cramer's rule.  Both routes
must agree; the package's tests and the `verify` CLI exercise exactly that
agreement.

The matrix construction is proven for an odd prime modulus and for twice 1
or twice an odd prime.  For other moduli the same formulas are applied
only in conjecture mode, and results are reported rather than asserted.
"""

import functools
from dataclasses import dataclass

from . import qseries as qs
from .qseries import QSeries
from .weightlat import classify_maximal
from .young import Partition, enumerate_maximal_shapes, maximal_shape_color_counts

__all__ = [
    "TableEntry",
    "MultiplicityTable",
    "UnsupportedModulusError",
    "NonUnitDeterminantError",
    "theta_branch",
    "multiplicity_table",
    "count_by_component",
    "count_maximal_shapes",
    "gf_comb",
    "gf_theta",
    "theta_solution",
    "master_coefficient",
    "residue_block",
    "coefficient_matrix",
    "entry_via_separation",
    "master_discrepancy",
]


class UnsupportedModulusError(ValueError):
    """Theta pipeline requested for a modulus outside the proven branches."""


class NonUnitDeterminantError(ValueError):
    """The assembled matrix cannot be inverted exactly over the integers."""


# -- combinatorial route ---------------------------------------------------


@dataclass(frozen=True)
class TableEntry:
    count: int
    witnesses: tuple[Partition, ...]
    omitted: int = 0


@dataclass
class MultiplicityTable:
    """Map (i, k) -> multiplicity with witness shapes; treat as immutable."""

    n: int
    max_k: int
    entries: dict[tuple[int, int], TableEntry]

    def rows(self):
        """Entries ordered by (i, k)."""
        for key in sorted(self.entries):
            yield key, self.entries[key]


def multiplicity_table(n: int, max_k: int, witness_cap: int | None = None) -> MultiplicityTable:
    """Enumerate and classify every chain shape with k up to max_k.

    Each needed box count is enumerated once.  A shape's label depends
    only on its color counts (the box count is their sum), so one shape
    per distinct count vector is classified and every shape with that
    vector is filed under its label.  A box count shared by two
    components (n = 4 or 8, say) also holds labels with k beyond max_k,
    which are dropped.
    """
    if n < 2 or max_k < 0:
        raise ValueError("need n >= 2 and max_k >= 0")
    if witness_cap is not None and witness_cap < 0:
        raise ValueError("witness_cap must be nonnegative")
    found: dict[tuple[int, int], list[Partition]] = {
        (i, k): [] for i in range(n // 2 + 1) for k in range(i, max_k + 1)
    }
    # color counts -> witness list of their label, or None when dropped
    targets: dict[tuple[int, ...], list[Partition] | None] = {}
    # Largest first, so the shape table is built once at its full size.
    for boxes in sorted({i * i + (k - i) * n for i, k in found}, reverse=True):
        shapes = enumerate_maximal_shapes(n, boxes)
        for p, counts in zip(shapes, maximal_shape_color_counts(n, boxes)):
            try:
                witnesses = targets[counts]
            except KeyError:
                witnesses = targets[counts] = found.get(classify_maximal(p, n))
            if witnesses is not None:
                witnesses.append(p)
    entries = {}
    for key, witnesses in found.items():
        kept = witnesses if witness_cap is None else witnesses[:witness_cap]
        entries[key] = TableEntry(len(witnesses), tuple(kept), len(witnesses) - len(kept))
    return MultiplicityTable(n, max_k, entries)


def _partition_number(m: int) -> int:
    """Exact p(m) from Euler's pentagonal-number recurrence."""
    p = [1] + [0] * m
    for k in range(1, m + 1):
        total = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > k:
                break
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
        p[k] = total
    return p[m]


def _count_table(n: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Chain-shape counts for every box count up to `boxes`, per component.

    Parts are taken largest first.  A state (c, r) records c = (last part
    + its multiplicity) mod n and r = rows so far mod n; the congruence
    chain forces the next part p to carry multiplicity (p - c) mod n, so
    each state only needs its generating function in q.  That polynomial
    is packed into one int, one slot of `width` bits per box count, and
    every transition is one shift-add.  A slot counts distinct partitions
    of its box count, so p(boxes) plus a spare top bit bounds it.
    """
    width = _partition_number(boxes).bit_length() + 1
    slots = boxes + 1
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for part in range(boxes, 0, -1):
        moves = []
        for (c, r), poly in states.items():
            mult = (part - c) % n
            cost = part * mult
            if mult == 0 or cost > boxes:
                continue
            kept = poly & ((1 << ((slots - cost) * width)) - 1)
            moves.append((((part + mult) % n, (r + mult) % n), kept << (cost * width)))
        for key, poly in moves:
            states[key] = states.get(key, 0) + poly
    # The component index is a function of the final state; the empty
    # shape never leaves (0, 0), which is component 0.
    packed = [0] * (n // 2 + 1)
    for (c, r), poly in states.items():
        packed[min((c - r) % n, (-r) % n)] += poly
    return tuple(_unpack(poly, width, slots) for poly in packed)


def _unpack(poly: int, width: int, slots: int) -> tuple[int, ...]:
    digits = format(poly, f"0{width * slots}b")
    if len(digits) != width * slots:
        raise OverflowError("packed counts exceed their slots")
    out = []
    for end in range(width * slots, 0, -width):
        if digits[end - width] != "0":
            raise OverflowError("slot count reached its sign bit")
        out.append(int(digits[end - width : end], 2))
    return tuple(out)


_TABLE_CACHE_SIZE = 8
_tables: dict[int, tuple[tuple[int, ...], ...]] = {}


def _table_for(n: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Cached per-component table for modulus n covering `boxes`.

    A too-small table is rebuilt at twice its size or more, so a run of
    increasing requests rebuilds only logarithmically often.  The cache
    keeps the most recently used moduli.
    """
    table = _tables.pop(n, None)
    if table is None or len(table[0]) <= boxes:
        size = boxes if table is None else max(boxes, 2 * (len(table[0]) - 1))
        table = _count_table(n, size)
    _tables[n] = table
    while len(_tables) > _TABLE_CACHE_SIZE:
        del _tables[next(iter(_tables))]
    return table


def count_by_component(n: int, boxes: int) -> tuple[int, ...]:
    """Chain-shape counts at one box count, indexed by component index."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if boxes < 0:
        return (0,) * (n // 2 + 1)
    return tuple(column[boxes] for column in _table_for(n, boxes))


def count_maximal_shapes(n: int, boxes: int) -> int:
    """Total number of chain shapes with the given box count (0 if negative)."""
    return sum(count_by_component(n, boxes))


def gf_comb(i: int, n: int, order: int) -> QSeries:
    """Multiplicity generating function from enumeration:
    coefficient of q^m is the count at i^2 + m*n boxes in component i."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if not 0 <= i <= n // 2:
        raise ValueError("component index out of range")
    if order < 1:
        raise ValueError("order must be at least 1")
    # Size for the highest component so every component at this order
    # shares one table.
    column = _table_for(n, (n // 2) ** 2 + (order - 1) * n)[i]
    return QSeries.from_coeffs(list(column[i * i :: n][:order]), order)


# -- theta route -----------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def theta_branch(n: int) -> tuple[str, bool]:
    """Branch name and whether the matrix construction is proven for n."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if n % 2:
        return ("odd-prime", True) if _is_prime(n) else ("odd-conjectured", False)
    half = n // 2
    if half == 1 or (half % 2 == 1 and _is_prime(half)):
        return ("two-p", True)
    return ("even-conjectured", False)


def residue_block(i: int, j: int, n: int, order: int) -> QSeries:
    """Theta block carrying the exponent class of (i + j)^2 in the
    residue decomposition; plus-signed for even n, alternating for odd."""
    a = n * (n + 3) // 2 - 2 * i - (n + 2) * j
    b = n * (n + 1) // 2 + 2 * i + (n + 2) * j
    if a + b <= 0:
        raise ValueError("degenerate block exponents")
    build = qs.theta_f if n % 2 == 0 else qs.theta_g
    return build(a, b, order)


def master_coefficient(i: int, n: int, order: int) -> QSeries:
    """q^(i^2) times the theta factor pairing with the i-th generating
    function in the product identity."""
    shift = i * i
    return qs.theta_g(2 * i + 1, n + 1 - 2 * i, order - shift).shift(shift)


def _entry_terms(j: int, i: int, n: int):
    """Class indices t contributing to matrix entry (j, i), with the sign
    (-1)^t and the exponent prefactor t(t-1)/2 + floor((t+i)^2 / n)."""
    for t in sorted({(j - i) % n, (-j - i) % n}):
        yield t, (-1 if t % 2 else 1), t * (t - 1) // 2 + ((t + i) ** 2) // n


def coefficient_matrix(
    n: int, order: int, conjecture: bool = False
) -> tuple[tuple[QSeries, ...], ...]:
    """Assemble the linear system's coefficient matrix at the given order,
    as a tuple of rows.

    Row j collects the blocks whose exponents lie in the class of j^2;
    every assembled entry must come out with nonnegative valuation.
    """
    _, proven = theta_branch(n)
    if not proven and not conjecture:
        raise UnsupportedModulusError(
            f"matrix construction for n={n} is conjectural; pass conjecture=True to build it"
        )
    size = n // 2 + 1
    rows = []
    for j in range(size):
        row = []
        for i in range(size):
            entry = QSeries.zero(order)
            for t, sign, shift in _entry_terms(j, i, n):
                block = residue_block(i, t, n, order - shift).shift(shift)
                entry = entry + (block if sign > 0 else -block)
            if not entry.is_zero and entry.lowest < 0:
                raise ValueError(f"entry ({j}, {i}) for n={n} has negative valuation")
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def entry_via_separation(j: int, i: int, n: int, order: int) -> QSeries:
    """Matrix entry rebuilt through the explicit residue-class separation.

    Terms are assembled in the original variable, checked to live in the
    exponent class of j^2 modulo n, stripped of that residue, and pushed
    through the checked exponent division q^n -> q.  Must equal the entry
    produced by `coefficient_matrix`.
    """
    residue = (j * j) % n
    pre_order = n * order + residue
    pre = QSeries.zero(pre_order)
    for t, sign, _ in _entry_terms(j, i, n):
        shift = n * t * (t - 1) // 2 + (t + i) ** 2
        block_order = -(-(pre_order - shift) // n)
        term = residue_block(i, t, n, block_order).expand(n).shift(shift).truncate(pre_order)
        pre = pre + (term if sign > 0 else -term)
    if not pre.is_zero:
        for idx, c in enumerate(pre.coeffs):
            if c and (pre.lowest + idx) % n != residue:
                raise ValueError(
                    f"exponent {pre.lowest + idx} escapes class {residue} mod {n}"
                )
    return pre.shift(-residue).contract(n)


def theta_solution(n: int, order: int, conjecture: bool = False) -> tuple[QSeries, ...]:
    """Every component's generating function from one theta-matrix solve,
    indexed by component; the eight most recent solves are cached."""
    return _theta_solve(n, order, bool(conjecture))


def _determinant_valuation(n: int) -> int:
    """Power of q dividing the theta-matrix determinant: row j has
    valuation floor(j^2 / n), and the rows rescaled by those powers have a
    unimodular constant-term matrix."""
    return sum(j * j // n for j in range(n // 2 + 1))


@functools.lru_cache(maxsize=8)
def _theta_solve(n: int, order: int, conjecture: bool) -> tuple[QSeries, ...]:
    """Solve the theta-matrix system for every component at once.

    Cramer's rule with exact integer division: B_i is the Euler product
    times the i-th cofactor along row 0, divided by the determinant.  The
    determinant carries the power q^v with v = sum of floor(j^2 / n) over
    the rows (v = 1 for n = 6); that power must also divide every
    numerator and is cancelled before inverting.  Since v is known in
    advance, the matrix is built once at order + v, so the quotient is
    exact to the requested order, and its determinant, inverse and
    cofactors serve every component; the Euler product comes from
    `euler_phi`'s cache.  A zero determinant, a valuation above v or a
    leading coefficient other than +-1 raises `NonUnitDeterminantError`;
    no n in 2..23, conjectured moduli included, does.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    headroom = _determinant_valuation(n)
    matrix = coefficient_matrix(n, order + headroom, conjecture)
    full_det = qs.det(matrix)
    if full_det.is_zero or full_det.lowest > headroom:
        raise NonUnitDeterminantError(
            f"determinant for n={n} vanishes beyond q^{headroom}; system is singular"
        )
    if full_det.coeffs[0] not in (1, -1):
        raise NonUnitDeterminantError(
            f"determinant for n={n} has leading coefficient other than +-1; "
            "cannot divide exactly"
        )
    valuation = full_det.lowest
    inverse = full_det.shift(-valuation).invert()
    phi = qs.euler_phi(order + headroom)
    solution = []
    for i, cofactor in enumerate(qs.cofactors(matrix)):
        numerator = phi * cofactor
        if not numerator.is_zero and numerator.lowest < valuation:
            raise NonUnitDeterminantError(
                f"numerator valuation below determinant valuation for n={n}, i={i}"
            )
        solution.append((numerator.shift(-valuation) * inverse).truncate(order))
    return tuple(solution)


def gf_theta(i: int, n: int, order: int, conjecture: bool = False) -> QSeries:
    """Multiplicity generating function from the theta-matrix route:
    component i of `theta_solution`."""
    if not 0 <= i <= n // 2:
        raise ValueError("component index out of range")
    return theta_solution(n, order, conjecture)[i]


# -- consistency identity ---------------------------------------------------


def master_discrepancy(
    n: int, order: int, series: list[QSeries] | None = None
) -> tuple[int, int, int] | None:
    """First failing exponent of the product identity, or None if it holds.

    The identity equates the stride-n Euler product with the sum over
    components of the master coefficient times the generating function
    evaluated at q^n.  Generating functions come from `gf_comb` unless an
    explicit list is supplied.
    """
    if n < 2 or order < 1:
        raise ValueError("need n >= 2 and order >= 1")
    if series is None:
        sub_order = -(-order // n)
        series = [gf_comb(i, n, sub_order) for i in range(n // 2 + 1)]
    if len(series) != n // 2 + 1:
        raise ValueError("one generating function per component index is required")
    lhs = qs.euler_phi(order, stride=n)
    total = QSeries.zero(order)
    for i, s in enumerate(series):
        if s.order * n < order:
            raise ValueError("supplied series are too short for the requested order")
        total = total + master_coefficient(i, n, order) * s.expand(n).truncate(order)
    return qs.first_difference(lhs, total)

