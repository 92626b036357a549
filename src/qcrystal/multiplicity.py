"""Outer multiplicities of the tensor square, computed two independent ways.

The combinatorial route enumerates (or counts) congruence-chain shapes and
buckets them by component label.  The analytic route assembles a matrix of
shifted theta series, one row per quadratic-residue class of exponents,
and solves for the generating functions by Cramer's rule.  Both routes
must agree; the package's tests and `bseries --method both` check exactly
that agreement.

The matrix construction is proven for an odd prime modulus and for twice 1
or twice an odd prime.  For other moduli the same formulas are applied
only in conjecture mode, and results are reported rather than asserted.
"""

import functools
from dataclasses import dataclass
from math import isqrt

from . import qseries as qs
from .qseries import QSeries
from .weightlat import classify_maximal
from .young import Partition, enumerate_maximal_shapes, maximal_shape_zero_counts

__all__ = [
    "TableEntry",
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

    @property
    def omitted(self) -> int:
        """Witnesses left out by the table's cap."""
        return self.count - len(self.witnesses)


def multiplicity_table(
    n: int, max_k: int, witness_cap: int | None = None
) -> dict[tuple[int, int], TableEntry]:
    """Enumerate and classify every chain shape with k up to max_k, as a
    map (i, k) -> multiplicity with witness shapes, built in (i, k) order.

    Each needed box count is enumerated once.  A shape's label (i, k) has
    k equal to its number of color-0 cells, since `weight_of` sets
    delta = -c_0, and `classify_maximal` rejects it unless
    boxes = i^2 + (k - i) n.  On 0 <= i <= n/2 that equation has one root,
    so the box count and c_0 fix the label: one shape per c_0 of each box
    count is classified and every shape with that c_0 is filed under its
    label.  A box count shared by two components (n = 4 or 8, say) also
    holds labels with k beyond max_k, which are dropped.
    """
    if n < 2 or max_k < 0:
        raise ValueError("need n >= 2 and max_k >= 0")
    if witness_cap is not None and witness_cap < 0:
        raise ValueError("witness_cap must be nonnegative")
    found = {(i, k): [] for i in range(n // 2 + 1) for k in range(i, max_k + 1)}
    # Largest first, so the shape table is built once at its full size.
    for boxes in sorted({i * i + (k - i) * n for i, k in found}, reverse=True):
        shapes = enumerate_maximal_shapes(n, boxes)
        # c_0 -> witness list of its label, or None when dropped
        targets: dict[int, list[Partition] | None] = {}
        for p, zeros in zip(shapes, maximal_shape_zero_counts(n, boxes)):
            try:
                witnesses = targets[zeros]
            except KeyError:
                witnesses = targets[zeros] = found.get(classify_maximal(p, n))
            if witnesses is not None:
                witnesses.append(p)
    return {key: TableEntry(len(w), tuple(w[:witness_cap])) for key, w in found.items()}


def _slot_width(boxes: int) -> int:
    """Bits per count slot of `_count_table` at `boxes`; the proof is there."""
    return isqrt(137 * boxes // 10) + 2


def _count_table(n: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Chain-shape counts up to `boxes` boxes, one row per component i,
    holding only its own residue class: entry s counts the shapes of
    i^2 mod n + s*n boxes.

    Parts are taken largest first; the state is r = rows so far mod n.  Part
    p gets multiplicity f = (p - c) mod n, c = last part + its multiplicity,
    and f rows of p keep c - 2r and boxes - r^2 fixed mod n (both start at
    0).  So f = (p - 2r) mod n, and state r packs one `width`-bit slot per
    box count r^2 mod n + s*n into an int; a transition is one shift-add.
    State r ends in component min(r, n - r), which shares its residue class.

    A part p = nP + rho moves state r by f = (rho - 2r) mod n rows to
    to = (r + f) mod n, shifting its slots by P*f + fixed with the exact
    fixed = (r^2 mod n + rho*f - to^2 mod n) / n, so each residue lists its
    moves (r, f, to, fixed), f != 0, once; a move from an empty state is
    skipped.  Rows and parts never outnumber boxes, so only r and rho below
    min(n, boxes + 1) are listed, and a move only if r^2 mod n + f*least
    <= boxes for the least part of its residue, rho or n: found from
    f <= boxes // least and 2r = rho - f mod n, that is about
    boxes * ln(boxes) moves when boxes < n, not n^2.

    Every slot counts partitions of one box count B' <= B = `boxes`, at
    most p(B') <= p(B), so p(B)'s bits plus a sign bit hold it.  For
    B >= 1, p(B) < exp(pi sqrt(2B/3)) (T. M. Apostol, Introduction to
    Analytic Number Theory, ch. 14), so j = p(B).bit_length() - 1
    <= log2 p(B) < c sqrt(B) with c = pi sqrt(2/3) / ln 2, c^2 = 13.69...
    < 13.7.  The integer j^2 is then below 137 B / 10, so at most
    137 B // 10, and j <= isqrt(137 B // 10); p(0) = 1 meets that bound
    too.  So `_slot_width` is isqrt(137 B // 10) + 2.
    """
    width = _slot_width(boxes)
    base = [r * r % n for r in range(n)]
    slots = [(boxes - b) // n + 1 for b in base]
    top = [k * width for k in slots]
    live = range(min(n, boxes + 1))
    halves: list[list[int]] = [[] for _ in range(n)]  # d -> states r with 2r = d mod n
    for r in live:
        halves[2 * r % n].append(r)
    moves = []  # moves[rho]: (r, f, to, fixed) for a part of residue rho
    for rho in live:
        least = rho or n
        row = []
        for f in range(1, min(n, boxes // least + 1)):
            for r in halves[(rho - f) % n]:
                if base[r] + least * f <= boxes:
                    to = (r + f) % n
                    row.append((r, f, to, (base[r] + rho * f - base[to]) // n))
        moves.append(row)
    states = [1] + [0] * (n - 1)
    for part in range(boxes, 0, -1):
        P, rho = divmod(part, n)
        src = states[:]  # read before this part's moves
        for r, f, to, fixed in moves[rho]:
            poly = src[r]
            if poly:
                shift = (P * f + fixed) * width
                room = top[to] - shift
                if room > 0:
                    if poly.bit_length() > room:
                        poly &= (1 << room) - 1
                    states[to] += poly << shift
    for r in range(n // 2 + 1, n):
        states[n - r] += states[r]
    return tuple(_unpack(states[i], width, slots[i]) for i in range(n // 2 + 1))


def _unpack(poly: int, width: int, slots: int) -> tuple[int, ...]:
    """The `slots` nonnegative `width`-bit counts packed in `poly`, low slot
    first.  Raises when a bit lies above the last slot or a slot reached its
    top bit: counts only grow, so a slot carries into the next only after
    reaching it.  The integer is halved down to leaves of 16 slots, so the
    decode stays subquadratic; one shift per slot would copy it every time.
    This decoder is the chain counter's own; the series layer has another."""
    if poly >> width * slots:
        raise OverflowError("packed counts exceed their slots")
    mask = (1 << width) - 1
    counts: list[int] = []

    def split(v: int, k: int) -> None:
        if k <= 16:
            counts.extend([v >> s & mask for s in range(0, width * k, width)])
            return
        low = k // 2
        split(v & ((1 << width * low) - 1), low)
        split(v >> width * low, k - low)

    split(poly, slots)
    if max(counts, default=0) >> width - 1:
        raise OverflowError("packed counts exceed their slots")
    return tuple(counts)


_TABLE_CACHE_SIZE = 8
_tables: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}


def _table_for(n: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Cached `_count_table` rows for modulus n covering `boxes`.

    The cache maps n to (size, rows).  A too-small table is rebuilt at the
    size asked, rounded up to a box count congruent to (n // 2)^2 mod n,
    which completes the highest component's last entry, so a `gf_comb`
    request at that size reuses the table.  The cache keeps the most
    recently used moduli.
    """
    size, table = _tables.pop(n, (-1, ()))
    if size < boxes:
        size = boxes + ((n // 2) ** 2 - boxes) % n
        table = _count_table(n, size)
    _tables[n] = size, table
    while len(_tables) > _TABLE_CACHE_SIZE:
        del _tables[next(iter(_tables))]
    return table


def count_by_component(n: int, boxes: int) -> tuple[int, ...]:
    """Chain-shape counts at one box count, indexed by component index."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if boxes < 0:
        return (0,) * (n // 2 + 1)
    rows = _table_for(n, boxes)
    return tuple(0 if (boxes - i * i) % n else row[boxes // n] for i, row in enumerate(rows))


def count_maximal_shapes(n: int, boxes: int) -> int:
    """Total number of chain shapes with the given box count (0 if negative)."""
    return sum(count_by_component(n, boxes))


def gf_comb(i: int, n: int, order: int) -> QSeries:
    """Multiplicity generating function from enumeration:
    coefficient of q^m is the count at i^2 + m*n boxes in component i."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if not 0 <= i <= n // 2:
        raise ValueError(f"component index {i} out of range for n={n}")
    if order < 1:
        raise ValueError("order must be at least 1")
    # Size for the highest component so every component at this order
    # shares one table.
    row = _table_for(n, (n // 2) ** 2 + (order - 1) * n)[i]
    return QSeries.from_coeffs(list(row[i * i // n : i * i // n + order]), order)


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


def coefficient_matrix(n: int, order: int) -> tuple[tuple[QSeries, ...], ...]:
    """The linear system's coefficient matrix at the given order, as a tuple
    of rows, for any n >= 2; the solve asks whether it is proven for n.

    Row j collects the blocks whose exponents lie in the class of j^2;
    every assembled entry must come out with nonnegative valuation.
    """
    if n < 2:
        raise ValueError("modulus n must be at least 2")
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


def theta_solution(n: int, order: int, conjecture: bool = False) -> tuple[QSeries, ...]:
    """Every component's generating function from one theta-matrix solve,
    indexed by component.  Without `conjecture`, a modulus outside the
    proven branches raises `UnsupportedModulusError` before anything is
    assembled; `conjecture` changes nothing else, so the cached solve is
    keyed on (n, order) alone."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if not (conjecture or theta_branch(n)[1]):
        raise UnsupportedModulusError(
            f"matrix construction for n={n} is conjectural; pass conjecture=True to build it"
        )
    return _theta_solve(n, order)


@functools.lru_cache(maxsize=8)
def _theta_solve(n: int, order: int) -> tuple[QSeries, ...]:
    """Solve the theta-matrix system for every component at once.

    Row j of the matrix has valuation floor(j^2 / n), and dividing each
    row by that power leaves a matrix whose determinant is a unit.  So the
    matrix is built once at the order of its deepest row, every row is
    shifted down to the requested order, and Cramer's rule runs on the
    rescaled system with exact division: B_i is the Euler product times
    the i-th cofactor along row 0, times the inverse determinant.  Row 0
    is never rescaled, so the solution is that of the original system.
    One determinant, one inverse and one row of cofactors serve every
    component, from one Laplace expansion: `qs.det` is the row-0 sum over
    the cofactors, which `qs.cofactors` then returns from its cache.  The
    rescaled determinant is observed, not proven, to be phi(q)^ceil(n/2),
    times phi(q^2) for even n; `QSeries.invert` picks its own method for
    it.  A row entry below its row's power of q, or a rescaled determinant
    without constant term +-1, raises `NonUnitDeterminantError`; no n in
    2..41, conjectured moduli included, does.
    """
    matrix = coefficient_matrix(n, order + (n // 2) ** 2 // n)
    rescaled = []
    for j, row in enumerate(matrix):
        power = j * j // n
        if any(not entry.is_zero and entry.lowest < power for entry in row):
            raise NonUnitDeterminantError(f"row {j} for n={n} is not divisible by q^{power}")
        rescaled.append([entry.shift(-power).truncate(order) for entry in row])
    determinant = qs.det(rescaled)
    if determinant.is_zero or determinant.lowest != 0 or determinant.coeffs[0] not in (1, -1):
        raise NonUnitDeterminantError(
            f"rescaled determinant for n={n} is not a unit; cannot divide exactly"
        )
    scale = qs.euler_phi(order) * determinant.invert()
    return tuple(scale * cofactor for cofactor in qs.cofactors(rescaled))


def gf_theta(i: int, n: int, order: int, conjecture: bool = False) -> QSeries:
    """Multiplicity generating function from the theta-matrix route:
    component i of `theta_solution`."""
    if not 0 <= i <= n // 2:
        raise ValueError(f"component index {i} out of range for n={n}")
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

