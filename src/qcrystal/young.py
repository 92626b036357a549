"""Partitions, colored Young diagrams, and congruence-constrained shapes.

Diagrams use English convention: row 1 on top, column 1 at the left, row
lengths weakly decreasing downward.  The cell in row r, column c of a
diagram of charge t carries color (c - r + t) mod n; colors increase left
to right along a row and decrease down a column.
"""

from dataclasses import dataclass
from math import isqrt

__all__ = [
    "Partition",
    "ColoredDiagram",
    "EMPTY",
    "color_of",
    "color_counts",
    "is_n_regular",
    "is_maximal_shape",
    "enumerate_maximal_shapes",
    "maximal_shape_color_counts",
]


@dataclass(frozen=True)
class Partition:
    """Decreasing integer partition stored as (part, multiplicity) pairs.

    ``pairs = ((l1, f1), ..., (lj, fj))`` encodes the partition with f1
    rows of length l1, then f2 rows of length l2, and so on, with parts
    strictly decreasing.  The empty tuple is the null partition.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for part, mult in self.pairs:
            if part < 1 or mult < 1:
                raise ValueError(f"invalid (part, multiplicity) pair ({part}, {mult})")
            if prev is not None and part >= prev:
                raise ValueError("parts must be strictly decreasing")
            prev = part

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        """Normalize a flat iterable of positive parts, given in any order."""
        flat = sorted((int(p) for p in parts), reverse=True)
        pairs: list[tuple[int, int]] = []
        for p in flat:
            if pairs and pairs[-1][0] == p:
                pairs[-1] = (p, pairs[-1][1] + 1)
            else:
                pairs.append((p, 1))
        return cls(tuple(pairs))

    @property
    def parts(self) -> tuple[int, ...]:
        """Row lengths, weakly decreasing."""
        return tuple(p for p, f in self.pairs for _ in range(f))

    @property
    def boxes(self) -> int:
        return sum(p * f for p, f in self.pairs)

    @property
    def num_rows(self) -> int:
        return sum(f for _, f in self.pairs)

    def prefix_row_counts(self) -> tuple[int, ...]:
        """Partial sums (f1, f1+f2, ...) of the row multiplicities."""
        out: list[int] = []
        total = 0
        for _, f in self.pairs:
            total += f
            out.append(total)
        return tuple(out)

    def __str__(self) -> str:
        if not self.pairs:
            return "()"
        bits = [f"{p}^{f}" if f > 1 else str(p) for p, f in self.pairs]
        return "(" + ",".join(bits) + ")"


EMPTY = Partition()


@dataclass(frozen=True)
class ColoredDiagram:
    """A partition shape together with a modulus n and a charge.

    The charge is the color of the (virtual) cell in row 1, column 1.
    """

    shape: Partition
    n: int
    charge: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("modulus n must be at least 2")
        if not 0 <= self.charge < self.n:
            raise ValueError("charge must be a residue modulo n")

    def rows(self) -> tuple[int, ...]:
        return self.shape.parts

    @property
    def boxes(self) -> int:
        return self.shape.boxes


def color_of(row: int, col: int, charge: int, n: int) -> int:
    """Color of the cell in the given (1-based) row and column."""
    if row < 1 or col < 1:
        raise ValueError("row and column indices are 1-based")
    if n < 2 or not 0 <= charge < n:
        raise ValueError("charge must be a residue modulo n >= 2")
    return (col - row + charge) % n


def _add_row(counts: list[int], length: int, row: int, charge: int) -> None:
    """Add the cells of (1-based) row `row`, `length` long, to `counts`."""
    n = len(counts)
    # Row r is a run of `length` consecutive residues starting at
    # color_of(r, 1): `length // n` full cycles plus a tail.
    full, tail = divmod(length, n)
    if full:
        for t in range(n):
            counts[t] += full
    start = (1 - row + charge) % n
    for off in range(tail):
        counts[(start + off) % n] += 1


def color_counts(d: ColoredDiagram) -> tuple[int, ...]:
    """Number of cells of each color, indexed by residue 0..n-1."""
    counts = [0] * d.n
    row = 0
    for length, mult in d.shape.pairs:
        for _ in range(mult):
            row += 1
            _add_row(counts, length, row, d.charge)
    return tuple(counts)


def is_n_regular(p: Partition, n: int) -> bool:
    """True when no n rows share the same length, i.e. every f_k <= n-1."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    return all(f < n for _, f in p.pairs)


def is_maximal_shape(p: Partition, n: int) -> bool:
    """Membership test for the congruence-chain family of shapes.

    A partition ((l1,f1),...,(lj,fj)) belongs to the family when every
    f_k < n, f1 = l1 (mod n), and f_k + f_{k+1} + l_k - l_{k+1} = 0
    (mod n) for k < j.  These are exactly the shapes of maximal elements
    in the tensor square of the charge-0 crystal; the null partition
    qualifies vacuously.
    """
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    pairs = p.pairs
    if not pairs:
        return True
    if any(f >= n for _, f in pairs):
        return False
    if (pairs[0][0] - pairs[0][1]) % n != 0:
        return False
    for (l1, f1), (l2, f2) in zip(pairs, pairs[1:]):
        if (f1 + f2 + l1 - l2) % n != 0:
            return False
    return True


_SHAPE_CACHE_SIZE = 8
# One box count's chain shapes and their color counts, as parallel tuples.
_Bucket = tuple[tuple[Partition, ...], tuple[tuple[int, ...], ...]]
_shape_tables: dict[int, tuple[_Bucket, ...]] = {}


def _shape_table(n: int, boxes: int) -> tuple[_Bucket, ...]:
    """Chain shapes of every box count up to `boxes`, with their charge-0
    color counts, one (shapes, counts) pair per box count.

    Every prefix of a chain shape is a chain shape, because the conditions
    bind f1 and consecutive pairs only.  One depth-first search from the
    null partition therefore reaches each shape exactly once, as a node,
    and files it under its box count.  Two shapes of one box count first
    differ at a pair whose multiplicity the previous pair forces, so their
    parts differ there; visiting the larger part first lists every bucket
    in descending lexicographic order.  A node's color counts are its
    parent's plus the `mult` rows of length `part` it appends below the
    parent's rows; equal count vectors share one tuple.
    """
    zero = (0,) * n
    vectors = {zero: zero}
    shapes: list[list[Partition]] = [[] for _ in range(boxes + 1)]
    counts: list[list[tuple[int, ...]]] = [[] for _ in range(boxes + 1)]
    shapes[0].append(EMPTY)
    counts[0].append(zero)

    def extend(prefix, top, c, size, rows, vec):
        # c = (last part + its multiplicity) mod n forces the next
        # multiplicity, so the search branches on the next part only.
        for part in range(min(top, boxes - size), 0, -1):
            mult = (part - c) % n
            total = size + part * mult
            if mult == 0 or total > boxes:
                continue
            pairs = prefix + ((part, mult),)
            grown = list(vec)
            for row in range(rows + 1, rows + mult + 1):
                _add_row(grown, part, row, 0)
            grown = tuple(grown)
            grown = vectors.setdefault(grown, grown)
            shapes[total].append(Partition(pairs))
            counts[total].append(grown)
            extend(pairs, part - 1, (part + mult) % n, total, rows + mult, grown)

    extend((), boxes, 0, 0, 0, zero)
    return tuple(zip(map(tuple, shapes), map(tuple, counts)))


def _shape_bucket(n: int, boxes: int) -> _Bucket:
    """The (shapes, counts) pair for one box count, from the cached table
    of modulus n; the eight most recently used moduli are kept."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if boxes < 0:
        raise ValueError("box count must be nonnegative")
    table = _shape_tables.pop(n, None)
    if table is None or len(table) <= boxes:
        # Shape counts grow like exp(c * sqrt(boxes)), so doubling the box
        # count would multiply the table many times over (about 100x from
        # 80 to 160 boxes for n = 2); a step of sqrt(boxes) boxes grows it
        # by under 2x for n = 2, 3, 5 up to 200 boxes.
        built = -1 if table is None else len(table) - 1
        size = max(boxes, built + isqrt(built + 1))
        table = _shape_table(n, size)
    _shape_tables[n] = table
    while len(_shape_tables) > _SHAPE_CACHE_SIZE:
        del _shape_tables[next(iter(_shape_tables))]
    return table[boxes]


def enumerate_maximal_shapes(n: int, boxes: int) -> tuple[Partition, ...]:
    """All chain-family members with the given box count.

    Results are duplicate-free and listed in descending lexicographic
    order of the flattened part list.  Depth-first search over parts with
    forced multiplicities emits exactly that order, so no sort is needed.
    Shapes come from a per-modulus table of every box count up to the
    largest requested; the eight most recently used moduli are kept.
    """
    return _shape_bucket(n, boxes)[0]


def maximal_shape_color_counts(n: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Charge-0 color counts of `enumerate_maximal_shapes(n, boxes)`, in
    the same order; shapes with equal counts share one tuple."""
    return _shape_bucket(n, boxes)[1]
