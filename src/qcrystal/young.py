"""Partitions, colored Young diagrams, and congruence-constrained shapes.

Diagrams use English convention: row 1 on top, column 1 at the left, row
lengths weakly decreasing downward.  The cell in row r, column c carries
color (c - r) mod n; colors increase left to right along a row and
decrease down a column.
"""

import gc
from dataclasses import dataclass
from operator import index

__all__ = [
    "Partition",
    "EMPTY",
    "color_counts",
    "is_n_regular",
    "is_maximal_shape",
    "enumerate_maximal_shapes",
    "maximal_shape_zero_counts",
]


@dataclass(frozen=True, slots=True)
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
            if index(part) < 1 or index(mult) < 1:
                raise ValueError(f"invalid (part, multiplicity) pair ({part}, {mult})")
            if prev is not None and part >= prev:
                raise ValueError("parts must be strictly decreasing")
            prev = part

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        """Normalize a flat iterable of positive parts, given in any order."""
        flat = sorted(map(index, parts), reverse=True)
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

    def __str__(self) -> str:
        if not self.pairs:
            return "()"
        bits = [f"{p}^{f}" if f > 1 else str(p) for p, f in self.pairs]
        return "(" + ",".join(bits) + ")"


EMPTY = Partition()


def color_counts(p: Partition, n: int) -> tuple[int, ...]:
    """Number of cells of each color, indexed by residue 0..n-1."""
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    counts = [0] * n
    rows = 0
    for length, mult in p.pairs:
        # Row r + 1 runs through `length` consecutive colors from -r mod n:
        # `length // n` full cycles, then a tail of `length % n` cells.
        full, tail = divmod(length, n)
        if full:
            for t in range(n):
                counts[t] += full * mult
        for r in range(rows, rows + mult):
            for off in range(tail):
                counts[(off - r) % n] += 1
        rows += mult
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
    in the tensor square of the crystal; the null partition
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


def _zero_tail(length: int, mult: int, rows: int, n: int) -> int:
    """Color-0 cells in `mult` rows of `length` < n cells below `rows` rows.
    Row r (1-based) starts at color (1 - r) mod n, so it has one exactly
    when (r - 1) mod n < length."""
    return sum((rows + j) % n < length for j in range(mult))


# One box count's chain shapes and their color-0 cell counts, as parallel tuples.
_Bucket = tuple[tuple[Partition, ...], tuple[int, ...]]
# (modulus, table) of the latest modulus requested; no modulus is 0.
_shape_cache: tuple[int, tuple[_Bucket, ...]] = (0, ())


def _shape_table(n: int, boxes: int) -> tuple[_Bucket, ...]:
    """Chain shapes of every box count up to `boxes`, with their color-0
    cell counts, one (shapes, zero counts) pair per box count.

    Every prefix of a chain shape is a chain shape, because the conditions
    bind f1 and consecutive pairs only.  One depth-first search from the
    null partition therefore reaches each shape exactly once, as a node,
    and files it under its box count.  Two shapes of one box count first
    differ at a pair whose multiplicity the previous pair forces, so their
    parts differ there; visiting the larger part first lists every bucket
    in descending lexicographic order.

    A node carries its number of color-0 cells.  The `mult` rows of
    length `part` that a node appends below its parent's `rows` rows add
    `part // n` color-0 cells per row, plus a count of color-0 tail cells
    that depends only on (part mod n, mult, rows mod n).  Those counts are
    memoised on first use; a table of all n^3 of them would dwarf the
    search at large n.

    Shapes are built without `Partition`'s validation, which would only
    re-check what the search guarantees: parts come strictly decreasing
    from `range(..., 0, -1)` below the previous part, and a zero
    multiplicity is skipped, so each lies in 1..n-1.  A node with part 1
    or `boxes` cells has no children and is not searched.

    A node makes one object of its own besides its shape: its `pairs`,
    the parent's plus a one-pair tail that is memoised per (part, mult),
    so equal last pairs are one object across the table.  Both memos are
    keyed by one int.  Every shape, pair and tail the search makes stays
    alive in the table, so the cyclic collector is paused meanwhile: its
    passes would free nothing.  `extend` reaches itself through its
    closure, so that cycle is cut before returning; otherwise the search's
    lists, and through them every shape of a table later dropped, would
    wait for a cyclic collection.
    """
    new, set_pairs = object.__new__, Partition.pairs.__set__
    tails: dict[int, tuple[tuple[int, int]]] = {}
    blocks: dict[int, int] = {}
    shapes: list[list[Partition]] = [[] for _ in range(boxes + 1)]
    zeros: list[list[int]] = [[] for _ in range(boxes + 1)]
    shapes[0].append(EMPTY)
    zeros[0].append(0)

    def extend(prefix, top, c, size, rows, c0):
        # c = (last part + its multiplicity) mod n forces the next
        # multiplicity, so the search branches on the next part only.
        phase = rows % n
        for part in range(min(top, boxes - size), 0, -1):
            mult = (part - c) % n
            total = size + part * mult
            if mult == 0 or total > boxes:
                continue
            tail = tails.get(part * n + mult)
            if tail is None:
                tail = tails[part * n + mult] = ((part, mult),)
            pairs = prefix + tail
            key = (part % n * n + mult) * n + phase
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _zero_tail(part % n, mult, phase, n)
            grown = c0 + part // n * mult + block
            shape = new(Partition)
            set_pairs(shape, pairs)
            shapes[total].append(shape)
            zeros[total].append(grown)
            if part > 1 and total < boxes:
                extend(pairs, part - 1, (part + mult) % n, total, rows + mult, grown)

    collecting = gc.isenabled()
    gc.disable()
    try:
        extend((), boxes, 0, 0, 0, 0)
    finally:
        extend = None
        if collecting:
            gc.enable()
    return tuple(zip(map(tuple, shapes), map(tuple, zeros)))


def _shape_bucket(n: int, boxes: int) -> _Bucket:
    """The (shapes, zero counts) pair for one box count, from the cached table
    of modulus n; only the latest modulus's table is kept."""
    global _shape_cache
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    if boxes < 0:
        raise ValueError("box count must be nonnegative")
    held, table = _shape_cache
    if held != n or len(table) <= boxes:
        # Built at exactly the size asked: `multiplicity_table` asks largest
        # first.  Drop the old table first, so two are never held at once.
        table, _shape_cache = (), (0, ())
        _shape_cache = (n, _shape_table(n, boxes))
    return _shape_cache[1][boxes]


def enumerate_maximal_shapes(n: int, boxes: int) -> tuple[Partition, ...]:
    """All chain-family members with the given box count.

    Results are duplicate-free and listed in descending lexicographic
    order of the flattened part list.  Depth-first search over parts with
    forced multiplicities emits exactly that order, so no sort is needed.
    Shapes come from a table of every box count up to the largest
    requested; only the latest modulus's table is kept.
    """
    return _shape_bucket(n, boxes)[0]


def maximal_shape_zero_counts(n: int, boxes: int) -> tuple[int, ...]:
    """Number of color-0 cells of each shape of
    `enumerate_maximal_shapes(n, boxes)`, in the same order."""
    return _shape_bucket(n, boxes)[1]
