"""Raising and lowering operators on n-regular colored diagrams.

A column of a diagram is removable for color i when its bottom cell has
color i and deleting that cell leaves a valid diagram shape; it is
admissible for color i when a cell of color i can be appended at its
bottom (possibly starting a new row, or the first cell of the column one
past the widest row) and the result is a valid shape.  Shape validity
alone decides admissibility and removability; regularity of the ambient
crystal is a property of the vertices, not of the signature rule.

Only corners of the diagram contribute.  A block of f rows of equal
length l has one removable cell, at the end of its last row (column l),
and one admissible cell, just past the end of its first row (column
l + 1); a new row below the diagram is admissible at column 1.  Read
block by block from the top, these symbols already run right to left,
so a signature costs O(distinct parts), not O(width).

The i-signature records one symbol per contributing column, columns read
right to left: "+" for admissible, "-" for removable; where a column has
both, the "-" comes first.  Canceling every adjacent "+-" pair leaves a
word of the form "-...-+...+".  The raising operator removes the box of
the last surviving "-" (the minus on the smallest column); the lowering
operator adds a box at the first surviving "+" (the plus on the largest
column); one box move serves both.  A color that owns no removable
corner has no "-" to survive, so its epsilon is 0 and the maximality
oracle reduces only the colors of the removable corners.
"""

from dataclasses import dataclass

from .young import Partition, is_n_regular

__all__ = [
    "SignatureEntry",
    "Signature",
    "i_signature",
    "e_tilde",
    "f_tilde",
    "epsilon",
    "phi",
    "is_maximal_second_factor",
    "is_maximal_structural",
]

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class SignatureEntry:
    column: int
    sign: str
    row: int  # row of the box that would be removed (-) or added (+)


@dataclass(frozen=True)
class Signature:
    """Signature entries in column-descending (right-to-left) order."""

    entries: tuple[SignatureEntry, ...]

    def word(self) -> str:
        return "".join(e.sign for e in self.entries)

    def reduced(self) -> "Signature":
        """Cancel adjacent "+-" pairs until none remain."""
        stack: list[SignatureEntry] = []
        for e in self.entries:
            if e.sign == MINUS and stack and stack[-1].sign == PLUS:
                stack.pop()
            else:
                stack.append(e)
        return Signature(tuple(stack))


def _require_crystal_vertex(p: Partition, n: int) -> None:
    if not is_n_regular(p, n):
        raise ValueError(f"diagram {p} is not {n}-regular")


def _corners(p: Partition):
    """(column, sign, row) of every removable and admissible cell, right to left."""
    row = 0
    for part, mult in p.pairs:
        yield part + 1, PLUS, row + 1
        row += mult
        yield part, MINUS, row
    yield 1, PLUS, row + 1


def i_signature(p: Partition, n: int, i: int) -> Signature:
    """Signature of color i, one entry per contributing column."""
    _require_crystal_vertex(p, n)
    if not 0 <= i < n:
        raise ValueError("color index out of range")
    return Signature(
        tuple(SignatureEntry(col, sign, row) for col, sign, row in _corners(p) if (col - row) % n == i)
    )


def _moved(p: Partition, entry: SignatureEntry, step: int) -> Partition:
    """p with `step` (+1 or -1) boxes at the end of `entry.row`; the
    trailing 0 is the new row that a plus below the diagram fills."""
    rows = [*p.parts, 0]
    rows[entry.row - 1] += step
    return Partition.from_parts(r for r in rows if r > 0)


def e_tilde(p: Partition, n: int, i: int) -> Partition | None:
    """Remove the box of the last surviving minus, or None if there is none."""
    minuses = [e for e in i_signature(p, n, i).reduced().entries if e.sign == MINUS]
    return _moved(p, minuses[-1], -1) if minuses else None


def f_tilde(p: Partition, n: int, i: int) -> Partition | None:
    """Add a box at the first surviving plus, or None if there is none."""
    pluses = [e for e in i_signature(p, n, i).reduced().entries if e.sign == PLUS]
    return _moved(p, pluses[0], 1) if pluses else None


def epsilon(p: Partition, n: int, i: int) -> int:
    """Number of minus signs in the reduced i-signature."""
    return sum(1 for e in i_signature(p, n, i).reduced().entries if e.sign == MINUS)


def phi(p: Partition, n: int, i: int) -> int:
    """Number of plus signs in the reduced i-signature."""
    return sum(1 for e in i_signature(p, n, i).reduced().entries if e.sign == PLUS)


def is_maximal_second_factor(p: Partition, n: int) -> bool:
    """True when epsilon_0 <= 1 and epsilon_i = 0 for every other color.

    This is the condition for (null diagram) (x) p to be killed by every
    raising operator of the tensor-square crystal.
    """
    _require_crystal_vertex(p, n)
    # Right to left: no plus cancels the rightmost minus, so its color goes first.
    colors = dict.fromkeys((col - row) % n for col, sign, row in _corners(p) if sign == MINUS)
    return all(epsilon(p, n, i) <= (i == 0) for i in colors)


def is_maximal_structural(p: Partition, n: int) -> bool:
    """Structural reformulation of maximality, used as a cross-check.

    Conditions: the first removable column from the right is 0-removable,
    and the m-th admissible column (from the right) has the same color as
    the (m+1)-st removable column whenever the latter exists.
    """
    _require_crystal_vertex(p, n)
    removable: list[int] = []
    admissible: list[int] = []
    for col, sign, row in _corners(p):
        (removable if sign == MINUS else admissible).append((col - row) % n)
    if removable and removable[0] != 0:
        return False
    return all(a == r for a, r in zip(admissible, removable[1:]))
