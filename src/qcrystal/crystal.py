"""Crystal signatures and maximality on n-regular colored diagrams.

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
word of the form "-...-+...+"; epsilon_i counts its minuses.  A color that
owns no removable corner has no "-" to survive, so its epsilon is 0.
`_corners` lists the symbols of every color at once, and both maximality
oracles read that one list.
"""

from .young import Partition, is_n_regular

__all__ = [
    "is_maximal_second_factor",
    "is_maximal_structural",
]

PLUS = "+"
MINUS = "-"


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


def is_maximal_second_factor(p: Partition, n: int) -> bool:
    """True when epsilon_0 <= 1 and epsilon_i = 0 for every other color.

    This is the condition for (null diagram) (x) p to be killed by every
    raising operator of the tensor-square crystal.

    One walk over the corners reduces every color's signature at once: a
    minus cancels a pending plus of its color or survives for good, so the
    first surviving minus of a nonzero color, or the second of color 0,
    decides.  A color without a removable corner only counts its pluses.
    """
    _require_crystal_vertex(p, n)
    pending: dict[int, int] = {}  # color -> pluses not yet cancelled
    zero_survives = False
    for col, sign, row in _corners(p):
        color = (col - row) % n
        if sign == PLUS:
            pending[color] = pending.get(color, 0) + 1
        elif pending.get(color):
            pending[color] -= 1
        elif color or zero_survives:
            return False
        else:
            zero_survives = True
    return True


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
