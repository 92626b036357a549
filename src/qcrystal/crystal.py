"""Raising and lowering operators on n-regular charge-0 colored diagrams.

A column of a diagram is removable for color i when its bottom cell has
color i and deleting that cell leaves a valid diagram shape; it is
admissible for color i when a cell of color i can be appended at its
bottom (possibly starting a new row, or the first cell of the column one
past the widest row) and the result is a valid shape.  Shape validity
alone decides admissibility and removability; regularity of the ambient
crystal is a property of the vertices, not of the signature rule.

The i-signature records one symbol per contributing column, columns read
right to left: "+" for admissible, "-" for removable.  Canceling every
adjacent "+-" pair leaves a word of the form "-...-+...+".  The raising
operator removes the box of the last surviving "-" (the minus on the
smallest column); the lowering operator adds a box at the first surviving
"+" (the plus on the largest column).
"""

from bisect import bisect_left
from dataclasses import dataclass

from .young import ColoredDiagram, Partition, is_n_regular

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


def _require_crystal_vertex(d: ColoredDiagram) -> None:
    if d.charge != 0:
        raise ValueError("crystal operators are defined on charge-0 diagrams")
    if not is_n_regular(d.shape, d.n):
        raise ValueError(f"diagram {d.shape} is not {d.n}-regular")


def _column_height(rows_ascending: tuple[int, ...], col: int) -> int:
    """Number of rows of length >= col; rows_ascending is sorted ascending."""
    return len(rows_ascending) - bisect_left(rows_ascending, col)


def i_signature(d: ColoredDiagram, i: int) -> Signature:
    """Signature of color i, one entry per contributing column."""
    _require_crystal_vertex(d)
    if not 0 <= i < d.n:
        raise ValueError("color index out of range")
    rows = d.shape.parts
    rows_asc = rows[::-1]
    n = d.n
    width = rows[0] if rows else 0
    entries: list[SignatureEntry] = []
    for col in range(width + 1, 0, -1):
        h = _column_height(rows_asc, col)
        # Removable: bottom cell of the column is a corner of the shape.
        if h >= 1 and rows[h - 1] == col and (col - h) % n == i:
            entries.append(SignatureEntry(col, MINUS, h))
        # Admissible: the row below the column's bottom ends at col - 1.
        below = rows[h] if h < len(rows) else 0
        if below == col - 1 and (col - (h + 1)) % n == i:
            entries.append(SignatureEntry(col, PLUS, h + 1))
    return Signature(tuple(entries))


def _apply_remove(d: ColoredDiagram, entry: SignatureEntry) -> ColoredDiagram:
    rows = list(d.shape.parts)
    rows[entry.row - 1] -= 1
    return ColoredDiagram(Partition.from_parts(r for r in rows if r > 0), d.n, 0)


def _apply_add(d: ColoredDiagram, entry: SignatureEntry) -> ColoredDiagram:
    rows = list(d.shape.parts)
    if entry.row <= len(rows):
        rows[entry.row - 1] += 1
    else:
        rows.append(1)
    return ColoredDiagram(Partition.from_parts(rows), d.n, 0)


def e_tilde(d: ColoredDiagram, i: int) -> ColoredDiagram | None:
    """Remove the box of the last surviving minus, or None if there is none."""
    reduced = i_signature(d, i).reduced()
    minuses = [e for e in reduced.entries if e.sign == MINUS]
    if not minuses:
        return None
    return _apply_remove(d, minuses[-1])


def f_tilde(d: ColoredDiagram, i: int) -> ColoredDiagram | None:
    """Add a box at the first surviving plus, or None if there is none."""
    reduced = i_signature(d, i).reduced()
    pluses = [e for e in reduced.entries if e.sign == PLUS]
    if not pluses:
        return None
    return _apply_add(d, pluses[0])


def epsilon(d: ColoredDiagram, i: int) -> int:
    """Number of minus signs in the reduced i-signature."""
    return sum(1 for e in i_signature(d, i).reduced().entries if e.sign == MINUS)


def phi(d: ColoredDiagram, i: int) -> int:
    """Number of plus signs in the reduced i-signature."""
    return sum(1 for e in i_signature(d, i).reduced().entries if e.sign == PLUS)


def is_maximal_second_factor(d: ColoredDiagram) -> bool:
    """True when epsilon_0 <= 1 and epsilon_i = 0 for every other color.

    This is the condition for (null diagram) (x) d to be killed by every
    raising operator of the tensor-square crystal.
    """
    _require_crystal_vertex(d)
    for i in range(d.n):
        if epsilon(d, i) > (1 if i == 0 else 0):
            return False
    return True


def is_maximal_structural(d: ColoredDiagram) -> bool:
    """Structural reformulation of maximality, used as a cross-check.

    Conditions: the first removable column from the right is 0-removable,
    and the m-th admissible column (from the right) has the same color as
    the (m+1)-st removable column whenever the latter exists.
    """
    _require_crystal_vertex(d)
    rows = d.shape.parts
    rows_asc = rows[::-1]
    n = d.n
    width = rows[0] if rows else 0
    removable_colors: list[int] = []
    admissible_colors: list[int] = []
    for col in range(width + 1, 0, -1):
        h = _column_height(rows_asc, col)
        if h >= 1 and rows[h - 1] == col:
            removable_colors.append((col - h) % n)
        below = rows[h] if h < len(rows) else 0
        if below == col - 1:
            admissible_colors.append((col - (h + 1)) % n)
    if removable_colors and removable_colors[0] != 0:
        return False
    for m, color in enumerate(admissible_colors):
        if m + 1 < len(removable_colors) and removable_colors[m + 1] != color:
            return False
    return True
