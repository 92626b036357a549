"""Affine weight-lattice arithmetic and component classification.

Weights live in the lattice spanned by the fundamental weights L_0..L_{n-1}
and the null root delta; every weight is stored with its coefficients in
that basis.  A diagram's weight subtracts one simple root per cell, each
written out in that basis, so no root is ever stored.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .young import Partition, color_counts, is_maximal_shape

__all__ = [
    "WeightVector",
    "ComponentLabel",
    "fundamental_weight",
    "weight_of",
    "classify_maximal",
    "closed_form_component_index",
]


@dataclass(frozen=True)
class WeightVector:
    """Integer vector over (L_0, ..., L_{n-1}, delta)."""

    lam: tuple[int, ...]
    delta: int = 0

    @property
    def n(self) -> int:
        return len(self.lam)

    def _check(self, other: "WeightVector") -> None:
        if self.n != other.n:
            raise ValueError("weight vectors have different rank")

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(
            tuple(a + b for a, b in zip(self.lam, other.lam)), self.delta + other.delta
        )


class ComponentLabel(NamedTuple):
    """Label (i, k) of the component with highest weight L_i + L_{n-i} - k*delta."""

    i: int
    k: int


def fundamental_weight(i: int, n: int) -> WeightVector:
    lam = [0] * n
    lam[i % n] = 1
    return WeightVector(tuple(lam))


def weight_of(p: Partition, n: int) -> WeightVector:
    """L_0 minus one simple root per cell, grouped by cell color.

    With c_t cells of color t this is L_0 - sum_t c_t alpha_t, where
    alpha_t = 2 L_t - L_{t-1} - L_{t+1} + [t = 0] delta, indices mod n:
    L_t loses 2 c_t, L_{t-1} and L_{t+1} gain c_t, and delta = -c_0
    because alpha_0 alone carries delta.
    """
    counts = color_counts(p, n)  # rejects n < 2 before it indexes anything
    lam = [0] * n
    lam[0] = 1
    for t, count in enumerate(counts):
        if count:
            lam[t] -= 2 * count
            lam[t - 1] += count
            lam[(t + 1) % n] += count
    return WeightVector(tuple(lam), -counts[0])


def classify_maximal(p: Partition, n: int) -> ComponentLabel:
    """Component label of a chain-family member.

    The member sits in the second factor of V(L_0) (x) V(L_0), so its
    vertex has weight L_0 + weight_of(p).  That weight must be
    L_i + L_{n-i} - k delta for some 0 <= i <= n/2, and the box count must
    then satisfy boxes = i^2 + (k - i) n with k >= i; violations raise.
    Since `weight_of` sets delta = -c_0, k is the number of color-0 cells.
    """
    if not is_maximal_shape(p, n):
        raise ValueError(f"{p} is not a chain-family member for n={n}")
    w = fundamental_weight(0, n) + weight_of(p, n)
    # w has level 2, so some coefficient is nonzero; the first one is i.
    i = next(t for t, c in enumerate(w.lam) if c)
    if w.lam != (fundamental_weight(i, n) + fundamental_weight(-i, n)).lam:
        raise ValueError(f"weight of {p} is not of component form: {w}")
    label = ComponentLabel(i, -w.delta)
    if label.k < i or p.boxes != i**2 + (label.k - i) * n:
        raise ValueError(f"inconsistent classification for {p}: {label}")
    return label


def closed_form_component_index(p: Partition, n: int) -> int:
    """Component index from the last pair alone.

    For a nonempty member with l distinct parts this is
    min((l_last - s_{l-1}) mod n, (-s_l) mod n), where s_t counts the rows
    of the first t distinct parts.  It must agree with classify_maximal.
    """
    if not p.pairs:
        raise ValueError("the null partition has no closed-form index")
    if not is_maximal_shape(p, n):
        raise ValueError(f"{p} is not a chain-family member for n={n}")
    last_part, last_mult = p.pairs[-1]
    s_full = p.num_rows
    s_before = s_full - last_mult
    return min((last_part - s_before) % n, (-s_full) % n)
