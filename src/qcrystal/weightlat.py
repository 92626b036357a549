"""Affine weight-lattice arithmetic and component classification.

Weights live in the lattice spanned by the fundamental weights L_0..L_{n-1}
and the null root delta; every weight is stored with its coefficients in
that basis.  Simple roots are expanded on construction, so root bookkeeping
never leaks out of this module.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .young import Partition, color_counts, is_maximal_shape

__all__ = [
    "WeightVector",
    "ComponentLabel",
    "fundamental_weight",
    "simple_root",
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

    @property
    def level(self) -> int:
        """Value on the central element: the sum of the L-coefficients."""
        return sum(self.lam)

    def pairing(self, j: int) -> int:
        """Evaluation against the coroot h_j (delta pairs to zero)."""
        return self.lam[j % self.n]

    def _check(self, other: "WeightVector") -> None:
        if self.n != other.n:
            raise ValueError("weight vectors have different rank")

    def __add__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(
            tuple(a + b for a, b in zip(self.lam, other.lam)), self.delta + other.delta
        )

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        self._check(other)
        return WeightVector(
            tuple(a - b for a, b in zip(self.lam, other.lam)), self.delta - other.delta
        )

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple(-a for a in self.lam), -self.delta)

    def __rmul__(self, c: int) -> "WeightVector":
        return WeightVector(tuple(c * a for a in self.lam), c * self.delta)


class ComponentLabel(NamedTuple):
    """Label (i, k) of the component with highest weight L_i + L_{n-i} - k*delta."""

    i: int
    k: int


def fundamental_weight(i: int, n: int) -> WeightVector:
    lam = [0] * n
    lam[i % n] = 1
    return WeightVector(tuple(lam))


def simple_root(i: int, n: int) -> WeightVector:
    """alpha_i = 2 L_i - L_{i-1} - L_{i+1} + [i = 0] delta, indices mod n."""
    if not 0 <= i < n:
        raise ValueError("root index out of range")
    lam = [0] * n
    lam[i] += 2
    lam[(i - 1) % n] -= 1
    lam[(i + 1) % n] -= 1
    return WeightVector(tuple(lam), 1 if i == 0 else 0)


def weight_of(p: Partition, n: int) -> WeightVector:
    """L_0 minus one simple root per cell, grouped by cell color."""
    counts = color_counts(p, n)  # rejects n < 2 before it indexes anything
    w = fundamental_weight(0, n)
    for t, count in enumerate(counts):
        if count:
            w = w - count * simple_root(t, n)
    return w


def classify_maximal(p: Partition, n: int) -> ComponentLabel:
    """Component label of a chain-family member, from its color counts.

    Computes 2 L_0 minus the colored-box root sum and matches it against
    L_i + L_{n-i} - k delta.  The box count must satisfy
    boxes = i^2 + (k - i) n with k >= i; violations raise.  The weight is
    a plain list of L-coefficients plus a delta integer, with each simple
    root written out as in simple_root:
    alpha_t = 2 L_t - L_{t-1} - L_{t+1} + [t = 0] delta.
    """
    if not is_maximal_shape(p, n):
        raise ValueError(f"{p} is not a chain-family member for n={n}")
    counts = color_counts(p, n)
    lam = [0] * n
    lam[0] = 2
    delta = -counts[0]  # alpha_0 is the only simple root carrying delta
    for t, count in enumerate(counts):
        if count:
            lam[t] -= 2 * count
            lam[t - 1] += count
            lam[(t + 1) % n] += count
    k = -delta
    label = None
    for i in range(n // 2 + 1):
        expected = [0] * n
        expected[i] += 1
        expected[-i] += 1
        if lam == expected:
            label = ComponentLabel(i, k)
            break
    if label is None:
        w = WeightVector(tuple(lam), delta)
        raise ValueError(f"weight of {p} is not of component form: {w}")
    if k < label.i or p.boxes != label.i**2 + (k - label.i) * n:
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
