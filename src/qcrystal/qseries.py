"""Exact truncated Laurent series over Python integers.

A series knows its coefficients for every exponent in [lowest, order) and
nothing beyond; `order` is the truncation bound, fixed per computation.
Coefficients are exact arbitrary-precision integers throughout: no floats,
no modular shortcuts.

The canonical form has a nonzero leading coefficient (the zero series is
stored as lowest=0 with no coefficients), which makes structural equality
of the dataclass coincide with coefficient-wise equality at equal order.

Products pick their algorithm by density: a factor with few nonzero
coefficients (a theta series) is multiplied term by term, skipping zeros;
two dense factors are packed into one big integer each (Kronecker
substitution) with slots wide enough for a proven coefficient bound.

Products are exact: when a factor has negative valuation, coefficients of
the product near the truncation bound would need tail data that a
truncated factor does not carry, so multiplication lowers the bound of
the result accordingly instead of fabricating those coefficients.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from math import isqrt
from operator import add, neg, sub

__all__ = [
    "QSeries",
    "OrderMismatchError",
    "NonUnitConstantError",
    "euler_phi",
    "theta_f",
    "theta_g",
    "triple_product_f",
    "triple_product_g",
    "restricted_partition_gf",
    "det",
    "cofactors",
    "first_difference",
]


# A product whose sparser factor has fewer nonzero coefficients than this
# (a theta series against a dense one, say) runs the zero-skipping loop;
# denser products are packed into one big integer per factor.
SPARSE_MUL_LIMIT = 32


class OrderMismatchError(ValueError):
    """Arithmetic between series with different truncation orders."""


class NonUnitConstantError(ValueError):
    """Inversion of a series whose constant term is not a unit."""


@dataclass(frozen=True)
class QSeries:
    lowest: int
    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.coeffs:
            if self.coeffs[0] == 0:
                raise ValueError("leading coefficient must be nonzero")
            if self.lowest + len(self.coeffs) != self.order:
                raise ValueError("coefficient window must span [lowest, order)")
        elif self.lowest != 0:
            raise ValueError("the zero series has lowest = 0")

    # -- construction -----------------------------------------------------

    @staticmethod
    def _new(lowest: int, raw: list[int], order: int) -> "QSeries":
        """Normalize a dense window starting at `lowest` (may exceed order)."""
        del raw[max(0, order - lowest):]
        lead = 0
        while lead < len(raw) and raw[lead] == 0:
            lead += 1
        if lead == len(raw):
            return QSeries(0, (), order)
        if lead:
            del raw[:lead]
        return QSeries(lowest + lead, tuple(raw), order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(0, (), order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, coeff: int, exponent: int, order: int) -> "QSeries":
        if coeff == 0 or exponent >= order:
            return cls.zero(order)
        window = [coeff] + [0] * (order - exponent - 1)
        return cls(exponent, tuple(window), order)

    @classmethod
    def from_coeffs(cls, coeffs, order: int, lowest: int = 0) -> "QSeries":
        raw = list(coeffs)
        if lowest + len(raw) > order:
            raise ValueError("coefficients extend past the truncation order")
        raw += [0] * (order - lowest - len(raw))
        return cls._new(lowest, raw, order)

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int) -> int:
        """Coefficient at an exponent below the truncation order."""
        if exponent >= self.order:
            raise ValueError(f"exponent {exponent} is beyond truncation order {self.order}")
        if exponent < self.lowest or not self.coeffs:
            return 0
        return self.coeffs[exponent - self.lowest]

    def coefficient_list(self) -> list[int]:
        """Dense coefficients for exponents 0..order-1."""
        return [self.coeff(e) for e in range(self.order)]

    def __str__(self) -> str:
        if self.is_zero:
            return f"0 + O(q^{self.order})"
        terms = []
        for idx, c in enumerate(self.coeffs):
            if c == 0 or len(terms) >= 8:
                continue
            e = self.lowest + idx
            term = str(c) if e == 0 else (f"{c}*q^{e}" if e != 1 else f"{c}*q")
            terms.append(term)
        body = " + ".join(terms).replace("+ -", "- ")
        return f"{body} + ... + O(q^{self.order})"

    def _check_order(self, other: "QSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} != {other.order}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, add)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, sub)

    def _combine(self, other: "QSeries", op) -> "QSeries":
        self._check_order(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other if op is add else -other
        lo = min(self.lowest, other.lowest)
        # Both coefficient windows run up to the order, so each fills the
        # tail of the output from its own lowest exponent on.
        out = [0] * (self.order - lo)
        out[self.lowest - lo:] = self.coeffs
        base = other.lowest - lo
        out[base:] = map(op, out[base:], other.coeffs)
        return QSeries._new(lo, out, self.order)

    def __neg__(self) -> "QSeries":
        return QSeries(self.lowest, tuple(map(neg, self.coeffs)), self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_order(other)
        bound = self.order + min(0, self.lowest, other.lowest)
        if self.is_zero or other.is_zero:
            return QSeries.zero(bound)
        lo = self.lowest + other.lowest
        width = bound - lo
        if width <= 0:
            return QSeries.zero(bound)
        a, b = self.coeffs[:width], other.coeffs[:width]
        nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
        if min(nonzero_a, nonzero_b) < SPARSE_MUL_LIMIT:
            if nonzero_b < nonzero_a:
                a, b = b, a
            out = _sparse_product(a, b, width)
        else:
            out = _packed_product(a, b, width)
        return QSeries._new(lo, out, bound)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, k: int) -> "QSeries":
        if k < 0:
            raise ValueError("negative powers are not supported; invert first")
        result = QSeries.one(self.order)
        for _ in range(k):
            result = result * self
        return result

    def scaled(self, c: int) -> "QSeries":
        if c == 0:
            return QSeries.zero(self.order)
        if self.is_zero:
            return self
        return QSeries(self.lowest, tuple(c * a for a in self.coeffs), self.order)

    def shift(self, m: int) -> "QSeries":
        """Multiply by q^m; exact, the truncation bound moves with it."""
        if self.is_zero:
            return QSeries.zero(self.order + m)
        return QSeries(self.lowest + m, self.coeffs, self.order + m)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if self.is_zero or order <= self.lowest:
            return QSeries.zero(order)
        return QSeries(self.lowest, self.coeffs[: order - self.lowest], order)

    def invert(self) -> "QSeries":
        """Inverse of a series with constant term +-1 and lowest = 0."""
        if self.is_zero or self.lowest != 0 or self.coeffs[0] not in (1, -1):
            raise NonUnitConstantError("inversion needs lowest = 0 and constant term +-1")
        c0 = self.coeffs[0]
        a = self.coeffs
        out = [0] * (self.order)
        out[0] = c0  # 1/c0 == c0 for units
        support = [j for j in range(1, len(a)) if a[j]]
        for e in range(1, self.order):
            acc = 0
            for j in support:
                if j > e:
                    break
                acc += a[j] * out[e - j]
            if acc:
                out[e] = -c0 * acc
        return QSeries._new(0, out, self.order)

    # -- exponent substitutions -------------------------------------------

    def expand(self, k: int) -> "QSeries":
        """Substitute q -> q^k; the truncation bound scales to k * order."""
        if k < 1:
            raise ValueError("expansion factor must be positive")
        if self.is_zero:
            return QSeries.zero(self.order * k)
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for idx, c in enumerate(self.coeffs):
            out[idx * k] = c
        return QSeries.from_coeffs(out, self.order * k, self.lowest * k)

    def contract(self, k: int) -> "QSeries":
        """Substitute q^k -> q; every retained exponent must be divisible by k."""
        if k < 1:
            raise ValueError("contraction factor must be positive")
        new_order = -(-self.order // k)
        if self.is_zero:
            return QSeries.zero(new_order)
        for idx, c in enumerate(self.coeffs):
            if c and (self.lowest + idx) % k != 0:
                raise ValueError(
                    f"exponent {self.lowest + idx} is not divisible by {k}"
                )
        return QSeries._new(self.lowest // k, list(self.coeffs[::k]), new_order)


def _sparse_product(sparse, dense, width: int) -> list[int]:
    """The first `width` coefficients of a product, one pass over the
    dense factor for each nonzero coefficient of the sparse one."""
    out = [0] * width
    for i, c in enumerate(sparse):
        if not c:
            continue
        seg = dense[: width - i]
        end = i + len(seg)
        if c == 1:
            out[i:end] = map(add, out[i:end], seg)
        elif c == -1:
            out[i:end] = map(sub, out[i:end], seg)
        else:
            out[i:end] = map(add, out[i:end], map(c.__mul__, seg))
    return out


def _packed_product(a, b, width: int) -> list[int]:
    """The first `width` coefficients of a product by Kronecker substitution.

    Each factor becomes one integer with a slot of `nbytes` bytes per
    coefficient, so the product is one big-integer multiply.  No product
    coefficient exceeds max|a| * max|b| * min(len a, len b) in magnitude,
    and the slots are that bound's bit length plus a sign bit wide, so
    adding half a slot's range to every slot of the product leaves each
    slot holding its coefficient plus that bias, with no carry between
    slots.  Factor coefficients are packed the same way, biased and then
    unbiased in one subtraction.
    """
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
    nbytes = (bound.bit_length() + 8) // 8
    bias = 1 << (8 * nbytes - 1)
    biased_slot = bytes(nbytes - 1) + b"\x80"  # `bias` in one slot
    to_slot = partial(int.to_bytes, length=nbytes, byteorder="little")

    def pack(coeffs) -> int:
        raw = b"".join(map(to_slot, map(bias.__add__, coeffs)))
        return int.from_bytes(raw, "little") - int.from_bytes(biased_slot * len(coeffs), "little")

    span = width * nbytes
    product = pack(a) * pack(b) + int.from_bytes(biased_slot * width, "little")
    raw = (product & ((1 << (8 * span)) - 1)).to_bytes(span, "little")
    slots = map(raw.__getitem__, map(slice, range(0, span, nbytes), range(nbytes, span + 1, nbytes)))
    return list(map((-bias).__add__, map(partial(int.from_bytes, byteorder="little"), slots)))


def first_difference(a: QSeries, b: QSeries) -> tuple[int, int, int] | None:
    """First exponent where two same-order series disagree, with both values."""
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} != {b.order}")
    if a == b:  # canonical form: equal coefficients means equal dataclasses
        return None
    lo = min(a.lowest if a.coeffs else a.order, b.lowest if b.coeffs else b.order)
    for e in range(lo, a.order):
        ca, cb = a.coeff(e), b.coeff(e)
        if ca != cb:
            return (e, ca, cb)
    return None


# -- product constructors ------------------------------------------------


def _mul_binomial_inplace(window: list[int], exponent: int, sign: int) -> None:
    """Multiply a dense window (lowest 0) by (1 + sign * q^exponent), sign +-1."""
    if exponent < len(window):
        window[exponent:] = map(add if sign > 0 else sub, window[exponent:], window[: len(window) - exponent])


def euler_phi(order: int, stride: int = 1) -> QSeries:
    """Product of (1 - q^(stride * j)) over j >= 1, truncated.

    The eight most recently requested (order, stride) pairs are cached;
    the result is immutable, so callers share it.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if stride < 1:
        raise ValueError("stride must be positive")
    return _euler_phi(order, stride)


@lru_cache(maxsize=8)
def _euler_phi(order: int, stride: int) -> QSeries:
    """The product itself, one binomial at a time."""
    window = [0] * order
    window[0] = 1
    j = 1
    while stride * j < order:
        _mul_binomial_inplace(window, stride * j, -1)
        j += 1
    return QSeries._new(0, window, order)


def restricted_partition_gf(excluded, modulus: int, order: int) -> QSeries:
    """Generating function for partitions avoiding part sizes in the
    given residue classes modulo `modulus`."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    banned = {r % modulus for r in excluded}
    window = [0] * order
    window[0] = 1
    for j in range(1, order):
        if j % modulus in banned:
            continue
        # multiply by 1 / (1 - q^j)
        for x in range(j, order):
            window[x] += window[x - j]
    return QSeries._new(0, window, order)


def _theta(r: int, s: int, order: int, alternating: bool) -> QSeries:
    if r + s <= 0:
        raise ValueError("theta series need r + s > 0")
    # Term exponent at index j is (r+s) j^2 / 2 + (s-r) j / 2, a parabola
    # opening upward, so only finitely many terms fall below the order.
    d = s - r
    jbound = (abs(d) + isqrt(d * d + 8 * (r + s) * max(order, 1))) // (2 * (r + s)) + 2
    acc: dict[int, int] = {}
    for j in range(-jbound, jbound + 1):
        e = (r * j * (j - 1) + s * j * (j + 1)) // 2
        if e < order:
            acc[e] = acc.get(e, 0) + (-1 if (alternating and j % 2) else 1)
    acc = {e: c for e, c in acc.items() if c}
    if not acc:
        return QSeries.zero(order)
    lo = min(acc)
    window = [0] * (order - lo)
    for e, c in acc.items():
        window[e - lo] = c
    return QSeries._new(lo, window, order)


def theta_f(r: int, s: int, order: int) -> QSeries:
    """Bilateral sum of q^(r j(j-1)/2 + s j(j+1)/2), all signs +1."""
    return _theta(r, s, order, alternating=False)


def theta_g(r: int, s: int, order: int) -> QSeries:
    """Bilateral sum of (-1)^j q^(r j(j-1)/2 + s j(j+1)/2)."""
    return _theta(r, s, order, alternating=True)


def _triple_product(r: int, s: int, order: int, sign: int) -> QSeries:
    if r < 0 or s < 0:
        raise ValueError("product form needs nonnegative exponents")
    if r + s <= 0:
        raise ValueError("product form needs r + s > 0")
    if order < 1:
        raise ValueError("order must be at least 1")
    window = [0] * order
    window[0] = 1
    j = 1
    while True:
        exponents = (j * (r + s), (j - 1) * r + j * s, j * r + (j - 1) * s)
        signs = (-1, sign, sign)
        if min(exponents) >= order:
            break
        for e, sg in zip(exponents, signs):
            if e >= order:
                continue
            if e == 0:
                # Degenerate factor (1 + sg): doubles the series or kills it.
                if sg == -1:
                    return QSeries.zero(order)
                window = [2 * c for c in window]
            else:
                _mul_binomial_inplace(window, e, sg)
        j += 1
    return QSeries._new(0, window, order)


def triple_product_f(r: int, s: int, order: int) -> QSeries:
    """Product form (1-q^(j(r+s)))(1+q^((j-1)r+js))(1+q^(jr+(j-1)s)) over j >= 1."""
    return _triple_product(r, s, order, +1)


def triple_product_g(r: int, s: int, order: int) -> QSeries:
    """Product form with minus signs in the two odd factor families."""
    return _triple_product(r, s, order, -1)


# -- determinants ---------------------------------------------------------


def _square_rows(matrix) -> list[list[QSeries]]:
    rows = [list(r) for r in matrix]
    size = len(rows)
    if size == 0:
        raise ValueError("empty matrix")
    if any(len(r) != size for r in rows):
        raise ValueError("matrix must be square")
    order = rows[0][0].order
    for r in rows:
        for entry in r:
            if entry.order != order:
                raise OrderMismatchError("matrix entries must share one truncation order")
    return rows


def _laplace(rows: list[list[QSeries]]):
    """Determinant of the trailing rows restricted to a column tuple.

    Laplace expansion along the top remaining row, memoised on the column
    set, so every minor is computed once: 2^size column sets in all.  The
    expansion keeps each product a (usually sparse) entry times a minor,
    which the sparse product path handles.
    """
    size, order = len(rows), rows[0][0].order
    cache: dict[tuple[int, ...], QSeries] = {(): QSeries.one(order)}

    def minor(cols: tuple[int, ...]) -> QSeries:
        hit = cache.get(cols)
        if hit is not None:
            return hit
        row = rows[size - len(cols)]
        acc = QSeries.zero(order)
        for pos, col in enumerate(cols):
            entry = row[col]
            if entry.is_zero:
                continue
            term = entry * minor(cols[:pos] + cols[pos + 1:])
            acc = acc - term if pos % 2 else acc + term
        cache[cols] = acc
        return acc

    return minor


def det(matrix) -> QSeries:
    """Determinant of a square matrix of same-order series."""
    rows = _square_rows(matrix)
    return _laplace(rows)(tuple(range(len(rows))))


def cofactors(matrix) -> tuple[QSeries, ...]:
    """Cofactors along the first row: (-1)^i times the minor without row 0
    and column i.  They share one memoised expansion of the other rows."""
    rows = _square_rows(matrix)
    minor = _laplace(rows)
    cols = tuple(range(len(rows)))
    out = []
    for i in cols:
        m = minor(cols[:i] + cols[i + 1:])
        out.append(-m if i % 2 else m)
    return tuple(out)
