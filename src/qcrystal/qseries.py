"""Exact truncated Laurent series over Python integers.

A series knows its coefficients for every exponent in [lowest, order) and
nothing beyond; `order` is the truncation bound, fixed per computation.
Coefficients are exact arbitrary-precision integers throughout: no floats,
no modular shortcuts.

The canonical form has a nonzero leading coefficient (the zero series is
stored as lowest=0 with no coefficients), which makes structural equality
of the dataclass coincide with coefficient-wise equality at equal order.

Products pick one of three paths by density.  Two sparse factors (theta
series, say) with few enough term pairs for the window are multiplied one
term pair at a time.  A factor with few nonzero coefficients against a
denser one takes one slice pass over it per term.  Other pairs are packed
into one big integer each (Kronecker substitution) with signed slots one
bit wider than a proven coefficient bound.  Determinants, of matrices
whose entries have valuation >= 0, keep their Laplace minors packed too.

Products are exact: when a factor has negative valuation, coefficients of
the product near the truncation bound would need tail data that a
truncated factor does not carry, so multiplication lowers the bound of
the result accordingly instead of fabricating those coefficients.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
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


# Two factors with fewer than 1/PAIR_MUL_DENSITY of the product window
# nonzero (theta series, say) loop over term pairs when there are fewer
# than PAIR_MUL_LIMIT per window slot, and are packed otherwise.  On 2
# vCPUs, Python 3.11, the pair loop beat slice passes up to about a
# quarter of the window nonzero, and beat packing random 2-bit factors up
# to 13-17 pairs per slot at widths 300-1189, 18-22 at 4000, 27-33 at 10^4.
PAIR_MUL_DENSITY = 4
PAIR_MUL_LIMIT = 16

# Otherwise a product whose sparser factor has SPARSE_MUL_DENSITY times
# fewer nonzero coefficients than the other (a theta series against a
# dense one, say) takes one slice pass per term; other products are
# packed into one big integer per factor.  `_product` applies the rules;
# `QSeries.invert` reads SPARSE_MUL_DENSITY, to pick between its term
# recurrence and Newton steps.
SPARSE_MUL_DENSITY = 6


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
        return [0] * (self.order - len(self.coeffs)) + list(self.coeffs[max(0, -self.lowest) :])

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
        return QSeries._new(lo, _product(self.coeffs[:width], other.coeffs[:width], width), bound)

    def __pow__(self, k: int) -> "QSeries":
        if k < 0:
            raise ValueError("negative powers are not supported; invert first")
        result = QSeries.one(self.order)
        for _ in range(k):
            result = result * self
        return result

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
        """Inverse of a series with constant term +-1 and lowest = 0.

        The term recurrence finds one coefficient per pass over the nonzero
        terms.  A series too dense to be the sparse factor of a product
        leaves it once every known coefficient has fewer bits than their
        count.  From there Newton steps g <- g - g * (a * g - 1) climb the
        targets ..., ceil(N/4), ceil(N/2), N the order, each with two
        products cut to its target and at most doubling the known prefix
        (H. T. Kung, Numer. Math. 22 (1974) 341-348); no step divides, so
        all are exact.  Inverses that grow by a bit or more per exponent
        stay on the recurrence: a packed product sizes every slot for the
        largest coefficient, and there it loses to the narrow terms.
        """
        if self.is_zero or self.lowest != 0 or self.coeffs[0] not in (1, -1):
            raise NonUnitConstantError("inversion needs lowest = 0 and constant term +-1")
        c0 = self.coeffs[0]
        a = self.coeffs
        order = self.order
        support = [j for j in range(1, len(a)) if a[j]]
        nonzero = len(support) + 1
        dense = SPARSE_MUL_DENSITY * nonzero >= order
        out = [c0]  # 1/c0 == c0 for units
        width = 1
        for e in range(1, order):
            if dense and width < e:
                break
            acc = 0
            for j in support:
                if j > e:
                    break
                acc += a[j] * out[e - j]
            out.append(-c0 * acc)
            if dense:
                width = max(width, out[-1].bit_length())
        targets, target = [], order
        while target > len(out):
            targets.append(target)
            target = -(-target // 2)
        for target in reversed(targets):
            known = len(out)
            residual = _product(a[:target], out, target)[known:]
            out += map(neg, _product(out[: target - known], residual, target - known))
        return QSeries._new(0, out, order)

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


def _product(a, b, width: int) -> list[int]:
    """The first `width` coefficients of a product of two coefficient
    sequences, by the path the density rules above pick."""
    nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
    if nonzero_b < nonzero_a:
        a, b, nonzero_a, nonzero_b = b, a, nonzero_b, nonzero_a
    if PAIR_MUL_DENSITY * nonzero_b < width:
        if nonzero_a * nonzero_b < PAIR_MUL_LIMIT * width:
            return _pair_product(a, b, width)
    elif SPARSE_MUL_DENSITY * nonzero_a < nonzero_b:
        return _sparse_product(a, b, width)
    return _packed_product(a, b, width)


def _pair_product(sparse, other, width: int) -> list[int]:
    """The first `width` coefficients of a product, one multiply-add for
    each pair of nonzero coefficients, one from each factor."""
    out = [0] * width
    terms = [(j, d) for j, d in enumerate(other) if d]
    for i, c in enumerate(sparse):
        if c:
            room = width - i
            for j, d in terms:
                if j >= room:
                    break
                out[i + j] += c * d
    return out


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

    Each factor becomes one integer with a signed slot per coefficient, so
    the product is one big-integer multiply.  No product coefficient
    exceeds min(max|a| sum|b|, max|b| sum|a|) in magnitude, at most
    max|a| max|b| min(len a, len b), and the slots are that bound's bit
    length plus a sign bit wide, so no slot carries into the next.
    """
    bound = min(max(map(abs, a)) * sum(map(abs, b)), max(map(abs, b)) * sum(map(abs, a)))
    slot = bound.bit_length() + 1
    return _unpack(_pack(a, slot) * _pack(b, slot), slot, width)


def _pack(coeffs, slot: int) -> int:
    """Sum of coeffs[i] * 2^(slot i), halving down to leaves of 16."""
    count = len(coeffs)
    if count <= 16:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << slot) + c
        return acc
    half = count // 2
    return _pack(coeffs[:half], slot) + (_pack(coeffs[half:], slot) << slot * half)


def _unpack(value: int, slot: int, count: int) -> list[int]:
    """The first `count` slots of `value`, each in [-2^(slot-1), 2^(slot-1)):
    biased nonnegative, then halved by shift and mask down to leaves of 16."""
    half = 1 << (slot - 1)
    mask = (1 << slot) - 1
    out: list[int] = []

    def split(v: int, n: int) -> None:
        if n <= 16:
            out.extend([(v >> s & mask) - half for s in range(0, slot * n, slot)])
            return
        low = n // 2
        split(v & ((1 << slot * low) - 1), low)
        split(v >> slot * low, n - low)

    split(value + half * (((1 << slot * count) - 1) // mask), count)
    return out


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


def _div_binomial_inplace(window: list[int], exponent: int) -> None:
    """Multiply a dense window (lowest 0) by 1 / (1 - q^exponent).

    That is w[x] += w[x - exponent] for x ascending.  Either each residue
    class mod `exponent` becomes its running sum, or each block of
    `exponent` coefficients adds the block before it; whichever takes
    fewer slice passes runs.
    """
    size = len(window)
    if exponent * exponent < size:
        for r in range(exponent):
            window[r::exponent] = accumulate(window[r::exponent])
    else:
        for s in range(exponent, size, exponent):
            window[s:s + exponent] = map(add, window[s:s + exponent], window[s - exponent:s])


# The stride-1 product at the largest order any request has needed so far.
_phi_base = QSeries.one(1)


def euler_phi(order: int, stride: int = 1) -> QSeries:
    """Product of (1 - q^(stride * j)) over j >= 1, truncated.

    Each request is a truncation of one stride-1 base, substituted
    q -> q^stride when stride > 1.  Both steps are exact: factors
    (1 - q^j) with j >= N are 1 mod q^N, and q -> q^stride is a ring map.
    The base grows only when a request needs more of it than any before.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if stride < 1:
        raise ValueError("stride must be positive")
    global _phi_base
    need = -(-order // stride)
    if need > _phi_base.order:
        _phi_base = _euler_product(need)
    phi = _phi_base.truncate(need)
    return phi if stride == 1 else phi.expand(stride).truncate(order)


def _euler_product(order: int) -> QSeries:
    """Product of the binomials (1 - q^j): never through the pentagonal
    theta series, which the identity checks compare it with."""
    window = [0] * order
    window[0] = 1
    _binomial_product_inplace(window, (1,), 1, -1)
    return QSeries._new(0, window, order)


def _fold_depth(size: int, progressions: int, step: int) -> int:
    """M for `_binomial_product_inplace`: 1 below length 300, else about
    0.65 (size / spacing)^(1/3)."""
    if size < 300:
        return 1
    return max(1, round(0.65 * (size * progressions / step) ** (1 / 3)))


def _binomial_product_inplace(window: list[int], starts, step: int, sign: int, power: int = 1) -> None:
    """Multiply a dense window (lowest 0) by prod (1 + sign q^e)^power over
    e = start + j * step for each start >= 1, or start 0 with power 1.
    Power 1 takes either sign; power -1 only sign -1, dividing by (1 - q^e).

    With N the window length and a = ceil(N / (M + 1)), factors with e < a
    go in one at a time.  Any M + 1 factors with e >= a multiply past q^N,
    so those go in together as F_0 + ... + F_M, F_i the part of degree i
    in the q^e.  Newton's identities give W_i = window * F_i from
        i W_i = sum_{k=1..i} c_k (W_{i-k} * P_k),  c_k = power (-1)^(k-1) sign^k,
    and W * P_k, P_k = sum q^(k e), is a stride-(k step) running sum of W
    shifted by k times each progression's first exponent >= a.  W_i
    vanishes below i a and is kept from there on.  M ~ (N / spacing)^(1/3),
    spacing the mean gap between exponents, balances the a single passes
    against the M (M + 1) / 2 running sums.
    """
    size = len(window)
    depth = _fold_depth(size, len(starts), step)
    a = -(-size // (depth + 1))  # at most size
    firsts = []
    for e in starts:
        while e < a:
            if power > 0:
                window[e:] = map(add if sign > 0 else sub, window[e:], window[: size - e])
            else:
                _div_binomial_inplace(window, e)
            e += step
        firsts.append(e)
    nearest = min(firsts, default=size)
    folded = [window]  # folded[i] is W_i from exponent i * a on
    for i in range(1, depth + 1):
        lo = i * a
        acc = [0] * (size - lo)
        for k in range(1, i + 1):
            base = (i - k) * a
            run = folded[i - k][: max(0, size - base - k * nearest)]
            _div_binomial_inplace(run, k * step)
            op = add if power * (-sign) ** (k - 1) * sign > 0 else sub
            for e in firsts:
                at = base + k * e - lo
                acc[at:] = map(op, acc[at:], run)
        if any(map(i.__rmod__, acc)):
            raise ArithmeticError(f"power-sum round {i} is not divisible by {i}")
        folded.append(list(map(i.__rfloordiv__, acc)))
    for i, w in enumerate(folded[1:], start=1):
        window[i * a:] = map(add, window[i * a:], w)


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
    starts = [r or modulus for r in range(modulus) if r not in banned]
    _binomial_product_inplace(window, starts, modulus, -1, -1)
    return QSeries._new(0, window, order)


def _theta(r: int, s: int, order: int, alternating: bool) -> QSeries:
    if r + s <= 0:
        raise ValueError("theta series need r + s > 0")
    # Term exponent at index j is (r+s) j^2 / 2 + (s-r) j / 2, a parabola
    # opening upward, so only finitely many terms fall below the order.
    # Its lowest exponent sits at the integer next to the vertex
    # j = -(s-r) / 2(r+s), so the window is sized before any term is added.
    d = s - r
    jbound = (abs(d) + isqrt(d * d + 8 * (r + s) * max(order, 1))) // (2 * (r + s)) + 2
    vertex = -d // (2 * (r + s))
    lo = min((r * j * (j - 1) + s * j * (j + 1)) // 2 for j in (vertex, vertex + 1))
    if lo >= order:
        return QSeries.zero(order)
    window = [0] * (order - lo)
    for j in range(-jbound, jbound + 1):
        e = (r * j * (j - 1) + s * j * (j + 1)) // 2
        if e < order:
            window[e - lo] += -1 if (alternating and j % 2) else 1
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
    t = r + s
    # The (1 - q^(jt)) family is the Euler product at stride t; the two odd
    # families (1 + sign q^(jt - r)) and (1 + sign q^(jt - s)) go in here.
    window = list(euler_phi(order, t).coeffs)
    if sign < 0 and r * s == 0:
        return QSeries.zero(order)  # the factor 1 - q^0
    _binomial_product_inplace(window, [t - r, t - s], t, sign)
    return QSeries._new(0, window, order)


def triple_product_f(r: int, s: int, order: int) -> QSeries:
    """Product form (1-q^(j(r+s)))(1+q^((j-1)r+js))(1+q^(jr+(j-1)s)) over j >= 1."""
    return _triple_product(r, s, order, +1)


def triple_product_g(r: int, s: int, order: int) -> QSeries:
    """Product form with minus signs in the two odd factor families."""
    return _triple_product(r, s, order, -1)


# -- determinants ---------------------------------------------------------


def _square_rows(matrix) -> tuple[tuple[QSeries, ...], ...]:
    rows = tuple(map(tuple, matrix))
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
            if entry.lowest < 0:
                raise ValueError("matrix entries must have valuation >= 0")
    return rows


def _packed_laplace(rows: tuple[tuple[QSeries, ...], ...]):
    """Laplace expansion of the trailing rows along their top one, memoised
    on the column set, so every minor is computed once.  A one-column minor
    is the bottom entry itself; a wider one is one integer with a signed
    `slot`-bit slot per coefficient, so an entry times a minor is a
    shift-add per nonzero entry coefficient.  A permanent is at most the
    product of its row sums, so no coefficient of a minor or partial sum
    exceeds max|bottom row| times the sum of |coefficients| of each row
    between row 0 and the bottom: the slot is that bound's bit length plus
    a sign bit.
    """
    size, order = len(rows), rows[0][0].order
    bottom = rows[-1]
    bound = max(max(map(abs, entry.coeffs), default=0) for entry in bottom)
    for row in rows[1:-1]:
        bound *= max(1, sum(sum(map(abs, entry.coeffs)) for entry in row))
    slot = bound.bit_length() + 1
    window = 1 << slot * order
    # (bit shift, coefficient) per nonzero coefficient of rows 1..size-2
    terms = [
        [[(slot * (entry.lowest + i), c) for i, c in enumerate(entry.coeffs) if c] for entry in row]
        for row in rows[1:-1]
    ]
    packed = {1 << col: _pack(entry.coefficient_list(), slot) for col, entry in enumerate(bottom)} if size > 2 else {}

    def expand(cols: int) -> int:  # the minor on a column bit mask, memoised
        row = terms[size - 1 - cols.bit_count()]
        acc, sign, rest = 0, 1, cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            shifts = row[bit.bit_length() - 1]
            if shifts:
                sub = packed.get(cols ^ bit)
                if sub is None:
                    sub = expand(cols ^ bit)
                if sub:
                    for shift, c in shifts:
                        acc += sign * c * sub << shift
            sign = -sign
        acc &= window - 1  # mod q^order, then re-centred
        if acc >= window >> 1:
            acc -= window
        packed[cols] = acc
        return acc

    def minor(cols: tuple[int, ...]) -> QSeries:
        if len(cols) < 2:
            return bottom[cols[0]] if cols else QSeries.one(order)
        return QSeries._new(0, _unpack(expand(sum(1 << col for col in cols)), slot, order), order)

    return minor


def det(matrix) -> QSeries:
    """Determinant of a square matrix of same-order series, each of
    valuation >= 0: the Laplace step along row 0, the sum of
    row0[i] * cofactors(matrix)[i]."""
    rows = _square_rows(matrix)
    acc = QSeries.zero(rows[0][0].order)
    for entry, cofactor in zip(rows[0], _cofactors(rows)):
        acc = acc + entry * cofactor
    return acc


def cofactors(matrix) -> tuple[QSeries, ...]:
    """Cofactors along the first row: (-1)^i times the minor without row 0
    and column i.  They share one memoised expansion of the other rows,
    and those of the most recent matrix are kept, so `det` and `cofactors`
    of one matrix expand it once.  An entry of negative valuation raises
    `ValueError`."""
    return _cofactors(_square_rows(matrix))


@lru_cache(maxsize=1)
def _cofactors(rows: tuple[tuple[QSeries, ...], ...]) -> tuple[QSeries, ...]:
    if rows[0][0].order < 1:  # every entry and cofactor is zero
        return (QSeries.zero(rows[0][0].order),) * len(rows)
    minor = _packed_laplace(rows)
    cols = tuple(range(len(rows)))
    out = []
    for i in cols:
        m = minor(cols[:i] + cols[i + 1:])
        out.append(-m if i % 2 else m)
    return tuple(out)
