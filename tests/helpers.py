"""Brute-force oracles used to pin expected values independently of the
library's own algorithms, the crystal operators and weight arithmetic that
only tests need, and checks of series laws the library itself never calls."""

import functools
import json
from collections import Counter
from dataclasses import dataclass

from qcrystal import identities
from qcrystal.crystal import MINUS, PLUS, _corners, _require_crystal_vertex
from qcrystal.multiplicity import _entry_terms, residue_block
from qcrystal.qseries import QSeries, theta_f, theta_g
from qcrystal.weightlat import WeightVector, classify_maximal
from qcrystal.young import Partition, enumerate_maximal_shapes


def partitions_of(total, max_part=None):
    """All partitions of `total` as weakly decreasing tuples."""
    if total == 0:
        yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    for first in range(max_part, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def partitions_upto(limit):
    """All partitions with at most `limit` boxes, as a tuple of tuples."""
    out = []
    for total in range(limit + 1):
        out.extend(partitions_of(total))
    return tuple(out)


_partition_numbers = [1]  # p(0), p(1), ... as far as any test has needed


def partition_number(m):
    """Exact p(m) from Euler's pentagonal-number recurrence."""
    p = _partition_numbers
    for k in range(len(p), m + 1):
        total, j, g = 0, 1, 1
        while g <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
            g = j * (3 * j - 1) // 2
        p.append(total)
    return p[m]


def count_partitions(total, allowed=None):
    """Number of partitions of `total`, optionally with an allowed-part
    predicate; 1 for total 0, 0 for negative totals."""
    if total < 0:
        return 0
    return sum(
        1
        for p in partitions_of(total)
        if allowed is None or all(allowed(part) for part in p)
    )


@functools.lru_cache(maxsize=None)
def _distinct_odd(remaining, max_part):
    if remaining == 0:
        return 1
    part = min(max_part, remaining)
    if part % 2 == 0:
        part -= 1
    total = 0
    while part >= 1:
        total += _distinct_odd(remaining - part, part - 2)
        part -= 2
    return total


def count_distinct_odd(total):
    """Partitions of `total` into distinct odd parts."""
    if total < 0:
        return 0
    return _distinct_odd(total, total)


def naive_series_mul(a: dict, b: dict, order: int) -> dict:
    """Schoolbook product of exponent->coefficient maps, truncated."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < order:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def invert_by_recurrence(s):
    """Inverse of a series with lowest 0 and constant term +-1, one
    coefficient at a time: out[e] = -c0 * sum_j a[j] out[e - j]."""
    a = s.coeffs
    out = [a[0]]
    for e in range(1, s.order):
        out.append(-a[0] * sum(a[j] * out[e - j] for j in range(1, e + 1)))
    return QSeries.from_coeffs(out, s.order)


def series_to_dict(s) -> dict:
    """Exponent->coefficient map of a QSeries, nonzero entries only."""
    return {
        s.lowest + idx: c
        for idx, c in enumerate(s.coeffs)
        if c
    }


def theta_by_terms(r, s, order, sign):
    """Nonzero coefficients of the bilateral sum of sign^j q^e(j),
    e(j) = r j(j-1)/2 + s j(j+1)/2, below `order`, one term at a time.
    The walk starts at the vertex (r - s) / 2(r + s) and goes out each way
    until e(j) reaches the order, since e only grows away from the vertex."""
    terms = {}
    vertex = (r - s) // (2 * (r + s))
    for j, step in ((vertex + 1, 1), (vertex, -1)):
        while (e := (r * j * (j - 1) + s * j * (j + 1)) // 2) < order:
            terms[e] = terms.get(e, 0) + sign ** (j % 2)
            j += step
    return {e: c for e, c in terms.items() if c}


def contract(s, k):
    """Substitute q^k -> q; every retained exponent must be divisible by k."""
    if k < 1:
        raise ValueError("contraction factor must be positive")
    new_order = -(-s.order // k)
    if s.is_zero:
        return QSeries.zero(new_order)
    for idx, c in enumerate(s.coeffs):
        if c and (s.lowest + idx) % k != 0:
            raise ValueError(f"exponent {s.lowest + idx} is not divisible by {k}")
    return QSeries.from_coeffs(s.coeffs[::k], new_order, s.lowest // k)


def entry_via_separation(j, i, n, order):
    """Theta matrix entry rebuilt through the explicit residue-class separation.

    Terms are assembled in the original variable, checked to live in the
    exponent class of j^2 modulo n, stripped of that residue, and pushed
    through the checked exponent division q^n -> q.  Must equal the entry
    produced by `coefficient_matrix`.
    """
    residue = (j * j) % n
    pre_order = n * order + residue
    pre = QSeries.zero(pre_order)
    for t, sign, _ in _entry_terms(j, i, n):
        shift = n * t * (t - 1) // 2 + (t + i) ** 2
        block_order = -(-(pre_order - shift) // n)
        term = residue_block(i, t, n, block_order).expand(n).shift(shift).truncate(pre_order)
        pre = pre + (term if sign > 0 else -term)
    if not pre.is_zero:
        for idx, c in enumerate(pre.coeffs):
            if c and (pre.lowest + idx) % n != residue:
                raise ValueError(f"exponent {pre.lowest + idx} escapes class {residue} mod {n}")
    return contract(pre.shift(-residue), n)


def color_of(row, col, n):
    """Color of the cell in the given (1-based) row and column: the rule that
    `young.color_counts` and `crystal._corners` apply a block at a time."""
    if row < 1 or col < 1:
        raise ValueError("row and column indices are 1-based")
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    return (col - row) % n


def colors_by_cell(parts, n):
    """Tally of cell colors computed cell by cell; checks `young.color_counts`."""
    counts = [0] * n
    for row, length in enumerate(parts, start=1):
        for col in range(1, length + 1):
            counts[color_of(row, col, n)] += 1
    return tuple(counts)


def regular_blocks(n, blocks):
    """The n-regular partition of (part, multiplicity) blocks with distinct
    parts, each multiplicity capped at n - 1."""
    return Partition(tuple(sorted(((part, min(mult, n - 1)) for part, mult in blocks), reverse=True)))


def signature_moves(parts):
    """(column, sign, row) of every box that can be removed ("-") from or
    added ("+") to the diagram with these weakly decreasing row lengths.

    Each row, and one new row below the last, is tried both ways; a move
    is kept when the rows stay weakly decreasing and nonnegative.  Moves
    are listed by column descending, a minus first where a column has
    both.  Colour by (column - row) mod n to get one signature.
    """
    moves = []
    for r in range(len(parts) + 1):
        for sign, delta in (("-", -1), ("+", 1)):
            trial = list(parts) + [0]
            trial[r] += delta
            if trial[r] >= 0 and all(a >= b for a, b in zip(trial, trial[1:])):
                column = trial[r] + 1 if sign == "-" else trial[r]
                moves.append((column, sign, r + 1))
    return sorted(moves, key=lambda m: (-m[0], m[1] != "-"))


@dataclass(frozen=True)
class SignatureEntry:
    column: int
    sign: str
    row: int  # row of the box that would be removed (-) or added (+)


@dataclass(frozen=True)
class Signature:
    """Signature entries in column-descending (right-to-left) order."""

    entries: tuple[SignatureEntry, ...]

    def reduced(self) -> "Signature":
        """Cancel adjacent "+-" pairs until none remain."""
        stack: list[SignatureEntry] = []
        for e in self.entries:
            if e.sign == MINUS and stack and stack[-1].sign == PLUS:
                stack.pop()
            else:
                stack.append(e)
        return Signature(tuple(stack))


def i_signature(p, n, i):
    """Signature of color i, one entry per contributing column: the one
    color of `crystal._corners` that `crystal.is_maximal_second_factor`
    reduces alongside all the others."""
    _require_crystal_vertex(p, n)
    if not 0 <= i < n:
        raise ValueError("color index out of range")
    return Signature(
        tuple(SignatureEntry(col, sign, row) for col, sign, row in _corners(p) if (col - row) % n == i)
    )


def epsilon(p, n, i):
    """Number of minus signs in the reduced i-signature, one color at a
    time; checks `crystal.is_maximal_second_factor`, which reduces every
    color in one walk."""
    return sum(1 for e in i_signature(p, n, i).reduced().entries if e.sign == MINUS)


def word(signature):
    """The signs of a `Signature`, in its right-to-left order, so tests can
    state `Signature.reduced` and `i_signature` as words."""
    return "".join(e.sign for e in signature.entries)


def _box_moved(p, row, step):
    """p with `step` (+1 or -1) boxes at the end of `row`; the trailing 0 is
    the new row that a plus below the diagram fills."""
    rows = [*p.parts, 0]
    rows[row - 1] += step
    return Partition.from_parts(r for r in rows if r > 0)


def e_tilde(p, n, i):
    """Raising operator: remove the box of the last surviving minus of the
    reduced `i_signature`, or None if there is none.  Its depth checks
    `epsilon`; its moves check the signature rule."""
    minuses = [e for e in i_signature(p, n, i).reduced().entries if e.sign == MINUS]
    return _box_moved(p, minuses[-1].row, -1) if minuses else None


def f_tilde(p, n, i):
    """Lowering operator: add a box at the first surviving plus of the
    reduced `i_signature`, or None if there is none.  It checks the
    signature rule, and `weightlat.weight_of` through the weight it lowers."""
    pluses = [e for e in i_signature(p, n, i).reduced().entries if e.sign == PLUS]
    return _box_moved(p, pluses[0].row, 1) if pluses else None


def crystal_phi(p, n, i):
    """Plus signs in the reduced i-signature; phi - epsilon is the coroot
    pairing of the weight, which checks `epsilon` and
    `weightlat.weight_of` against each other."""
    return sum(1 for e in i_signature(p, n, i).reduced().entries if e.sign == PLUS)


def simple_root(i, n):
    """alpha_i = 2 L_i - L_{i-1} - L_{i+1} + [i = 0] delta, indices mod n:
    the root that `weightlat.weight_of` subtracts once per cell of color i."""
    if not 0 <= i < n:
        raise ValueError("root index out of range")
    lam = [0] * n
    lam[i] += 2
    lam[(i - 1) % n] -= 1
    lam[(i + 1) % n] -= 1
    return WeightVector(tuple(lam), 1 if i == 0 else 0)


def scaled(c, w):
    """The weight c * w, for stating what `weightlat.weight_of` returns; the
    library itself only ever adds weights."""
    return WeightVector(tuple(c * a for a in w.lam), c * w.delta)


def chain_shapes_per_box_count(n, boxes):
    """Chain shapes with exactly `boxes` boxes, as (part, multiplicity)
    pair tuples in descending lexicographic order of their parts.

    A depth-first search run for this one box count: each part's
    multiplicity is forced by the previous pair, and a branch is emitted
    only when it uses up the box count exactly.
    """
    if boxes == 0:
        return [()]
    out = []

    def extend(prefix, prev_part, prev_mult, remaining):
        for part in range(min(prev_part - 1, remaining), 0, -1):
            mult = (-(prev_mult + prev_part - part)) % n
            if mult == 0 or part * mult > remaining:
                continue
            pairs = prefix + ((part, mult),)
            if part * mult == remaining:
                out.append(pairs)
            else:
                extend(pairs, part, mult, remaining - part * mult)

    for part in range(boxes, 0, -1):
        mult = part % n
        if mult == 0 or part * mult > boxes:
            continue
        if part * mult == boxes:
            out.append(((part, mult),))
        else:
            extend(((part, mult),), part, mult, boxes - part * mult)
    return out


def component_index_by_cells(pairs, n):
    """Component index of a chain shape from a cell-by-cell color tally.

    The weight 2 L_0 - sum_t c_t alpha_t, with
    alpha_t = 2 L_t - L_{t-1} - L_{t+1} + [t = 0] delta, must have
    L-part L_i + L_{n-i} for exactly one i in 0..n//2.
    """
    c = colors_by_cell([part for part, mult in pairs for _ in range(mult)], n)
    lam = [2 * (t == 0) - 2 * c[t] + c[t - 1] + c[(t + 1) % n] for t in range(n)]
    (i,) = [t for t in range(n // 2 + 1) if lam[t]]
    assert lam == [(t == i) + (t == (n - i) % n) for t in range(n)]
    return i


def multiplicity_table_by_filter(n, max_k, witness_cap=None):
    """(i, k) -> (count, witness pair tuples, omitted), enumerating each
    (i, k)'s box count on its own and keeping the shapes of component i."""
    out = {}
    for i in range(n // 2 + 1):
        for k in range(i, max_k + 1):
            witnesses = [
                pairs
                for pairs in chain_shapes_per_box_count(n, i * i + (k - i) * n)
                if component_index_by_cells(pairs, n) == i
            ]
            kept = witnesses if witness_cap is None else witnesses[:witness_cap]
            out[(i, k)] = (len(witnesses), tuple(kept), len(witnesses) - len(kept))
    return out


def count_table_by_pair_states(n, boxes):
    """Per-component chain-shape counts for every box count up to `boxes`,
    from a DP keyed by (c, r) = ((last part + its multiplicity) mod n,
    rows mod n) with one packed slot per box count in every state, each
    slot p(boxes)'s bits plus a sign bit wide, not the library's bound."""
    width = partition_number(boxes).bit_length() + 1
    slots = boxes + 1
    states = {(0, 0): 1}
    for part in range(boxes, 0, -1):
        moves = []
        for (c, r), poly in states.items():
            mult = (part - c) % n
            cost = part * mult
            if mult == 0 or cost > boxes:
                continue
            kept = poly & ((1 << ((slots - cost) * width)) - 1)
            moves.append((((part + mult) % n, (r + mult) % n), kept << (cost * width)))
        for key, poly in moves:
            states[key] = states.get(key, 0) + poly
    packed = [0] * (n // 2 + 1)
    for (c, r), poly in states.items():
        packed[min((c - r) % n, (-r) % n)] += poly
    mask = (1 << width) - 1
    columns = []
    for poly in packed:
        column = tuple(poly >> (s * width) & mask for s in range(slots))
        assert poly >> (slots * width) == 0 and max(column) >> (width - 1) == 0
        columns.append(column)
    return tuple(columns)


def transform_check(r, s, order):
    """Verify the index shift (r, s) -> (2r + s, -r) with prefactor q^r.

    The f-series picks up the prefactor directly, the g-series also flips
    sign.  Both comparisons are exact to the given order.
    """
    if r + s <= 0:
        raise ValueError("transformation needs r + s > 0")
    lhs_f = theta_f(r, s, order)
    rhs_f = theta_f(2 * r + s, -r, order - r).shift(r)
    if lhs_f != rhs_f:
        return False
    lhs_g = theta_g(r, s, order)
    rhs_g = -(theta_g(2 * r + s, -r, order - r).shift(r))
    return lhs_g == rhs_g


def _times_binomial(window, exponent, sign):
    """Multiply a dense window (lowest 0) by (1 + sign * q^exponent) in place."""
    window[exponent:] = [a + sign * b for a, b in zip(window[exponent:], window)]


def binomial_product_by_factors(window, starts, step, sign, power):
    """A dense window times prod (1 + sign q^e)^power over every
    e = start + j * step below its length, one factor at a time: a
    multiply is one shifted add, a divide runs w[x] -= sign * w[x - e] up
    the window one coefficient at a time."""
    window = list(window)
    size = len(window)
    for start in starts:
        for e in range(start, size, step):
            if power > 0:
                _times_binomial(window, e, sign)
            else:
                for x in range(e, size):
                    window[x] -= sign * window[x - e]
    return window


def euler_phi_by_binomials(order, stride=1):
    """Product of (1 - q^(stride * j)) over j >= 1, each binomial multiplied
    in at its own stride, with no shared base."""
    window = [1] + [0] * (order - 1)
    for e in range(stride, order, stride):
        _times_binomial(window, e, -1)
    return QSeries.from_coeffs(window, order)


def triple_product_by_families(r, s, order, sign):
    """Jacobi triple product built from all three factor families,
    (1 - q^(j(r+s))) (1 + sign q^((j-1)r + js)) (1 + sign q^(jr + (j-1)s))."""
    window = [1] + [0] * (order - 1)
    j = 1
    while True:
        exponents = (j * (r + s), (j - 1) * r + j * s, j * r + (j - 1) * s)
        if min(exponents) >= order:
            break
        for e, sg in zip(exponents, (-1, sign, sign)):
            if e >= order:
                continue
            if e == 0:
                if sg == -1:
                    return QSeries.zero(order)
                window = [2 * c for c in window]
            else:
                _times_binomial(window, e, sg)
        j += 1
    return QSeries.from_coeffs(window, order)


def restricted_partition_gf_by_loops(excluded, modulus, order):
    """Partitions avoiding the excluded residues mod `modulus`, dividing
    by each allowed (1 - q^j) one coefficient at a time."""
    banned = {r % modulus for r in excluded}
    window = [1] + [0] * (order - 1)
    for j in range(1, order):
        if j % modulus in banned:
            continue
        for x in range(j, order):
            window[x] += window[x - j]
    return QSeries.from_coeffs(window, order)


def partition_identity_counts(k):
    """The quadruple (a, b, c, d) of theorem 5.1 at index k, from series cut
    at order k + 1.  `identities.check_theorem_5_1` reads every index from
    one set of series at its largest order; this checks what it reports.

    a and b count chain shapes at 3k and 3k - 2 boxes; c and d are signed
    combinations of mod-15 restricted partition counts at k and nearby
    indices.  The counting identities assert a = c (k >= 0) and b = d
    (k >= 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return identities._quadruple(k, identities._mod15_counts(k + 1))


def distinct_odd_sum_form_by_loops(i, order):
    """Sum over m of q^(2m^2 + 2im) / prod_{k=1}^{2m+i} (1 - q^k), keeping
    the running inverse one coefficient at a time."""
    acc = [0] * order
    inv = [1] + [0] * (order - 1)
    k_done = 0
    m = 0
    while 2 * m * m + 2 * i * m < order:
        exponent = 2 * m * m + 2 * i * m
        while k_done < 2 * m + i:
            k_done += 1
            for x in range(k_done, order):
                inv[x] += inv[x - k_done]
        for t in range(order - exponent):
            acc[exponent + t] += inv[t]
        m += 1
    return QSeries.from_coeffs(acc, order)


def inverse_pochhammer_product(ms, order):
    """Coefficients below `order` of 1 / ((q)_{m_1} ... (q)_{m_r}), one
    factor 1 / (1 - q^j) at a time."""
    coeffs = [1] + [0] * (order - 1)
    for m in ms:
        for j in range(1, m + 1):
            for x in range(j, order):
                coeffs[x] += coeffs[x - j]
    return coeffs


def chain_shape_rows(n, i, k):
    """Row count -> number of chain shapes with label (i, k), each shape
    enumerated at its box count i^2 + (k - i) n and classified."""
    shapes = enumerate_maximal_shapes(n, i * i + (k - i) * n)
    return Counter(p.num_rows for p in shapes if classify_maximal(p, n) == (i, k))


def fermionic_rows_n2(i, k):
    """Row count m -> [q^(k - i)] q^((m^2 - i) / 2) / (q)_m for m = i mod 2,
    nonzero values only: the n = 2 fermionic sum for B_i, term by term."""
    out = {}
    m = i
    while (exponent := (m * m - i) // 2) <= k - i:
        coeff = inverse_pochhammer_product([m], k - i - exponent + 1)[-1]
        if coeff:
            out[m] = coeff
        m += 2
    return out


def fermionic_rows_n3_component_0(k):
    """Row count r -> sum over m1 + 2 m2 = r with r = 0 mod 3 of
    [q^k] q^(2 (m1^2 + m1 m2 + m2^2) / 3) / ((q)_{m1} (q)_{m2}), nonzero
    values only: the n = 3 fermionic sum for B_0, grouped by m1 + 2 m2."""
    out = Counter()
    m2 = 0
    while 2 * m2 * m2 <= 3 * k:
        m1 = m2 % 3  # m1 + 2 m2 = 0 mod 3 exactly when m1 = m2 mod 3
        while (exponent := 2 * (m1 * m1 + m1 * m2 + m2 * m2) // 3) <= k:
            out[m1 + 2 * m2] += inverse_pochhammer_product([m1, m2], k - exponent + 1)[-1]
            m1 += 3
        m2 += 1
    return +out


def print_json_rows_joined(head, key, rows):
    """The CLI's indented JSON layout built as one string: `head` fields,
    then the `key` list with each row compact on its own line."""
    fields = [f"  {json.dumps(name)}: {json.dumps(value)}," for name, value in head.items()]
    body = ",\n".join("    " + json.dumps(row) for row in rows)
    print("\n".join(["{", *fields, f"  {json.dumps(key)}: [", body, "  ]", "}"]))
