import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qcrystal import qseries
from qcrystal.qseries import (
    PAIR_MUL_DENSITY,
    PAIR_MUL_LIMIT,
    SPARSE_MUL_DENSITY,
    NonUnitConstantError,
    OrderMismatchError,
    QSeries,
    cofactors,
    det,
    euler_phi,
    first_difference,
    restricted_partition_gf,
    theta_f,
    theta_g,
    triple_product_f,
    triple_product_g,
)

from helpers import (
    binomial_product_by_factors,
    contract,
    count_partitions,
    euler_phi_by_binomials,
    invert_by_recurrence,
    naive_series_mul,
    partitions_of,
    restricted_partition_gf_by_loops,
    series_to_dict,
    theta_by_terms,
    transform_check,
    triple_product_by_families,
)


def rand_series(rng, order, max_lowest=3, min_lowest=0, magnitude=9):
    lowest = rng.randint(min_lowest, max_lowest)
    coeffs = [rng.randint(-magnitude, magnitude) for _ in range(order - lowest)]
    return QSeries.from_coeffs(coeffs, order, lowest)


def rand_matrix(rng, size, order, max_lowest, min_lowest=0, magnitude=9, zero_share=0.0, zero_row=None):
    """Random square matrix; an entry is zero with probability `zero_share`,
    and every entry of row `zero_row` is."""
    return [
        [
            QSeries.zero(order)
            if r == zero_row or (zero_share and rng.random() < zero_share)
            else rand_series(rng, order, min(max_lowest, order), min_lowest, magnitude)
            for _ in range(size)
        ]
        for r in range(size)
    ]


def leibniz_det(dicts, reach):
    """Sum over permutations of signed products of exponent->coefficient
    maps, truncated at `reach`: independent of the library's multiply and
    of its Laplace memo."""
    size = len(dicts)
    out: dict[int, int] = {}
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = {0: sign}
        for row, col in enumerate(perm):
            term = naive_series_mul(term, dicts[row][col], reach)
            if not term:
                break
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class TestRepresentation:
    def test_normalization(self):
        s = QSeries.from_coeffs([0, 0, 3, 0, 1], 8)
        assert s.lowest == 2 and s.coeffs == (3, 0, 1, 0, 0, 0)
        z = QSeries.from_coeffs([0, 0, 0], 5)
        assert z.is_zero and z.lowest == 0 and z.coeffs == ()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QSeries(1, (0, 1), 3)
        with pytest.raises(ValueError):
            QSeries(0, (1,), 5)
        with pytest.raises(ValueError):
            QSeries.from_coeffs([1, 2, 3], 2)

    def test_coeff_access(self):
        s = QSeries.monomial(4, -2, 6)
        assert s.coeff(-2) == 4
        assert s.coeff(-5) == 0
        assert s.coeff(5) == 0
        with pytest.raises(ValueError):
            s.coeff(6)

    def test_zero_series_queries(self):
        z = QSeries.zero(5)
        assert z.coeff(0) == 0 and z.coeff(4) == 0 and z.coeff(-3) == 0
        assert z.coefficient_list() == [0] * 5
        with pytest.raises(ValueError):
            z.coeff(5)
        assert first_difference(QSeries.zero(4), QSeries.one(4)) == (0, 0, 1)
        assert first_difference(QSeries.one(4), QSeries.zero(4)) == (0, 1, 0)
        assert first_difference(QSeries.zero(4), QSeries.zero(4)) is None

    def test_equality_is_coefficientwise(self):
        a = QSeries.from_coeffs([1, 2], 4)
        b = QSeries.from_coeffs([1, 2, 0, 0], 4)
        assert a == b
        assert a != QSeries.from_coeffs([1, 2], 5)


class TestRingOperations:
    def test_geometric_inverse(self):
        one_minus_q = QSeries.from_coeffs([1, -1], 30)
        geometric = QSeries.from_coeffs([1] * 30, 30)
        assert one_minus_q * geometric == QSeries.one(30)

    def test_additive_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            a = rand_series(rng, 24)
            assert (a + (-a)).is_zero

    def test_mul_matches_naive_expansion(self):
        # Partial Euler products multiplied both ways.
        order = 50
        a = euler_phi(order)
        product = a * a
        expected = naive_series_mul(series_to_dict(a), series_to_dict(a), order)
        assert series_to_dict(product) == expected

        rng = random.Random(2)
        for _ in range(25):
            x, y = rand_series(rng, 20), rand_series(rng, 20)
            got = series_to_dict(x * y)
            assert got == naive_series_mul(series_to_dict(x), series_to_dict(y), 20)

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            QSeries.one(4) + QSeries.one(5)
        with pytest.raises(OrderMismatchError):
            QSeries.one(4) * QSeries.one(5)
        with pytest.raises(OrderMismatchError):
            first_difference(QSeries.one(4), QSeries.one(5))

    def test_negative_valuation_product_shrinks_bound(self):
        a = QSeries.monomial(1, -2, 10)
        sq = a * a
        assert sq.order == 8
        assert sq.coeff(-4) == 1

    def test_ring_axioms_on_samples(self):
        rng = random.Random(3)
        order = 64
        for _ in range(100):
            a, b, c = (rand_series(rng, order) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_integer_scaling_is_not_an_operation(self):
        # Callers write a multiple as a sum or a negation.
        s = QSeries.from_coeffs([1, 2, 3], 6)
        with pytest.raises(TypeError):
            s * 3
        with pytest.raises(TypeError):
            3 * s

    def test_shift(self):
        s = QSeries.from_coeffs([1, 2, 3], 6)
        assert s.shift(2).coeff(2) == 1 and s.shift(2).order == 8
        assert s.shift(2).truncate(6).order == 6
        with pytest.raises(ValueError):
            s.truncate(7)

    def test_pow(self):
        s = QSeries.from_coeffs([1, 1], 12)
        assert s**3 == s * s * s
        assert s**0 == QSeries.one(12)

# Coefficients small and past a machine word, both signs.
coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))


@st.composite
def series(draw, order, near=None):
    """A series at `order`, possibly zero, possibly with negative
    valuation: dense, or with a nonzero count anywhere in its window or
    within 2 of `near`, by default a SPARSE_MUL_DENSITY-th of the order.
    Sparse positions come from a drawn random generator, every value from
    `coefficients`."""
    if near is None:
        near = order // SPARSE_MUL_DENSITY
    lowest = draw(st.integers(-3, min(3, order - 1)))
    length = order - lowest
    if draw(st.booleans()):
        positions = range(length)
    else:
        count = draw(st.one_of(st.integers(0, length), st.integers(near - 2, near + 2)))
        positions = draw(st.randoms(use_true_random=False)).sample(range(length), min(max(count, 0), length))
    values = draw(st.lists(coefficients, min_size=len(positions), max_size=len(positions)))
    coeffs = [0] * length
    for idx, value in zip(positions, values):
        coeffs[idx] = value
    return QSeries.from_coeffs(coeffs, order, lowest)


@st.composite
def factor_pairs(draw):
    """Two series at one order, the second possibly next to one of the
    product's dispatch boundaries against the first: the first's nonzero
    count over or times the density factor, or the share of the window,
    1/PAIR_MUL_DENSITY, below which two sparse factors are multiplied term
    pair by term pair (at orders up to 256 they always make fewer than
    PAIR_MUL_LIMIT pairs per slot)."""
    order = draw(st.integers(1, 256))
    a = draw(series(order))
    nonzero = len(a.coeffs) - a.coeffs.count(0)
    near = draw(
        st.sampled_from((nonzero // SPARSE_MUL_DENSITY, nonzero * SPARSE_MUL_DENSITY, order // PAIR_MUL_DENSITY))
    )
    return a, draw(series(order, near=near))


class TestProductProperties:
    @settings(max_examples=200, deadline=None)
    @given(factor_pairs())
    def test_product_matches_naive_expansion(self, pair):
        a, b = pair
        product = a * b
        assert product.order == a.order + min(0, a.lowest, b.lowest)
        assert series_to_dict(product) == naive_series_mul(
            series_to_dict(a), series_to_dict(b), product.order
        )

    @settings(max_examples=50, deadline=None)
    @given(factor_pairs())
    def test_product_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @pytest.mark.parametrize(
        "order, nonzero, other",
        [
            # windows against a dense factor: a 1/SPARSE_MUL_DENSITY share,
            # however few nonzeros that is
            *((128, k, None) for k in (21, 22, 31, 32, 128)),
            *((w * SPARSE_MUL_DENSITY, w + d, None) for w in (40, 100) for d in (-1, 0, 1)),
            # two sparse factors: the other factor's nonzero count
            *((600, 40 + d, 40 * SPARSE_MUL_DENSITY) for d in (-1, 0, 1)),
            (600, 100, 160),
            # a sparse factor against one on either side of the term-pair share
            *((600, k, 600 // PAIR_MUL_DENSITY + d) for k in (1, 20) for d in (-1, 0, 1)),
            *((1189, 25, other) for other in (25, 1189 // PAIR_MUL_DENSITY, 1189 // PAIR_MUL_DENSITY + 1, 400)),
            # two sparse factors on either side of PAIR_MUL_LIMIT pairs per slot
            *((600, 80, PAIR_MUL_LIMIT * 600 // 80 + d) for d in (-1, 0, 1)),
            *((1189, 118, other) for other in (161, 162)),
            # many pairs of factors of unlike density: packed, not the pair loop
            (10000, 399, 2400),
        ],
    )
    def test_both_paths_agree_at_the_dispatch_boundary(self, order, nonzero, other, monkeypatch):
        rng = random.Random(nonzero)

        def sparse_coeffs(count):
            # exponent 0 included, so the product's window is the whole order
            coeffs = [0] * order
            for idx in [0, *rng.sample(range(1, order), count - 1)]:
                coeffs[idx] = rng.choice((1, -1, 2, -(2**70)))
            return coeffs

        sparse = sparse_coeffs(nonzero)
        if other is None:
            dense = [rng.choice((1, -1)) * rng.randint(1, 2**90) for _ in range(order)]
        else:
            dense = sparse_coeffs(other)
        a, b = QSeries.from_coeffs(sparse, order), QSeries.from_coeffs(dense, order)
        # every path at the full window and at one shorter than the factors
        for width in (order, order - 7):
            expected = naive_series_mul(series_to_dict(a), series_to_dict(b), width)
            for path in (qseries._pair_product, qseries._sparse_product, qseries._packed_product):
                got = path(sparse, dense, width)
                assert len(got) == width and {e: c for e, c in enumerate(got) if c} == expected
        paths = []
        for name in ("_pair_product", "_sparse_product", "_packed_product"):
            real = getattr(qseries, name)
            monkeypatch.setattr(qseries, name, lambda *args, _real=real, _name=name: paths.append(_name) or _real(*args))
        product = a * b
        other = other or order
        if PAIR_MUL_DENSITY * other < order:
            assert paths == ["_pair_product" if nonzero * other < PAIR_MUL_LIMIT * order else "_packed_product"]
        elif SPARSE_MUL_DENSITY * nonzero < other:
            assert paths == ["_sparse_product"]
        else:
            assert paths == ["_packed_product"]
        assert series_to_dict(product) == naive_series_mul(series_to_dict(a), series_to_dict(b), order)
        # negative valuation: the product's bound drops with it
        low = a.shift(-2)
        high = b.truncate(low.order)
        product = low * high
        assert product.order == low.order - 2
        assert series_to_dict(product) == naive_series_mul(series_to_dict(low), series_to_dict(high), product.order)

    @pytest.mark.parametrize("order", [1189, 10000])
    def test_theta_and_euler_products_take_the_pair_loop(self, order, monkeypatch):
        # the products of lemmas 5.1, 5.2 and 5.4: 30 to 170 nonzeros
        # each, a few term pairs per window slot
        phi, f53, f17 = euler_phi(order), theta_f(5, 3, order), theta_f(1, 7, order)
        paths = []
        for name in ("_pair_product", "_sparse_product", "_packed_product"):
            real = getattr(qseries, name)
            monkeypatch.setattr(qseries, name, lambda *args, _real=real, _name=name: paths.append(_name) or _real(*args))
        for a, b in ((f53, f53), (f17, f17), (phi, f53), (phi, f17), (phi, phi), (phi, euler_phi(order, 2))):
            paths.clear()
            product = a * b
            assert paths == ["_pair_product"]
            assert series_to_dict(product) == naive_series_mul(series_to_dict(a), series_to_dict(b), order)

    @pytest.mark.parametrize(
        "window, length, m, m2, bits",
        [
            (window, *factors)
            for window in (1, 15, 16, 17, 33)
            for factors in (
                (1, 1, 1, 1),
                (1, 15, 17, 8),
                (15, 1, 17, 8),
                (1, 255, 257, 16),
                (15, 17, 257, 16),
                (15, (2**34 - 1) // 3, (2**34 + 1) // 5, 68),
                (1, 2**35 - 1, 2**35 + 1, 70),
                # a first coefficient of b far above the rest
                (33, 1, 1, 20),
                (33, 3, 5, 40),
            )
            if factors[0] <= window
        ],
    )
    @pytest.mark.parametrize("signs", ["plus", "minus", "alternating"])
    def test_packed_product_at_the_slot_bound(self, window, length, m, m2, bits, signs):
        # `length` coefficients m against `window` coefficients +-m2, the
        # first one +-lead, with m * (lead + (length - 1) * m2) = 2^bits - 1:
        # that is m * sum|b|, the product's bound, so the slot is bits + 1
        # wide and at exponent length - 1 a slot holds +-(2^(slot - 1) - 1)
        # (both signs at once for length 1 alternating).  Where lead > m2,
        # max|a| max|b| length would give a wider slot.
        lead = (2**bits - 1) // m - (length - 1) * m2
        assert m * (lead + (length - 1) * m2) == 2**bits - 1 and lead >= m2
        assert (lead == m2) == (length * m * m2 == 2**bits - 1)
        a = [m] * length
        b = [m2 * (-1 if signs == "minus" or (signs == "alternating" and j % 2) else 1) for j in range(window)]
        b[0] = lead * (-1 if signs == "minus" else 1)
        got = qseries._packed_product(a, b, window)
        assert len(got) == window
        assert {e: c for e, c in enumerate(got) if c} == naive_series_mul(dict(enumerate(a)), dict(enumerate(b)), window)
        if signs != "alternating" or length == 1:
            assert max(map(abs, got)) == 2**bits - 1


class TestInversion:
    def test_geometric(self):
        inv = QSeries.from_coeffs([1, -1], 25).invert()
        assert inv == QSeries.from_coeffs([1] * 25, 25)

    def test_partition_numbers(self):
        inv = euler_phi(12).invert()
        assert inv.coeff(5) == 7 == count_partitions(5)
        assert [inv.coeff(e) for e in range(10)] == [
            count_partitions(e) for e in range(10)
        ]

    def test_identity_and_roundtrip(self):
        assert QSeries.one(9).invert() == QSeries.one(9)
        rng = random.Random(4)
        for _ in range(20):
            coeffs = [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(19)]
            a = QSeries.from_coeffs(coeffs, 20)
            assert a * a.invert() == QSeries.one(20)

    def test_rejects_non_units(self):
        with pytest.raises(NonUnitConstantError):
            QSeries.from_coeffs([2, 1], 6).invert()
        with pytest.raises(NonUnitConstantError):
            QSeries.monomial(1, 1, 6).invert()
        with pytest.raises(NonUnitConstantError):
            QSeries.zero(6).invert()


@st.composite
def unit_series(draw):
    """A series with lowest 0 and constant term +-1."""
    order = draw(st.integers(1, 40))
    tail = draw(st.lists(coefficients, min_size=order - 1, max_size=order - 1))
    return QSeries.from_coeffs([draw(st.sampled_from((1, -1))), *tail], order)


unit_values = st.sampled_from((1, -1))


def partition_power(order, k, sign):
    """sign / phi(q)^k: dense, coefficients past 80 bits for large k, and
    an inverse sign * phi(q)^k whose coefficients stay narrow."""
    power = restricted_partition_gf((), 1, order) ** k
    return power if sign > 0 else -power


@st.composite
def inversion_inputs(draw):
    """A series with lowest 0 and constant term +-1 at an order up to 300,
    with a nonzero count anywhere in its window or within 2 of the
    inversion's dispatch boundary, a SPARSE_MUL_DENSITY-th of the order.
    Positions come from a drawn random generator; values are +-1, whose
    inverses mostly grow by less than a bit per exponent, or come from
    `coefficients`, whose inverses mostly grow faster.  A +-1 draw may be divided by a power of phi(q),
    which makes it dense with wide coefficients and keeps its inverse
    narrow."""
    order = draw(st.integers(1, 300))
    near = order // SPARSE_MUL_DENSITY
    count = min(max(draw(st.one_of(st.integers(1, order), st.integers(near - 2, near + 2))), 1), order)
    positions = draw(st.randoms(use_true_random=False)).sample(range(1, order), count - 1)
    values = draw(st.sampled_from((unit_values, coefficients.filter(bool))))
    coeffs = [draw(unit_values)] + [0] * (order - 1)
    for idx, value in zip(positions, draw(st.lists(values, min_size=count - 1, max_size=count - 1))):
        coeffs[idx] = value
    s = QSeries.from_coeffs(coeffs, order)
    if values is unit_values:
        s = s * partition_power(order, draw(st.one_of(st.just(0), st.integers(1, 16))), 1)
    return s


def newton_steps(s, inverse):
    """Targets of the Newton steps `s.invert()` should take, in order:
    none for a series sparse enough for the product's sparse path;
    otherwise the rungs of the ladder order, ceil(order / 2),
    ceil(order / 4), ... above the first prefix of coefficients that are
    all narrower in bits than its length."""
    nonzero = len(s.coeffs) - s.coeffs.count(0)
    if SPARSE_MUL_DENSITY * nonzero < s.order:
        return []
    width = list(itertools.accumulate((c.bit_length() for c in inverse.coefficient_list()), max))
    known = next((e for e in range(1, s.order) if width[e - 1] < e), s.order)
    targets, target = [], s.order
    while target > known:
        targets.insert(0, target)
        target = -(-target // 2)
    return targets


class TestInversionProperties:
    # The recurrence knows 2, 3, 5, 14 and 18 coefficients of these
    # inverses when it stops: 32 climbs 4, 8, 16, 32; 33 climbs 5, 9, 17,
    # 33; 64 climbs 8, 16, 32, 64; 65 climbs 17, 33, 65; 97 climbs 25, 49, 97.
    @settings(max_examples=100, deadline=None)
    @given(inversion_inputs())
    @example(partition_power(32, 1, 1))
    @example(partition_power(33, 2, -1))
    @example(partition_power(64, 5, 1))
    @example(partition_power(65, 12, -1))
    @example(partition_power(97, 16, 1))
    def test_matches_term_recurrence(self, s):
        with mock.patch.object(qseries, "_product", wraps=qseries._product) as product:
            inverse = s.invert()
        expected = invert_by_recurrence(s)
        assert inverse == expected
        # two products per Newton step, none on the recurrence, the first
        # of each as wide as the step's target
        targets = newton_steps(s, expected)
        assert product.call_count == 2 * len(targets)
        assert [call.args[2] for call in product.call_args_list[::2]] == targets

    @settings(max_examples=100, deadline=None)
    @given(unit_series())
    def test_unit_constant_term_inverts(self, s):
        assert (s * s.invert()).truncate(s.order) == QSeries.one(s.order)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(-(2**80), 2**80).filter(lambda c: c not in (1, -1)),
        st.lists(coefficients, max_size=20),
    )
    def test_non_unit_constant_term_raises(self, constant, tail):
        # A zero constant term leaves a positive valuation or the zero series.
        s = QSeries.from_coeffs([constant, *tail], len(tail) + 1)
        with pytest.raises(NonUnitConstantError):
            s.invert()


class TestSubstitutionProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(series), st.integers(1, 6))
    @example(QSeries.zero(7), 3)
    @example(QSeries.from_coeffs([5, 0, -2**70], 4, lowest=-3), 4)
    def test_expand_then_contract_is_identity(self, s, k):
        assert contract(s.expand(k), k) == s


class TestCoefficientList:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(series))
    @example(QSeries.zero(7))
    @example(QSeries.zero(0))
    @example(QSeries.from_coeffs([5, 0, -2**70], 1, lowest=-2))
    @example(QSeries.from_coeffs([5, 0, -2**70], 0, lowest=-3))
    @example(QSeries.from_coeffs([5, 0], -1, lowest=-3))
    def test_matches_coefficient_at_each_exponent(self, s):
        assert s.coefficient_list() == [s.coeff(e) for e in range(s.order)]


class TestSubstitutions:
    def test_expand_contract_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            s = rand_series(rng, 15)
            assert contract(s.expand(3), 3) == s

    def test_contract_requires_divisibility(self):
        s = QSeries.from_coeffs([1, 1], 6)
        with pytest.raises(ValueError):
            contract(s, 2)

    def test_expand_semantics(self):
        s = QSeries.from_coeffs([1, 2], 5)
        e = s.expand(2)
        assert e.order == 10
        assert e.coeff(0) == 1 and e.coeff(2) == 2 and e.coeff(1) == 0


class TestEulerProducts:
    def test_pentagonal_numbers(self):
        assert euler_phi(13).coefficient_list() == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_stride_support(self):
        s = euler_phi(40, stride=3)
        assert all(s.coeff(e) == 0 for e in range(40) if e % 3)
        assert contract(s, 3) == euler_phi(14)

    def test_order_one(self):
        assert euler_phi(1) == QSeries.one(1)

    def test_cache_is_bounded_and_shared(self, base_builds):
        # The one cache is the stride-1 base: every (order, stride) request
        # reads it, and bad arguments are rejected before it is touched.
        for bad in ((0,), (-3, 1), (5, 0), (5, -2)):
            with pytest.raises(ValueError):
                euler_phi(*bad)
        assert base_builds == [] and qseries._phi_base == QSeries.one(1)
        assert euler_phi(50) == euler_phi(50, 1) == euler_phi(50, stride=1)
        assert base_builds == [50]
        for order in range(1, 20):
            euler_phi(order, stride=1 + order % 3)
        assert base_builds == [50] and qseries._phi_base.order == 50

    @pytest.fixture
    def base_builds(self, monkeypatch):
        """A stride-1 base of order 1, with every base build recorded by
        its order."""
        builds = []
        real = qseries._euler_product

        def counting(order):
            builds.append(order)
            return real(order)

        monkeypatch.setattr(qseries, "_euler_product", counting)
        monkeypatch.setattr(qseries, "_phi_base", QSeries.one(1))
        return builds

    @pytest.mark.parametrize("arrangement", ["ascending", "descending", "shuffled"])
    def test_matches_binomial_oracle_in_any_request_order(self, base_builds, arrangement):
        requests = [(order, stride) for order in range(1, 81) for stride in range(7, 0, -1)]
        if arrangement == "descending":
            requests.reverse()
        elif arrangement == "shuffled":
            random.Random(20).shuffle(requests)
        for order, stride in requests:
            assert euler_phi(order, stride) == euler_phi_by_binomials(order, stride), (order, stride)
        # The base only ever grows; a descending run, which asks for the
        # deepest base first, builds it once and truncates it from then on.
        assert base_builds == sorted(set(base_builds))
        if arrangement == "descending":
            assert base_builds == [80]
        else:
            assert len(base_builds) > 1

    def test_catalog_requests_build_one_base(self, base_builds):
        # The requests one `verify --identity all --order 1200
        # --master-order 200` run makes, triple-product strides included.
        requests = (
            [(1200, 1), (1200, 2)]
            + [(200, n) for n in range(2, 8)]
            + [(300, 1)]
            + [(200, r + s) for r in range(11) for s in range(r, 11) if r + s]
        )
        for order, stride in requests:
            assert euler_phi(order, stride) == euler_phi_by_binomials(order, stride), (order, stride)
        assert base_builds == [1200]
        kept = [name for name, value in vars(qseries).items() if isinstance(value, QSeries)]
        assert kept == ["_phi_base"] and qseries._phi_base.order == 1200

    def test_folded_product_matches_binomial_oracle_at_every_order(self):
        # Orders of both parities, each with its own fold point ceil(N/2).
        # A truncation of the order-400 oracle is the order-N product,
        # since factors (1 - q^j) with j >= N are 1 mod q^N.
        oracle = euler_phi_by_binomials(400)
        for order in range(1, 401):
            assert qseries._euler_product(order) == oracle.truncate(order), order

    def test_folded_product_matches_binomial_oracle_at_high_order(self):
        # Fold depth 9 at this order: the 299 factors below a = 300 go in
        # one at a time, the rest through nine power-sum rounds.
        assert qseries._fold_depth(3000, 1, 1) == 9
        assert qseries._euler_product(3000) == euler_phi_by_binomials(3000)

    def test_product_never_reads_theta_series(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("product forms must not use theta series")

        for attr in ("_theta", "theta_f", "theta_g"):
            monkeypatch.setattr(qseries, attr, forbidden)
        assert qseries._euler_product(500) == euler_phi_by_binomials(500)
        for r, s in ((1, 2), (3, 5), (0, 4)):
            assert triple_product_f(r, s, 500) == triple_product_by_families(r, s, 500, +1), (r, s)
            assert triple_product_g(r, s, 500) == triple_product_by_families(r, s, 500, -1), (r, s)


BINOMIAL_CASES = ((-1, 1), (1, 1), (-1, -1))


@st.composite
def binomial_products(draw):
    """A window, progressions sharing one step, and one of the (sign, power)
    pairs callers pass to `_binomial_product_inplace`: (-1, 1) for the
    Euler product and `triple_product_g`, (1, 1) for `triple_product_f`,
    (-1, -1) for restricted partitions.  Starts may repeat or lie past the
    window; the step may exceed it.  The window's coefficients, small and
    past a machine word, come from a drawn seed, so that examples differ
    in shape rather than in coefficients."""
    size = draw(st.integers(1, 600))
    rng = random.Random(draw(st.integers(0, 2**32)))
    window = [rng.choice((rng.randint(-9, 9), rng.randint(-(2**80), 2**80))) for _ in range(size)]
    step = draw(st.one_of(st.integers(1, 16), st.integers(size, size + 5)))
    starts = draw(st.lists(st.integers(1, size + 5), max_size=4))
    return window, starts, step, *draw(st.sampled_from(BINOMIAL_CASES))


class TestBinomialProduct:
    @settings(max_examples=150, deadline=None)
    @given(binomial_products())
    @example(([1] + [0] * 199, [1], 1, -1, 1))  # factors a - 1 and a would meet below q^N
    @example(([1] + [0] * 599, [1, 1, 2], 1, -1, 1))  # depth 8
    @example(([1] + [0] * 299, [300, 7], 7, -1, -1))  # a start at the window length
    @example(([3, -1] * 200, [5, 5], 400, 1, 1))  # the step is the window length
    @example(([1] + [0] * 599, [0, 7], 7, 1, 1))  # start 0: the factor 1 + q^0 doubles
    @example(([1] + [0] * 599, [7, 0], 7, -1, 1))  # start 0: the factor 1 - q^0 kills
    @example(([2, -5, 1] * 400, [0, 3, 0], 3, 1, 1))  # start 0 twice, ahead of a deep fold
    @example(([4] * 40, [0], 50, -1, 1))  # start 0, step past the window
    def test_matches_one_factor_at_a_time(self, case):
        window, starts, step, sign, power = case
        got = list(window)
        qseries._binomial_product_inplace(got, starts, step, sign, power)
        assert got == binomial_product_by_factors(window, starts, step, sign, power)

    def test_every_fold_depth(self):
        # The first (length, step) at each depth up to the deepest one with
        # lengths up to 600 and four progressions, each (sign, power) pair.
        rng = random.Random(13)
        starts = (1, 2, 2, 5)
        cases = {}
        for size in range(1, 601):
            for step in range(1, 65):
                cases.setdefault(qseries._fold_depth(size, len(starts), step), (size, step))
        assert sorted(cases) == list(range(1, 10))
        for depth, (size, step) in cases.items():
            window = [rng.randint(-9, 9) for _ in range(size)]
            sign, power = BINOMIAL_CASES[depth % len(BINOMIAL_CASES)]
            got = list(window)
            qseries._binomial_product_inplace(got, starts, step, sign, power)
            assert got == binomial_product_by_factors(window, starts, step, sign, power), depth

    def test_inexact_round_raises(self, monkeypatch):
        # Running sums at the wrong stride make W * P_k wrong, and the
        # second round's sum is then not divisible by 2.
        real = qseries._div_binomial_inplace
        monkeypatch.setattr(qseries, "_div_binomial_inplace", lambda window, exponent: real(window, exponent + 1))
        with pytest.raises(ArithmeticError):
            qseries._binomial_product_inplace([1] + [0] * 599, (1,), 1, -1)


class TestDivideBinomial:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=200),
        st.integers(1, 250),
    )
    @example([3, -1, 4], 1)
    @example([2] * 200, 14)  # 14^2 < 200: residue-class pass
    @example([2] * 200, 15)  # 15^2 >= 200: block pass
    @example([5, 7], 2)  # exponent >= length leaves the window alone
    def test_matches_coefficient_loop(self, window, exponent):
        want = list(window)
        for x in range(exponent, len(want)):
            want[x] += want[x - exponent]
        got = list(window)
        qseries._div_binomial_inplace(got, exponent)
        assert got == want

    def test_restricted_partitions_match_loops_around_every_fold_threshold(self):
        # Every excluded subset of every modulus 2..6, at the window lengths
        # on both sides of each change of fold depth below 700.  The series
        # at order N is the order-701 oracle truncated, as the factors
        # (1 - q^j) with j >= N are 1 mod q^N.
        for modulus in range(2, 7):
            for excluded in itertools.chain.from_iterable(
                itertools.combinations(range(modulus), size) for size in range(modulus + 1)
            ):
                progressions = modulus - len(excluded)
                thresholds = [
                    order
                    for order in range(2, 701)
                    if qseries._fold_depth(order, progressions, modulus)
                    != qseries._fold_depth(order - 1, progressions, modulus)
                ]
                oracle = restricted_partition_gf_by_loops(excluded, modulus, 701)
                for order in {1, 2, 7} | {o for t in thresholds for o in (t - 1, t)}:
                    assert restricted_partition_gf(excluded, modulus, order) == oracle.truncate(order), (
                        modulus,
                        excluded,
                        order,
                    )

    def test_restricted_partitions_match_loops_at_high_order(self):
        excluded = {0, 7, 8}
        assert restricted_partition_gf(excluded, 15, 3001) == restricted_partition_gf_by_loops(
            excluded, 15, 3001
        )


@st.composite
def theta_parameters(draw):
    """(r, s, order) with |r|, |s| <= 3000, r + s > 0 and order in [-3, 300].
    Half the draws set s - r = (2m + 1)(r + s), where the alternating terms
    j and -(2m + 1) - j share an exponent and cancel."""
    order = draw(st.integers(-3, 300))
    if draw(st.booleans()):
        t = draw(st.integers(1, 3000))
        m = draw(st.integers(-(3000 // t), 3000 // t - 1))
        return -m * t, (m + 1) * t, order
    s = draw(st.integers(-2999, 3000))
    return draw(st.integers(max(-3000, 1 - s), 3000)), s, order


class TestTheta:
    def test_pentagonal_equivalence(self):
        assert theta_g(1, 2, 300) == euler_phi(300)

    def test_degenerate_alternating_series_vanish(self):
        for m in range(1, 12):
            assert theta_g(0, m, 200).is_zero

    def test_matches_term_sum(self):
        # Every term summed one by one, negative indices included: the window
        # sized from the vertex and the index range must agree with it, also
        # where an odd integer (r - s) / (r + s) cancels every alternating term.
        for r in range(-6, 13):
            for s in range(-6, 13):
                if r + s <= 0:
                    continue
                for order in (-3, 0, 1, 7, 60):
                    for sign, build in ((1, theta_f), (-1, theta_g)):
                        terms = {}
                        for j in range(-40, 41):
                            e = (r * j * (j - 1) + s * j * (j + 1)) // 2
                            if e < order:
                                terms[e] = terms.get(e, 0) + sign ** (j % 2)
                        series = build(r, s, order)
                        assert series.order == order
                        assert series_to_dict(series) == {e: c for e, c in terms.items() if c}, (r, s, order)

    @settings(max_examples=200, deadline=None)
    @given(theta_parameters())
    @example((0, 15, 300))  # lemma 5.4's vanishing g(1, q^15)
    @example((-858, 2621, 300))  # the residue block with the largest exponent for n <= 41
    @example((-2999, 3000, -3))  # weight 1, lowest exponent near -4.5 million
    def test_matches_term_sum_at_block_scale(self, case):
        r, s, order = case
        for sign, build in ((1, theta_f), (-1, theta_g)):
            series = build(r, s, order)
            assert series.order == order
            assert series_to_dict(series) == theta_by_terms(r, s, order, sign), (r, s, order, sign)

    def test_symmetry_grid(self):
        for r in range(11):
            for s in range(r, 11):
                if r + s == 0:
                    continue
                assert theta_f(r, s, 120) == theta_f(s, r, 120)
                assert theta_g(r, s, 120) == theta_g(s, r, 120)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            theta_f(0, 0, 10)
        with pytest.raises(ValueError):
            theta_g(5, -6, 10)

    def test_negative_first_exponent_gives_laurent_tail(self):
        s = theta_g(-3, 18, 50)
        assert s.lowest == -3


class TestTripleProduct:
    def test_specific_f_cases(self):
        for r, s in ((1, 1), (1, 2), (3, 5), (5, 3), (1, 7)):
            assert triple_product_f(r, s, 200) == theta_f(r, s, 200), (r, s)

    def test_g_pentagonal(self):
        assert triple_product_g(1, 2, 200) == euler_phi(200)

    def test_constant_terms(self):
        assert triple_product_g(1, 1, 50).coeff(0) == 1

    def test_degenerate_factor(self):
        assert triple_product_g(0, 15, 80) == theta_g(0, 15, 80)
        assert triple_product_f(0, 4, 80) == theta_f(0, 4, 80)

    @pytest.mark.parametrize("order", [1, 2, 37, 200, 400])
    def test_matches_three_family_oracle(self, order):
        # r = 0 or s = 0 covers both degenerate cases: the g form vanishes,
        # the f form doubles.
        for r in range(13):
            for s in range(13):
                if r + s == 0:
                    continue
                assert triple_product_f(r, s, order) == triple_product_by_families(r, s, order, +1), (r, s)
                assert triple_product_g(r, s, order) == triple_product_by_families(r, s, order, -1), (r, s)

    def test_matches_three_family_oracle_at_high_order(self):
        # Fold depths 3 to 7 at this order; r = s gives a repeated
        # progression, r = 0 or s = 0 the degenerate factor.
        for r, s in ((0, 7), (9, 0), (1, 1), (1, 2), (3, 5), (10, 10), (2, 9)):
            assert triple_product_f(r, s, 1200) == triple_product_by_families(r, s, 1200, +1), (r, s)
            assert triple_product_g(r, s, 1200) == triple_product_by_families(r, s, 1200, -1), (r, s)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            triple_product_f(-1, 3, 10)
        with pytest.raises(ValueError):
            triple_product_g(2, -2, 10)

    def test_rejects_nonpositive_order(self):
        # The order check sits in euler_phi; the vanishing g form with
        # r = 0 or s = 0 must reach it before returning zero.
        for r in range(4):
            for s in range(4):
                if r + s == 0:
                    continue
                for order in (0, -1):
                    for build in (triple_product_f, triple_product_g):
                        with pytest.raises(ValueError, match="order must be at least 1"):
                            build(r, s, order)


class TestTransformLaw:
    def test_named_cases(self):
        assert transform_check(-1, 9, 200)
        assert transform_check(-3, 18, 200)
        assert transform_check(1, 1, 200)

    def test_grid(self):
        for r in range(-5, 11):
            for s in range(max(1 - r, -20), 21):
                assert transform_check(r, s, 200), (r, s)


class TestDeterminant:
    def test_small_cases(self):
        a = euler_phi(20)
        assert det([[a]]) == a
        b = QSeries.from_coeffs([1, 1], 20)
        c = QSeries.from_coeffs([0, 1], 20)
        d2 = QSeries.from_coeffs([1, -1], 20)
        assert det([[a, b], [c, d2]]) == a * d2 - b * c
        for order in (-1, 0):
            zeros = [[QSeries.zero(order)] * 3 for _ in range(3)]
            assert det(zeros) == QSeries.zero(order)
            assert cofactors(zeros) == (QSeries.zero(order),) * 3

    @pytest.mark.parametrize("row", [0, 1, 2], ids=["top", "middle", "bottom"])
    def test_negative_valuation_raises(self, row):
        a = QSeries.from_coeffs([1, 2, 3], 3, lowest=-1)
        mat = [[QSeries.one(3)] * 3 for _ in range(3)]
        mat[row] = [QSeries.one(3), a, QSeries.zero(3)]
        for fn in (det, cofactors):
            with pytest.raises(ValueError, match="valuation"):
                fn(mat)
        with pytest.raises(ValueError, match="valuation"):
            det([[a]])

    def test_against_permanent_style_expansion(self):
        rng = random.Random(6)
        order = 16
        mat = [[rand_series(rng, order) for _ in range(3)] for _ in range(3)]
        expected = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
        assert det(mat) == expected

    @pytest.mark.parametrize(
        "size, order, min_lowest, magnitude, zero_share, zero_row",
        [
            pytest.param(7, 6, 0, 9, 0, None, id="7-6-0"),
            # The packed expansion runs from size 3 on; the comments give
            # its slot width in bits.
            (1, 40, 0, 9, 0, None),
            (2, 40, 0, 2**70, 0.3, None),
            (3, 1, 0, 3, 0, None),  # 5
            (4, 3, 0, 1, 0, None),  # 7
            (3, 40, 0, 9, 0.3, None),  # 12
            (5, 12, 0, 1, 0.5, None),  # 15
            (4, 12, 0, 9, 0, 0),  # 21; a zero row 0, under nonzero cofactors
            (4, 12, 0, 9, 0, 3),  # 1; a zero bottom row
            (5, 12, 0, 9, 0.2, 2),  # 21; a zero middle row
            (6, 8, 0, 2**9, 0.2, None),  # 63
            (6, 8, 0, 2**10, 0.2, None),  # 68
            (3, 17, 0, 2**70, 0, None),  # 146
            (4, 25, 0, 2**70, 0.3, None),  # 220
            (7, 3, 0, 2**70, 0.3, None),  # 432
        ],
    )
    def test_against_permutation_sum(self, size, order, min_lowest, magnitude, zero_share, zero_row):
        rng = random.Random(7)
        mat = rand_matrix(rng, size, order, 2, min_lowest, magnitude, zero_share, zero_row)
        dicts = [[series_to_dict(entry) for entry in row] for row in mat]
        got = det(mat)
        assert got.order == order
        assert series_to_dict(got) == leibniz_det(dicts, order)
        cof = cofactors(mat)
        for i in range(size):
            minor = [row[:i] + row[i + 1:] for row in dicts[1:]]
            expected = leibniz_det(minor, order) if minor else {0: 1}
            assert series_to_dict(cof[i]) == {e: (-1) ** i * c for e, c in expected.items()}, i
            assert cof[i].order == order

    @pytest.mark.parametrize(
        "min_lowest, order, magnitude, zero_share",
        [
            pytest.param(0, 12, 9, 0, id="0"),
            (0, 1, 2**70, 0.3),
            (0, 40, 2**70, 0.3),
            (0, 25, 1, 0.5),
        ],
    )
    def test_cofactors_expand_the_determinant(self, min_lowest, order, magnitude, zero_share):
        rng = random.Random(8)
        for size in (1, 2, 4, 7):
            mat = rand_matrix(rng, size, order, 3, min_lowest, magnitude, zero_share)
            cof = cofactors(mat)
            assert all(c.order == order for c in cof)
            total = QSeries.zero(order)
            for entry, c in zip(mat[0], cof):
                total = total + entry * c
            assert total == det(mat)
            if size > 1:
                minor = [row[1:] for row in mat[1:]]
                assert cof[0] == det(minor)
                minor = [row[:1] + row[2:] for row in mat[1:]]
                assert cof[1] == -det(minor)

    @pytest.mark.parametrize("size, slot", [(s, w) for s in (3, 4, 7) for w in (7, 8, 9, 16, 17, 64, 65, 141) if w > s])
    @pytest.mark.parametrize("top, sign", [(False, 1), (False, -1), (True, 1), (True, -1)])
    def test_packed_cofactor_at_the_slot_bound(self, size, slot, top, sign):
        # Row r >= 1 of a diagonal matrix holds d_r q^(e_r), so cofactor 0
        # is the one product prod d_r q^(sum e_r).  It meets the slot bound,
        # max|bottom| times the sums of the middle rows, exactly: it is
        # +-3 * 2^(slot - 3), which needs `slot` signed bits, so a slot one
        # bit narrower cannot hold it.
        order = 30
        diag = [2] * (size - 2) + [sign * 3 << (slot - 1 - size)]
        # the product lands on the window's last slot, or inside it
        spread = order - 1 if top else order // 2
        exps = [spread // (size - 1) + (r < spread % (size - 1)) for r in range(size - 1)]
        mat = [[QSeries.one(order)] + [QSeries.zero(order)] * (size - 1)]
        for r, (d, e) in enumerate(zip(diag, exps), start=1):
            mat.append([QSeries.monomial(d, e, order) if col == r else QSeries.zero(order) for col in range(size)])
        cof = cofactors(mat)
        assert cof[0] == QSeries.monomial(sign * 3 << (slot - 3), spread, order)
        assert all(c.is_zero for c in cof[1:])
        assert det(mat) == cof[0]

    def test_one_expansion_per_matrix(self, monkeypatch):
        built = []
        real = qseries._packed_laplace
        monkeypatch.setattr(qseries, "_packed_laplace", lambda rows: built.append("_packed_laplace") or real(rows))
        qseries._cofactors.cache_clear()
        rng = random.Random(9)
        first, second = ([[rand_series(rng, 10) for _ in range(4)] for _ in range(4)] for _ in range(2))
        d = det(first)
        assert cofactors([list(row) for row in first]) == cofactors(first)
        assert built == ["_packed_laplace"]
        c = cofactors(second)
        assert det(second) == sum((e * x for e, x in zip(second[0], c)), QSeries.zero(10))
        assert built == ["_packed_laplace"] * 2
        assert qseries._cofactors.cache_info().currsize == 1
        assert det(first) == d
        assert built == ["_packed_laplace"] * 3
        # A matrix with an entry of negative valuation is rejected unexpanded.
        third = [list(row) for row in first]
        third[2][1] = QSeries.monomial(1, -1, 10)
        for fn in (det, cofactors):
            with pytest.raises(ValueError):
                fn(third)
        assert built == ["_packed_laplace"] * 3

    def test_two_by_two_packs_nothing(self, monkeypatch):
        # The cofactors of a 2 x 2 matrix are its bottom entries themselves.
        def forbidden(*args):
            raise AssertionError("packed a 2 x 2 matrix")

        rng = random.Random(10)
        mat = [[rand_series(rng, 30) for _ in range(2)] for _ in range(2)]
        expected = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        monkeypatch.setattr(qseries, "_pack", forbidden)
        qseries._cofactors.cache_clear()
        assert cofactors(mat) == (mat[1][1], -mat[1][0])
        # det reuses those cofactors; only its row-0 products may pack
        monkeypatch.undo()
        assert det(mat) == expected

    def test_rejects_bad_shapes(self):
        a = QSeries.one(5)
        with pytest.raises(ValueError):
            det([[a, a]])
        assert det([[QSeries.one(7)] * 7 for _ in range(7)]).is_zero
        with pytest.raises(OrderMismatchError):
            det([[QSeries.one(5), QSeries.one(6)], [QSeries.one(5), QSeries.one(5)]])


class TestRestrictedPartitions:
    def test_trivia(self):
        assert restricted_partition_gf({0, 7, 8}, 15, 10).coeff(0) == 1
        assert restricted_partition_gf(set(range(15)), 15, 30) == QSeries.one(30)
        assert restricted_partition_gf(set(), 15, 10).coeff(5) == 7

    def test_against_brute_force(self):
        for excluded in ({0, 7, 8}, {0, 2, 13}, {0, 4, 11}, {0, 1, 14}):
            series = restricted_partition_gf(excluded, 15, 26)
            for m in range(26):
                want = count_partitions(m, allowed=lambda p: p % 15 not in excluded)
                assert series.coeff(m) == want, (excluded, m)


@st.composite
def comparable_pairs(draw):
    """Two series at one order: the same object, an equal copy, a
    one-term perturbation, or an independent draw."""
    order = draw(st.integers(1, 40))
    a = draw(series(order))
    how = draw(st.sampled_from(("same", "copy", "perturbed", "independent")))
    if how == "same":
        return a, a
    if how == "copy":
        return a, QSeries.from_coeffs(list(a.coeffs), order, a.lowest)
    if how == "perturbed":
        term = QSeries.monomial(draw(coefficients.filter(bool)), draw(st.integers(-3, order - 1)), order)
        return a, a + term
    return a, draw(series(order))


class TestFirstDifference:
    def test_reports_smallest_exponent(self):
        a = euler_phi(30)
        b = a + QSeries.monomial(5, 7, 30)
        assert first_difference(a, b) == (7, a.coeff(7), a.coeff(7) + 5)
        assert first_difference(a, a) is None

    @settings(max_examples=200, deadline=None)
    @given(comparable_pairs())
    @example((QSeries.zero(5), QSeries.zero(5)))
    @example((QSeries.zero(5), QSeries.monomial(1, -2, 5)))
    @example((QSeries.monomial(2, -3, 4), QSeries.monomial(2, -3, 4)))
    def test_none_exactly_when_equal(self, pair):
        a, b = pair
        diff = first_difference(a, b)
        assert (diff is None) == (a == b)
        scan = ((e, a.coeff(e), b.coeff(e)) for e in range(-3, a.order))
        assert diff == next((d for d in scan if d[1] != d[2]), None)


def test_partitions_of_oracle_is_sound():
    # The oracle underpins many expected values; pin its own counts.
    assert sum(1 for _ in partitions_of(8)) == 22
    assert count_partitions(0) == 1
    assert count_partitions(-1) == 0
