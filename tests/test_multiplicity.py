import pytest

from qcrystal import multiplicity, qseries as qs
from qcrystal.multiplicity import (
    NonUnitDeterminantError,
    UnsupportedModulusError,
    coefficient_matrix,
    count_by_component,
    count_maximal_shapes,
    entry_via_separation,
    gf_comb,
    gf_theta,
    master_coefficient,
    master_discrepancy,
    multiplicity_table,
    residue_block,
    theta_branch,
)
from qcrystal.qseries import QSeries, euler_phi, theta_f, theta_g
from qcrystal.weightlat import classify_maximal
from qcrystal.young import EMPTY, Partition, color_counts, enumerate_maximal_shapes

from helpers import count_distinct_odd, multiplicity_table_by_filter

# Known decomposition table for n=3: multiplicities and witness shapes.
TABLE_N3_I0 = {
    0: (1, ["()"]),
    1: (0, []),
    2: (1, ["(4,1^2)"]),
    3: (2, ["(7,1^2)", "(4,3,2)"]),
    4: (3, ["(10,1^2)", "(7,3,2)", "(5^2,2)"]),
    5: (4, ["(13,1^2)", "(10,3,2)", "(7,6,2)", "(7,4^2)"]),
    6: (7, ["(16,1^2)", "(13,3,2)", "(10,6,2)", "(10,4^2)", "(8^2,2)", "(7,6,5)", "(5^2,3^2,1^2)"]),
}
TABLE_N3_I1 = {
    1: (1, ["(1)"]),
    2: (2, ["(4)", "(2^2)"]),
    3: (2, ["(7)", "(4,3)"]),
    4: (4, ["(10)", "(7,3)", "(5^2)", "(4,3,2,1)"]),
    5: (5, ["(13)", "(10,3)", "(7,6)", "(7,3,2,1)", "(5^2,2,1)"]),
    6: (8, ["(16)", "(13,3)", "(10,6)", "(10,3,2,1)", "(8^2)", "(7,6,2,1)", "(7,4^2,1)", "(5^2,3^2)"]),
    7: (11, ["(19)", "(16,3)", "(13,6)", "(13,3,2,1)", "(10,9)", "(10,6,2,1)", "(10,4^2,1)", "(8^2,2,1)", "(7,6,5,1)", "(7,6,3^2)", "(7,4^2,2^2)"]),
}


class TestTable:
    def test_reproduces_known_table(self):
        table = multiplicity_table(3, 7)
        for k, (b, wits) in TABLE_N3_I0.items():
            entry = table.entries[(0, k)]
            assert entry.count == b
            assert sorted(str(w) for w in entry.witnesses) == sorted(wits)
        for k, (b, wits) in TABLE_N3_I1.items():
            entry = table.entries[(1, k)]
            assert entry.count == b
            assert sorted(str(w) for w in entry.witnesses) == sorted(wits)

    def test_trivial_table(self):
        table = multiplicity_table(2, 0)
        assert table.entries[(0, 0)].count == 1
        assert table.entries[(0, 0)].witnesses == (EMPTY,)

    def test_witness_cap(self):
        table = multiplicity_table(3, 6, witness_cap=2)
        entry = table.entries[(0, 6)]
        assert entry.count == 7
        assert len(entry.witnesses) == 2
        assert entry.omitted == 5

    def test_rejects_negative_witness_cap(self):
        with pytest.raises(ValueError):
            multiplicity_table(3, 4, witness_cap=-1)

    @pytest.mark.parametrize("n, max_k", [(4, 10), (8, 6), (9, 6)])
    @pytest.mark.parametrize("witness_cap", [None, 0, 2])
    def test_matches_per_entry_filter(self, n, max_k, witness_cap):
        # Moduli where two components share a box residue, so one box
        # count feeds two entries and holds labels beyond max_k.
        table = multiplicity_table(n, max_k, witness_cap)
        got = {
            key: (e.count, tuple(w.pairs for w in e.witnesses), e.omitted)
            for key, e in table.entries.items()
        }
        assert got == multiplicity_table_by_filter(n, max_k, witness_cap)

    def test_classifies_once_per_color_vector(self, monkeypatch):
        calls = []

        def counting(p, n):
            calls.append(p)
            return classify_maximal(p, n)

        monkeypatch.setattr(multiplicity, "classify_maximal", counting)
        table = multiplicity_table(2, 40)
        box_counts = {i * i + (k - i) * 2 for i, k in table.entries}
        shapes = [p for boxes in box_counts for p in enumerate_maximal_shapes(2, boxes)]
        vectors = {color_counts(p, 2) for p in shapes}
        assert len(calls) == len(vectors)
        assert 20 * len(calls) < len(shapes)
        assert sum(e.count for e in table.entries.values()) == len(shapes)

    def test_entries_classify_back(self):
        table = multiplicity_table(4, 5)
        for (i, k), entry in table.rows():
            assert k >= i
            for w in entry.witnesses:
                assert classify_maximal(w, 4) == (i, k)


class TestCounting:
    def test_counts_match_enumeration(self):
        for n in range(2, 14):
            for boxes in range(26):
                members = enumerate_maximal_shapes(n, boxes)
                by_class = [0] * (n // 2 + 1)
                for m in members:
                    by_class[classify_maximal(m, n).i] += 1
                assert list(count_by_component(n, boxes)) == by_class, (n, boxes)
                assert count_maximal_shapes(n, boxes) == len(members)

    def test_negative_boxes(self):
        assert count_maximal_shapes(3, -2) == 0

    def test_table_cache_is_bounded(self):
        for n in range(2, 20):
            count_by_component(n, 10)
        assert len(multiplicity._tables) <= multiplicity._TABLE_CACHE_SIZE

    def test_slot_overflow_is_detected(self):
        assert multiplicity._unpack(0b011_001, 3, 2) == (1, 3)
        with pytest.raises(OverflowError):
            multiplicity._unpack(0b100_001, 3, 2)
        with pytest.raises(OverflowError):
            multiplicity._unpack(0b1_000_001, 3, 2)


class TestCombSeries:
    def test_table_columns(self):
        assert gf_comb(0, 3, 7).coefficient_list() == [1, 0, 1, 2, 3, 4, 7]
        assert gf_comb(1, 3, 7).coefficient_list() == [1, 2, 2, 4, 5, 8, 11]

    def test_distinct_odd_interpretation(self):
        got = gf_comb(0, 2, 12).coefficient_list()
        assert got[:6] == [1, 0, 1, 1, 2, 2]
        assert got == [count_distinct_odd(2 * k) for k in range(12)]
        assert gf_comb(1, 2, 12).coefficient_list() == [
            count_distinct_odd(2 * (k + 1) - 1) for k in range(12)
        ]

    def test_rejects_bad_component(self):
        with pytest.raises(ValueError):
            gf_comb(2, 3, 5)

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError):
            gf_comb(0, 1, 5)
        with pytest.raises(ValueError):
            gf_comb(0, 0, 3)

    def test_counts_wider_than_a_machine_word(self):
        # Coefficient k of the n=2, i=0 series counts partitions of 2k into
        # distinct odd parts: the even-exponent coefficients of
        # prod (1 + q^(2j-1)), built here by a plain list DP.
        order = 1000
        top = 2 * (order - 1)
        product = [1] + [0] * top
        for odd in range(1, top + 1, 2):
            for x in range(top, odd - 1, -1):
                product[x] += product[x - odd]
        got = gf_comb(0, 2, order).coefficient_list()
        assert got == product[::2]
        assert max(got).bit_length() > 64

    def test_matches_theta_route_on_proven_moduli(self):
        for n in (2, 3, 5, 7, 11):
            for i in range(n // 2 + 1):
                assert gf_comb(i, n, 200) == gf_theta(i, n, 200), (n, i)


class TestBlocks:
    def test_master_coefficient_forms(self):
        assert master_coefficient(0, 3, 60) == theta_g(1, 4, 60)
        assert master_coefficient(1, 2, 60) == theta_g(3, 1, 59).shift(1)

    def test_residue_block_forms(self):
        assert residue_block(0, 0, 3, 80) == theta_g(6, 9, 80)
        assert residue_block(0, 0, 2, 80) == theta_f(5, 3, 80)
        # Negative first exponent normalizes through the index shift.
        assert residue_block(1, 2, 3, 80) == -(theta_g(12, 3, 83).shift(-3))

    def test_master_coefficient_decomposes_into_blocks(self):
        order = 120
        for n in range(2, 8):
            for i in range(n // 2 + 1):
                direct = master_coefficient(i, n, order)
                total = QSeries.zero(order)
                for t in range(n):
                    shift = n * t * (t - 1) // 2 + (t + i) ** 2
                    block_order = -(-(order - shift) // n)
                    term = (
                        residue_block(i, t, n, block_order)
                        .expand(n)
                        .shift(shift)
                        .truncate(order)
                    )
                    total = total + (term if t % 2 == 0 else -term)
                assert direct == total, (n, i)


class TestMatrix:
    def test_branch_classification(self):
        assert theta_branch(2) == ("two-p", True)
        assert theta_branch(3) == ("odd-prime", True)
        assert theta_branch(5) == ("odd-prime", True)
        assert theta_branch(6) == ("two-p", True)
        assert theta_branch(9) == ("odd-conjectured", False)
        assert theta_branch(4) == ("even-conjectured", False)
        assert theta_branch(10) == ("two-p", True)

    def test_unsupported_without_flag(self):
        with pytest.raises(UnsupportedModulusError):
            coefficient_matrix(9, 10)
        with pytest.raises(UnsupportedModulusError):
            gf_theta(0, 4, 10)

    def test_n2_entries_explicit(self):
        order = 100
        m = coefficient_matrix(2, order)
        f53 = theta_f(5, 3, order)
        f17 = theta_f(1, 7, order)
        assert m[0][0] == f53
        assert m[0][1] == -(theta_f(1, 7, order - 1).shift(1))
        assert m[1][0] == -f17
        assert m[1][1] == f53
        disc = f53 * f53 - (f17 * f17).shift(1).truncate(order)
        assert qs.det(m) == disc

    def test_n3_determinant_is_squared_euler_product(self):
        order = 300
        assert qs.det(coefficient_matrix(3, order)) == euler_phi(order) ** 2

    def test_n3_determinant_matches_displayed_expansion(self):
        order = 120
        m = coefficient_matrix(3, order)

        def sh(series, by):
            return series.shift(by).truncate(order)

        displayed = theta_g(6, 9, order) * (
            theta_g(7, 8, order) - sh(theta_g(2, 13, order), 1)
        ) - sh(
            theta_g(12, 3, order)
            * (theta_g(4, 11, order) + sh(theta_g(1, 14, order), 1)),
            1,
        )
        assert qs.det(m) == displayed

    def test_entries_have_nonnegative_valuation(self):
        for n in (2, 3, 5, 6):
            m = coefficient_matrix(n, 40)
            for row in m:
                for entry in row:
                    assert entry.is_zero or entry.lowest >= 0

    def test_separation_rebuild_matches(self):
        for n in (2, 3, 5, 6):
            m = coefficient_matrix(n, 30)
            for j in range(len(m)):
                for i in range(len(m)):
                    assert entry_via_separation(j, i, n, 30) == m[j][i], (n, j, i)

    def test_presubstitution_support_lives_in_residue_class(self):
        # Rebuilt entries raise if any retained exponent escapes the class
        # of j^2 mod n; running them over the proven moduli is the check.
        for n in (2, 3, 5, 6):
            for j in range(n // 2 + 1):
                for i in range(n // 2 + 1):
                    entry_via_separation(j, i, n, 20)


class TestThetaSeries:
    def test_quotient_forms_for_small_moduli(self):
        order = 150
        phi_inv = euler_phi(order).invert()
        b0 = gf_theta(0, 3, order)
        b1 = gf_theta(1, 3, order)
        assert b0 == (theta_g(7, 8, order) - theta_g(2, 13, order - 1).shift(1)) * phi_inv
        assert b1 == (theta_g(4, 11, order) + theta_g(1, 14, order - 1).shift(1)) * phi_inv

        f53 = theta_f(5, 3, order)
        f17 = theta_f(1, 7, order)
        disc = f53 * f53 - (f17 * f17).shift(1).truncate(order)
        disc_inv = disc.invert()
        assert gf_theta(0, 2, order) == euler_phi(order) * f53 * disc_inv
        assert gf_theta(1, 2, order) == euler_phi(order) * f17 * disc_inv

    def test_constant_term_is_one(self):
        for n in (2, 3, 5, 6):
            for i in range(n // 2 + 1):
                assert gf_theta(i, n, 10).coeff(0) == 1

    def test_pipelines_agree(self):
        for n, order in ((2, 30), (3, 30), (5, 12), (6, 12)):
            for i in range(n // 2 + 1):
                assert gf_comb(i, n, order) == gf_theta(i, n, order), (n, i)

    def test_two_p_branch_with_deeper_determinant_valuation(self):
        # n = 10 (twice the odd prime 5) has determinant valuation 3; the
        # quotient must still be exact and match enumeration.
        for i in range(6):
            assert gf_comb(i, 10, 8) == gf_theta(i, 10, 8), i

    def test_small_orders_survive_determinant_valuation(self):
        # At order 1 the n=6 determinant truncates to zero; the solve's
        # known headroom (its valuation, 1) must still recover the
        # constant term.
        assert gf_theta(0, 6, 1).coefficient_list() == [1]
        assert gf_theta(3, 6, 2).coefficient_list() == [1, 1]

    def test_proven_moduli_beyond_six_by_six(self):
        # n = 13, 14, 17 assemble 7x7, 8x8 and 9x9 matrices.
        for n in (13, 14, 17):
            for i in range(n // 2 + 1):
                assert gf_theta(i, n, 40) == gf_comb(i, n, 40), (n, i)

    def test_components_share_one_solve(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return coefficient_matrix(*args, **kwargs)

        monkeypatch.setattr(multiplicity, "coefficient_matrix", counting)
        multiplicity._theta_solve.cache_clear()
        # The n = 5 determinant has valuation 0, so the solve needs no
        # headroom above the requested order.
        series = [gf_theta(i, 5, 30) for i in range(3)]
        assert calls == [(5, 30, False)]
        assert series == list(multiplicity.theta_solution(5, 30))
        assert len(calls) == 1

    def test_solve_builds_one_matrix_at_known_headroom(self, monkeypatch):
        calls, dets = [], []

        def counting(*args, **kwargs):
            calls.append(args)
            return coefficient_matrix(*args, **kwargs)

        def counting_det(matrix):
            dets.append(len(matrix))
            return real_det(matrix)

        real_det = qs.det
        monkeypatch.setattr(multiplicity, "coefficient_matrix", counting)
        monkeypatch.setattr(qs, "det", counting_det)
        # Headroom = sum of floor(j^2 / n) over j <= n / 2.
        for n, headroom in ((6, 1), (7, 1), (10, 3), (11, 3)):
            multiplicity._theta_solve.cache_clear()
            calls.clear()
            dets.clear()
            series = multiplicity.theta_solution(n, 12)
            assert calls == [(n, 12 + headroom, False)], n
            assert dets == [n // 2 + 1], n
            assert all(s.order == 12 for s in series)

    def test_determinant_vanishing_beyond_headroom_is_singular(self, monkeypatch):
        # Pretend the n = 6 determinant (valuation 1) needs no headroom: at
        # order 1 it truncates to zero, at order 10 its valuation exceeds 0.
        monkeypatch.setattr(multiplicity, "_determinant_valuation", lambda n: 0)
        multiplicity._theta_solve.cache_clear()
        for order in (1, 10):
            with pytest.raises(NonUnitDeterminantError):
                multiplicity.theta_solution(6, order)

    def test_proven_modulus_with_deep_determinant_valuation(self):
        # n = 31 is proven, and its determinant vanishes to order 34.
        assert theta_branch(31) == ("odd-prime", True)
        assert multiplicity._determinant_valuation(31) == 34
        for i, s in enumerate(multiplicity.theta_solution(31, 3)):
            assert s == gf_comb(i, 31, 3), i

    def test_solution_cache_is_bounded(self):
        for n in (2, 3, 5, 7, 11):
            for order in (3, 4):
                multiplicity.theta_solution(n, order)
        assert multiplicity._theta_solve.cache_info().currsize <= 8

    def test_conjectured_moduli_report_only(self):
        # The construction is applied blindly for n = 4 and 9; agreement
        # with enumeration is recorded here as an observation, and the
        # point of the test is that both pipelines run without crashing.
        observations = {}
        for n in (4, 9):
            try:
                observations[n] = all(
                    gf_comb(i, n, 20) == gf_theta(i, n, 20, conjecture=True)
                    for i in range(n // 2 + 1)
                )
            except NonUnitDeterminantError as exc:
                observations[n] = f"not solvable: {exc}"
        print(f"conjectured-branch agreement: {observations}")


class TestMasterIdentity:
    def test_holds_with_comb_series(self):
        assert master_discrepancy(2, 120) is None
        assert master_discrepancy(4, 60) is None

    def test_holds_with_theta_series(self):
        series = [gf_theta(i, 3, 40) for i in range(2)]
        assert master_discrepancy(3, 120, series=series) is None

    def test_holds_with_supplied_series(self):
        series = [gf_comb(i, 3, 40) for i in range(2)]
        assert master_discrepancy(3, 120, series=series) is None

    def test_detects_perturbation(self):
        series = [gf_comb(i, 3, 40) for i in range(2)]
        series[0] = series[0] + QSeries.monomial(1, 2, 40)
        diff = master_discrepancy(3, 120, series=series)
        assert diff is not None
        assert (master_discrepancy(3, 120, series=series) is None) is False

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            master_discrepancy(3, 121, series=[gf_comb(i, 3, 40) for i in range(2)])
