import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from qcrystal import identities, multiplicity, qseries
from qcrystal.identities import (
    IdentityReport,
    check_lemma_5_1,
    check_lemma_5_2,
    check_lemma_5_3,
    check_lemma_5_4,
    check_master,
    check_theorem_5_1,
    check_triple_product,
    distinct_odd_sum_form,
)
from qcrystal.multiplicity import gf_comb
from qcrystal.qseries import OrderMismatchError, QSeries, euler_phi, first_difference, theta_f

from helpers import (
    count_distinct_odd,
    count_partitions,
    distinct_odd_sum_form_by_loops,
    partition_identity_counts,
)


class TestReport:
    def test_holds_follows_the_first_discrepancy(self):
        # `holds` is read off the discrepancy, so the two cannot disagree.
        assert [f.name for f in dataclasses.fields(IdentityReport)] == ["name", "order", "first_discrepancy"]
        assert IdentityReport("x", 10).holds and IdentityReport("x", 10, None).holds
        assert not IdentityReport("x", 10, (1, 2, 3)).holds
        assert not IdentityReport("x", 10, (0, 0, 0)).holds


class TestSumForms:
    def test_counts_partitions_with_distinct_odd_parts(self):
        s0, s1 = distinct_odd_sum_form(40)
        assert s0.coeff(0) == 1
        assert s1.coeff(1) == 1
        for k in range(40):
            assert s0.coeff(k) == count_distinct_odd(2 * k)
            assert s1.coeff(k) == count_distinct_odd(2 * k + 1)

    def test_ties_to_enumeration_series(self):
        assert distinct_odd_sum_form(40) == (gf_comb(0, 2, 40), gf_comb(1, 2, 40))

    @pytest.mark.parametrize("i", [0, 1])
    def test_matches_coefficient_loops_at_high_order(self, i):
        for order in (1189, 1200):
            assert distinct_odd_sum_form(order)[i] == distinct_odd_sum_form_by_loops(i, order)

    def test_matches_coefficient_loops_at_every_low_order(self):
        # Both components come from one pass whose inverse is cut as the
        # term exponents grow; small orders end that pass at every step.
        for order in range(1, 81):
            for i in (0, 1):
                assert distinct_odd_sum_form(order)[i] == distinct_odd_sum_form_by_loops(i, order), (i, order)


@st.composite
def multipliers(draw):
    """An order up to 60 and a series at that order with valuation >= 0,
    possibly zero, its coefficients small or wide."""
    order = draw(st.integers(1, 60))
    lowest = draw(st.integers(0, order - 1))
    values = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
    coeffs = draw(st.lists(values, max_size=order - lowest))
    return order, QSeries.from_coeffs(coeffs, order, lowest)


class TestSumFormTimes:
    @settings(max_examples=200, deadline=None)
    @given(multipliers(), st.sampled_from([0, 1]))
    def test_carries_any_multiplier_exactly(self, drawn, i):
        order, times = drawn
        assert distinct_odd_sum_form(order, times)[i] == distinct_odd_sum_form(order)[i] * times

    @pytest.mark.parametrize("order", [1, 2, 3, 150, 1189])
    def test_carries_the_theta_square_difference(self, order):
        disc = identities._two_core_pieces(order)[2]
        for i in (0, 1):
            assert distinct_odd_sum_form(order, disc)[i] == distinct_odd_sum_form_by_loops(i, order) * disc

    def test_rejects_a_multiplier_of_another_order(self):
        with pytest.raises(OrderMismatchError):
            distinct_odd_sum_form(40, QSeries.one(41))

    def test_rejects_a_multiplier_of_negative_valuation(self):
        with pytest.raises(ValueError):
            distinct_odd_sum_form(40, QSeries.monomial(1, -1, 40))

    def test_lemma_5_1_makes_no_packed_product(self, monkeypatch):
        calls = []
        packed = qseries._packed_product
        monkeypatch.setattr(
            qseries, "_packed_product", lambda *args: calls.append(args[2]) or packed(*args)
        )
        identities._two_core_pieces.cache_clear()
        assert check_lemma_5_1(1189).holds
        assert calls == []


class TestSeriesChecks:
    @pytest.mark.parametrize(
        "check", [check_lemma_5_1, check_lemma_5_2, check_lemma_5_3, check_lemma_5_4]
    )
    def test_holds_at_moderate_order(self, check):
        report = check(150)
        assert report.holds, report
        assert report.first_discrepancy is None

    @pytest.mark.parametrize(
        "check", [check_lemma_5_1, check_lemma_5_2, check_lemma_5_3, check_lemma_5_4]
    )
    def test_holds_at_order_one(self, check):
        assert check(1).holds

    def test_lemmas_5_1_and_5_2_share_one_build_of_their_pieces(self):
        identities._two_core_pieces.cache_clear()
        assert check_lemma_5_1(120).holds and check_lemma_5_2(120).holds
        info = identities._two_core_pieces.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 1, 1)

    def test_lemma_5_1_builds_both_sum_forms_in_one_pass(self, monkeypatch):
        calls = []
        real = identities.distinct_odd_sum_form
        monkeypatch.setattr(
            identities, "distinct_odd_sum_form", lambda *args: calls.append(args) or real(*args)
        )
        assert check_lemma_5_1(120).holds
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [1, 2, 3, 150, 1189])
    def test_lemma_5_3_inverts_once_and_substitutes_for_phi_q2(self, monkeypatch, order):
        inverses, expansions = [], []
        invert, expand = QSeries.invert, QSeries.expand
        monkeypatch.setattr(QSeries, "invert", lambda s: inverses.append(invert(s)) or inverses[-1])
        monkeypatch.setattr(QSeries, "expand", lambda s, k: expansions.append(expand(s, k)) or expansions[-1])
        assert check_lemma_5_3(order).holds
        assert len(inverses) == 1 and len(expansions) == 1
        assert expansions[0].truncate(order) == invert(euler_phi(order, stride=2))

    def test_sign_flip_fails_at_exponent_one(self):
        # Flipping the subtraction in the theta-square difference moves the
        # q^1 coefficient by twice the square's value there.
        order = 50
        f53 = theta_f(5, 3, order)
        f17 = theta_f(1, 7, order)
        flipped = f53 * f53 + (f17 * f17).shift(1).truncate(order)
        rhs = euler_phi(order) * euler_phi(order, stride=2)
        diff = first_difference(flipped, rhs)
        assert diff is not None and diff[0] == 1

    def test_perturbation_is_reported_with_location(self):
        order = 60
        lhs = euler_phi(order)
        rhs = euler_phi(order) + QSeries.monomial(3, 11, order)
        diff = first_difference(lhs, rhs)
        assert diff == (11, lhs.coeff(11), lhs.coeff(11) + 3)

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("e", [0, 1, 37, 149])  # 149: the last exponent at order 150
    def test_cleared_lemma_5_1_reports_a_perturbed_sum_form_where_it_breaks(
        self, monkeypatch, i, e
    ):
        # The check compares S_i * D, built with D as the multiplier, with
        # phi * theta_i.  D has constant term 1, so adding q^e to S_i, which
        # adds q^e * D to the product, moves S_i * D first at e, by 1.
        order = 150
        real = identities.distinct_odd_sum_form

        def perturbed(at_order, times):
            pair = list(real(at_order, times))
            pair[i] = pair[i] + QSeries.monomial(1, e, at_order) * times
            return tuple(pair)

        monkeypatch.setattr(identities, "distinct_odd_sum_form", perturbed)
        report = check_lemma_5_1(order)
        assert report.name == f"lemma5.1[i={i}]"
        exponent, lhs, rhs = report.first_discrepancy
        assert exponent == e
        assert lhs - rhs == 1

    def test_lemma_5_4_reports_a_nonvanishing_zero_term_where_it_starts(self, monkeypatch):
        # The n = 3 determinant never reads theta_g(0, 15), so only the
        # zero-term check sees the stand-in, and reports its own values.
        real = qseries.theta_g

        def nonvanishing(r, s, order):
            if (r, s) == (0, 15):
                return QSeries.from_coeffs([-4, 0, 9], order, lowest=7)
            return real(r, s, order)

        monkeypatch.setattr(qseries, "theta_g", nonvanishing)
        report = check_lemma_5_4(60)
        assert report.name == "lemma5.4[zero-term]"
        assert report.first_discrepancy == (7, -4, 0)


class TestCountingIdentities:
    def test_known_values(self):
        a6, _, c6, _ = partition_identity_counts(6)
        assert a6 == 7 and c6 == 7
        _, b2, _, d2 = partition_identity_counts(2)
        assert b2 == 2 and d2 == 2
        a0, b0, c0, d0 = partition_identity_counts(0)
        assert (a0, c0) == (1, 1)
        assert (b0, d0) == (0, 0)  # negative box counts count nothing
        _, b1, _, d1 = partition_identity_counts(1)
        assert b1 == 1 and d1 == 1

    def test_c_against_direct_restricted_counts(self):
        for k in range(12):
            _, _, c, d = partition_identity_counts(k)
            c_direct = count_partitions(
                k, allowed=lambda p: p % 15 not in {0, 7, 8}
            ) - count_partitions(k - 1, allowed=lambda p: p % 15 not in {0, 2, 13})
            d_direct = count_partitions(
                k - 1, allowed=lambda p: p % 15 not in {0, 4, 11}
            ) + count_partitions(k - 2, allowed=lambda p: p % 15 not in {0, 1, 14})
            assert c == c_direct and d == d_direct, k

    def test_theorem_check(self):
        report = check_theorem_5_1(30)
        assert report.holds
        assert check_theorem_5_1(0).holds

    def test_theorem_check_at_scale(self):
        assert check_theorem_5_1(1000).holds

    def test_theorem_check_builds_each_series_once(self, monkeypatch):
        orders = []
        real = qseries.restricted_partition_gf

        def counting(excluded, modulus, order):
            orders.append(order)
            return real(excluded, modulus, order)

        monkeypatch.setattr(qseries, "restricted_partition_gf", counting)
        assert check_theorem_5_1(40).holds
        assert orders == [41] * 4
        orders.clear()
        partition_identity_counts(7)
        assert orders == [8] * 4

    def test_theorem_check_builds_chain_table_once(self, monkeypatch):
        builds = []
        real = multiplicity._count_table

        def counting(n, boxes):
            builds.append((n, boxes))
            return real(n, boxes)

        monkeypatch.setattr(multiplicity, "_count_table", counting)
        multiplicity._tables.clear()
        assert check_theorem_5_1(200).holds
        assert builds == [(3, 601)]

    def test_theorem_check_reports_a_equals_c_before_b_equals_d(self, monkeypatch):
        true_count = identities.count_maximal_shapes
        wrong = {}  # box count -> error added to the true count

        def perturbed(n, boxes):
            return true_count(n, boxes) + wrong.get(boxes, 0)

        monkeypatch.setattr(identities, "count_maximal_shapes", perturbed)
        wrong.update({3 * 2 - 2: 1, 3 * 5: 1})  # b at k = 2, a at k = 5
        a5, _, c5, _ = partition_identity_counts(5)
        report = check_theorem_5_1(8)
        assert (report.name, report.first_discrepancy) == ("theorem5.1[a=c,k=5]", (5, a5, c5))
        assert a5 == c5 + 1
        wrong.pop(3 * 5)
        _, b2, _, d2 = partition_identity_counts(2)
        report = check_theorem_5_1(8)
        assert (report.name, report.first_discrepancy) == ("theorem5.1[b=d,k=2]", (2, b2, d2))
        assert not report.holds and b2 == d2 + 1


class TestMasterCheck:
    def test_reports(self):
        assert check_master(2, 80).holds
        assert check_master(5, 60).holds
        report = check_master(3, 60)
        assert report.holds and report.name == "master[n=3]"


class TestTripleProductCheck:
    def test_small_grid(self):
        assert check_triple_product(60).holds

    @pytest.mark.parametrize(
        "family, pair",
        [("theta_f", (7, 2)), ("theta_f", (2, 7)), ("theta_f", (5, 5)), ("theta_g", (0, 3))],
    )
    def test_names_the_ordered_pair_that_fails(self, monkeypatch, family, pair):
        order = 60
        true_sum = getattr(qseries, family)

        def perturbed(r, s, order):
            series = true_sum(r, s, order)
            return series + QSeries.monomial(1, 4, order) if (r, s) == pair else series

        monkeypatch.setattr(qseries, family, perturbed)
        report = check_triple_product(order)
        c4 = true_sum(*pair, order).coeff(4)
        assert report.name == f"triple-product[r={pair[0]},s={pair[1]}]"
        assert report.first_discrepancy == (4, c4 + 1, c4)

    def test_builds_each_product_once_per_unordered_pair(self, monkeypatch):
        built = {"triple_product_f": [], "triple_product_g": []}
        for name, pairs in built.items():
            real = getattr(qseries, name)

            def counting(r, s, order, real=real, pairs=pairs):
                pairs.append((r, s))
                return real(r, s, order)

            monkeypatch.setattr(qseries, name, counting)
        assert check_triple_product(60).holds
        for pairs in built.values():
            assert len(pairs) == len(set(pairs)) == 65
            assert all(r <= s for r, s in pairs)
