import pytest

from qcrystal import identities, multiplicity
from qcrystal.identities import (
    IdentityReport,
    _mod15_series,
    check_lemma_5_1,
    check_lemma_5_2,
    check_lemma_5_3,
    check_lemma_5_4,
    check_master,
    check_theorem_5_1,
    check_triple_product,
    distinct_odd_sum_form,
    partition_identity_counts,
)
from qcrystal.multiplicity import gf_comb
from qcrystal.qseries import QSeries, euler_phi, first_difference, theta_f

from helpers import count_distinct_odd, count_partitions


class TestReport:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            IdentityReport("x", 10, True, (1, 2, 3))
        with pytest.raises(ValueError):
            IdentityReport("x", 10, False, None)


class TestSumForms:
    def test_counts_partitions_with_distinct_odd_parts(self):
        s0 = distinct_odd_sum_form(0, 40)
        s1 = distinct_odd_sum_form(1, 40)
        assert s0.coeff(0) == 1
        assert s1.coeff(1) == 1
        for k in range(40):
            assert s0.coeff(k) == count_distinct_odd(2 * k)
            assert s1.coeff(k) == count_distinct_odd(2 * k + 1)

    def test_ties_to_enumeration_series(self):
        assert distinct_odd_sum_form(0, 40) == gf_comb(0, 2, 40)
        assert distinct_odd_sum_form(1, 40) == gf_comb(1, 2, 40)

    def test_rejects_bad_component(self):
        with pytest.raises(ValueError):
            distinct_odd_sum_form(2, 10)


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

    def test_theorem_check_builds_each_series_once(self):
        _mod15_series.cache_clear()
        assert check_theorem_5_1(40).holds
        assert _mod15_series.cache_info().misses == 4

    def test_theorem_check_builds_chain_table_once(self, monkeypatch):
        builds = []
        real = multiplicity._count_table

        def counting(n, boxes):
            builds.append((n, boxes))
            return real(n, boxes)

        monkeypatch.setattr(multiplicity, "_count_table", counting)
        multiplicity._tables.clear()
        assert check_theorem_5_1(200).holds
        assert builds == [(3, 600)]

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

    def test_restricted_series_cache_is_bounded(self):
        for k in range(50):
            partition_identity_counts(k)
        assert _mod15_series.cache_info().currsize <= 8


class TestMasterCheck:
    def test_reports(self):
        assert check_master(2, 80).holds
        assert check_master(5, 60).holds
        report = check_master(3, 60)
        assert report.holds and report.name == "master[n=3]"


class TestTripleProductCheck:
    def test_small_grid(self):
        assert check_triple_product(60).holds
