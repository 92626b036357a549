import dataclasses
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qcrystal import crystal, multiplicity, qseries as qs, weightlat, young
from qcrystal.multiplicity import (
    TableEntry,
    UnsupportedModulusError,
    coefficient_matrix,
    count_by_component,
    count_maximal_shapes,
    gf_comb,
    gf_theta,
    master_coefficient,
    master_discrepancy,
    multiplicity_table,
    residue_block,
    theta_branch,
)
from qcrystal.qseries import (
    NonUnitConstantError,
    QSeries,
    euler_phi,
    restricted_partition_gf,
    theta_f,
    theta_g,
    triple_product_f,
    triple_product_g,
)
from qcrystal.weightlat import classify_maximal
from qcrystal.young import EMPTY, Partition, color_counts, enumerate_maximal_shapes

from helpers import (
    block_exponent,
    chain_shape_rows,
    count_distinct_odd,
    count_table_by_pair_states,
    entry_via_separation,
    fermionic_rows_n2,
    fermionic_rows_n3_component_0,
    multiplicity_table_by_filter,
    partition_number,
    series_to_dict,
    structure_lemma_rows,
    structure_lemma_statement,
)


def assert_rows_match_oracle(n, boxes):
    """Component i's row is the oracle's column at i^2 mod n + s*n boxes,
    and the oracle counts nothing off that stride."""
    rows = multiplicity._count_table(n, boxes)
    assert len(rows) == n // 2 + 1, (n, boxes)
    for i, (row, column) in enumerate(zip(rows, count_table_by_pair_states(n, boxes))):
        assert row == column[i * i % n :: n], (n, boxes, i)
        assert not any(c for b, c in enumerate(column) if (b - i * i) % n), (n, boxes, i)


@st.composite
def packed_slots(draw):
    """(width, raw slot values low slot first, bits above the last slot):
    counts below the sign bit, a few of them with the sign bit set."""
    width = draw(st.integers(1, 12))
    raw = draw(st.lists(st.integers(0, (1 << width - 1) - 1), max_size=40))
    for s in draw(st.sets(st.integers(0, len(raw) - 1), max_size=3) if raw else st.just(())):
        raw[s] |= 1 << width - 1
    return width, raw, draw(st.integers(0, 3))


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
            entry = table[(0, k)]
            assert entry.count == b
            assert sorted(str(w) for w in entry.witnesses) == sorted(wits)
        for k, (b, wits) in TABLE_N3_I1.items():
            entry = table[(1, k)]
            assert entry.count == b
            assert sorted(str(w) for w in entry.witnesses) == sorted(wits)

    def test_trivial_table(self):
        table = multiplicity_table(2, 0)
        assert table[(0, 0)].count == 1
        assert table[(0, 0)].witnesses == (EMPTY,)

    def test_witness_cap(self):
        table = multiplicity_table(3, 6, witness_cap=2)
        entry = table[(0, 6)]
        assert entry.count == 7
        assert len(entry.witnesses) == 2
        assert entry.omitted == 5

    def test_omitted_is_read_off_the_count(self):
        # An entry stores its count and kept witnesses; `omitted` is their
        # difference, so it cannot disagree with them.
        assert [f.name for f in dataclasses.fields(TableEntry)] == ["count", "witnesses"]
        assert TableEntry(7, (EMPTY, EMPTY)).omitted == 5
        assert TableEntry(0, ()).omitted == 0

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
            for key, e in table.items()
        }
        assert got == multiplicity_table_by_filter(n, max_k, witness_cap)

    def test_classifies_once_per_color_vector(self, monkeypatch):
        # The table files shapes by (box count, color-0 count), so that pair
        # must pick out one color vector; n = 4 and 8 have components that
        # share a box residue.
        calls = []

        def counting(p, n):
            calls.append(p)
            return classify_maximal(p, n)

        monkeypatch.setattr(multiplicity, "classify_maximal", counting)
        for n, max_k in ((2, 40), (4, 12), (8, 9)):
            calls.clear()
            table = multiplicity_table(n, max_k)
            box_counts = {i * i + (k - i) * n for i, k in table}
            shapes = [p for boxes in box_counts for p in enumerate_maximal_shapes(n, boxes)]
            vectors = {color_counts(p, n) for p in shapes}
            keys = {(p.boxes, color_counts(p, n)[0]) for p in shapes}
            assert len(calls) == len(keys) == len(vectors), n
            assert 15 * len(calls) < len(shapes), n
            # Shared box counts also hold labels beyond max_k, which are dropped.
            filed = sum(e.count for e in table.values())
            assert filed == len(shapes) if n == 2 else filed < len(shapes), n

    @pytest.mark.parametrize("n, max_k", [(4, 10), (8, 6)])
    def test_keys_come_in_sorted_order(self, n, max_k):
        # Components share a box residue here, so the enumeration visits
        # labels out of (i, k) order; the CLI's writers rely on the map's.
        table = multiplicity_table(n, max_k)
        assert isinstance(table, dict)
        assert list(table) == sorted(table)

    def test_entries_classify_back(self):
        table = multiplicity_table(4, 5)
        for (i, k), entry in table.items():
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

    def test_large_modulus_at_few_boxes_matches_enumeration(self):
        # Each request is served from one table rounded up to 757 boxes,
        # (n // 2)^2 mod n, with fewer boxes than states.
        n = 1009
        for boxes in range(31):
            by_class = [0] * (n // 2 + 1)
            for m in enumerate_maximal_shapes(n, boxes):
                by_class[classify_maximal(m, n).i] += 1
            assert list(count_by_component(n, boxes)) == by_class, boxes

    def test_matches_pair_keyed_oracle_at_every_bound(self):
        # Each bound truncates every residue class at a different slot.
        for n in range(2, 17):
            for boxes in range(121):
                assert_rows_match_oracle(n, boxes)

    @pytest.mark.parametrize("n", [17, 31, 53, 101])
    def test_matches_pair_keyed_oracle_around_the_modulus(self, n):
        # Below n boxes the counter lists only states and part residues up
        # to the box count; at and past n it lists them all.
        for boxes in [*range(n + 3), 2 * n]:
            assert_rows_match_oracle(n, boxes)

    @pytest.mark.parametrize("n, boxes", [(2, 2000), (3, 1500)])
    def test_matches_pair_keyed_oracle_at_scale(self, n, boxes):
        assert_rows_match_oracle(n, boxes)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 30))
    def test_chain_shapes_keep_the_residue_invariants(self, n, boxes):
        for p in enumerate_maximal_shapes(n, boxes):
            rows = sum(f for _, f in p.pairs)
            c = sum(p.pairs[-1]) if p.pairs else 0
            assert (c - 2 * rows) % n == 0, (n, p)
            assert (boxes - rows * rows) % n == 0, (n, p)

    def test_counts_vanish_outside_the_component_residue(self):
        for n in range(2, 17):
            for boxes in range(80):
                for i, count in enumerate(count_by_component(n, boxes)):
                    if (boxes - i * i) % n:
                        assert count == 0, (n, boxes, i)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12])
    def test_bounds_below_a_state_residue(self, n):
        # For n >= 3, some component's first box count i^2 mod n exceeds
        # these bounds, so its residue class has no slot at all.
        for boxes in (0, 1):
            # Only the empty shape and the single box exist here.
            rows = tuple((int(i < 2),) if i * i % n <= boxes else () for i in range(n // 2 + 1))
            assert multiplicity._count_table(n, boxes) == rows
        for boxes in (0, 1, 2):
            assert_rows_match_oracle(n, boxes)

    def test_slot_width_holds_the_partition_number_and_a_sign_bit(self):
        for boxes in [*range(5001), 9000, 20000]:
            assert multiplicity._slot_width(boxes) >= partition_number(boxes).bit_length() + 1, boxes
        assert [multiplicity._slot_width(b) for b in (0, 9000)] == [2, 353]

    def test_table_unpacks_at_the_slot_width(self, monkeypatch):
        widths = []
        real = multiplicity._unpack
        monkeypatch.setattr(multiplicity, "_unpack", lambda poly, width, slots: widths.append(width) or real(poly, width, slots))
        multiplicity._count_table(3, 300)
        assert widths == [multiplicity._slot_width(300)] * 2

    def test_negative_boxes(self):
        assert count_maximal_shapes(3, -2) == 0

    def test_table_cache_is_bounded(self):
        for n in range(2, 20):
            count_by_component(n, 10)
        assert len(multiplicity._tables) <= multiplicity._TABLE_CACHE_SIZE

    def test_table_grows_to_the_size_asked(self, chain_builds):
        # A larger request rebuilds at its own size, rounded up to complete
        # the highest component's last row, not at twice the old size.
        count_by_component(3, 30)
        count_by_component(3, 40)
        assert chain_builds == [(3, 31), (3, 40)]

    def test_slot_overflow_is_detected(self):
        assert multiplicity._unpack(0b011_001, 3, 2) == (1, 3)
        with pytest.raises(OverflowError):
            multiplicity._unpack(0b100_001, 3, 2)
        with pytest.raises(OverflowError):
            multiplicity._unpack(0b1_000_001, 3, 2)

    @settings(max_examples=300, deadline=None)
    @given(packed_slots())
    @example((3, [0b100, 0b111], 0))  # all ones above an overflowed slot takes its carry
    @example((3, [0b001, 0b100], 0))  # the top slot's carry leaves the packed range
    @example((3, [0b011, 0b011], 0))
    @example((3, [], 0))
    @example((3, [], 1))
    def test_checked_decoder_raises_exactly_on_overflow(self, case):
        width, raw, above = case
        poly = sum(v << s * width for s, v in enumerate(raw)) + (above << len(raw) * width)
        if above or any(v >> width - 1 for v in raw):
            with pytest.raises(OverflowError):
                multiplicity._unpack(poly, width, len(raw))
        else:
            assert multiplicity._unpack(poly, width, len(raw)) == tuple(raw)


class TestCombSeries:
    def test_table_columns(self):
        assert gf_comb(0, 3, 7).coefficient_list() == [1, 0, 1, 2, 3, 4, 7]
        assert gf_comb(1, 3, 7).coefficient_list() == [1, 2, 2, 4, 5, 8, 11]

    def test_one_component_builds_only_its_own_rows(self, chain_builds):
        # Component 0 reads up to 4 * 300 boxes; the highest would need 23 700.
        gf_comb(0, 300, 5)
        assert chain_builds == [(300, 1200)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 40).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n // 2), st.integers(1, 30))
        )
    )
    def test_component_alone_equals_its_read_from_the_whole_table(self, case):
        n, i, order = case
        with mock.patch.object(multiplicity, "_tables", {}):
            alone = gf_comb(i, n, order)
            # The table asked for ends at the last entry this series reads.
            assert len(multiplicity._tables[n][1][i]) == i * i // n + order
        with mock.patch.object(multiplicity, "_tables", {}):
            gf_comb(n // 2, n, order)  # the table every component reads
            assert gf_comb(i, n, order) == alone

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

    @pytest.mark.parametrize("route, i", [(gf_comb, 5), (gf_theta, -1)])
    def test_range_message_names_component_and_modulus(self, route, i):
        with pytest.raises(ValueError, match=f"^component index {i} out of range for n=3$"):
            route(i, 3, 4)

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

    def test_residue_block_rejects_nonpositive_weight(self):
        # a + b = n (n + 2), not positive for these n; theta rejects it.
        for n in (-2, -1, 0):
            with pytest.raises(ValueError):
                residue_block(0, 0, n, 10)

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


def rescaled_determinant(n, order):
    """Determinant of the theta matrix with row j divided by q^floor(j^2/n)."""
    matrix = coefficient_matrix(n, order + (n // 2) ** 2 // n)
    return qs.det([[e.shift(-(j * j // n)).truncate(order) for e in row] for j, row in enumerate(matrix)])


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
            multiplicity.theta_solution(9, 10)
        with pytest.raises(UnsupportedModulusError):
            gf_theta(0, 4, 10)

    def test_solve_refuses_before_assembling(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return coefficient_matrix(*args)

        monkeypatch.setattr(multiplicity, "coefficient_matrix", counting)
        multiplicity._theta_solve.cache_clear()
        with pytest.raises(UnsupportedModulusError, match="n=9 is conjectural; pass conjecture=True"):
            multiplicity.theta_solution(9, 10)
        assert calls == []
        multiplicity.theta_solution(9, 10, conjecture=True)
        assert calls == [(9, 11)]

    def test_matrix_builds_any_modulus(self):
        # Whether the construction is proven is the solve's question, not
        # the matrix's.
        assert len(coefficient_matrix(9, 10)) == 5
        with pytest.raises(ValueError, match="at least 2"):
            coefficient_matrix(1, 5)

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

    @pytest.mark.parametrize("n", range(2, 14))
    def test_rescaled_determinant_factors_into_euler_products(self, n):
        # Observed for every n in 2..23, proven and conjecture-only alike;
        # only n = 3 (lemma 5.4) is proven.
        order = 60
        expected = euler_phi(order) ** ((n + 1) // 2)
        if n % 2 == 0:
            expected = expected * euler_phi(order, 2)
        assert rescaled_determinant(n, order) == expected

    @pytest.mark.parametrize("n, order", [(2, 896), (3, 897), (6, 517)])
    def test_inverse_determinant_at_benchmark_sizes(self, n, order):
        # The observed factorization read as partition counts, which are
        # built from binomial divisions and share no code with `invert`.
        expected = restricted_partition_gf((), 1, order) ** ((n + 1) // 2)
        if n % 2 == 0:
            expected = expected * restricted_partition_gf({1}, 2, order)
        determinant = rescaled_determinant(n, order)
        with mock.patch.object(qs, "_product", wraps=qs._product) as product:
            assert determinant.invert() == expected
        assert product.called  # the inverse took Newton steps

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

    def test_block_exponents_follow_residue_block(self):
        # Ties the structure lemma's exponent formula to the blocks summed.
        order = 60
        for n in range(2, 13):
            for i in range(n // 2 + 1):
                for t in range(n):
                    terms = {}
                    for k in range(-order, order):
                        if (e := block_exponent(n, i, t, k)) < order:
                            terms[e] = terms.get(e, 0) + (-1) ** (k * n % 2)
                    expected = {e: c for e, c in terms.items() if c}
                    assert series_to_dict(residue_block(i, t, n, order)) == expected, (n, i, t)

    def test_structure_lemma_term_by_term(self):
        # Every block term of row j has exponent at least floor(j^2 / n),
        # with equality only at (i, t, k) = (j, 0, 0) and (j - 1, 1, 0).
        # CI runs n = 101..200.
        for n in range(2, 101):
            assert structure_lemma_rows(n) == structure_lemma_statement(n), n

    def test_rescaled_constant_term_matrix_is_identity_minus_shift(self):
        # Row j is divisible by q^floor(j^2 / n), which the solve relies on
        # when it shifts each row down.
        for n in range(2, 31):
            size = n // 2 + 1
            m = coefficient_matrix(n, (n // 2) ** 2 // n + 1)
            for j, row in enumerate(m):
                assert all(entry.is_zero or entry.lowest >= j * j // n for entry in row), (n, j)
            constant = [[entry.coeff(j * j // n) for entry in row] for j, row in enumerate(m)]
            assert constant == [[(i == j) - (i == j - 1) for i in range(size)] for j in range(size)], n

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
        # At order 1 the unscaled n=6 determinant (valuation 1) truncates
        # to zero; the rescaled rows must still recover the constant term.
        assert gf_theta(0, 6, 1).coefficient_list() == [1]
        assert gf_theta(3, 6, 2).coefficient_list() == [1, 1]

    def test_proven_moduli_beyond_six_by_six(self):
        # n = 13, 14, 17 assemble 7x7, 8x8 and 9x9 matrices; every proven
        # modulus up to 41 (a 21x21 matrix) must solve at a low order.
        cases = [(n, 40) for n in (13, 14, 17)]
        cases += [(n, 6) for n in range(2, 42) if theta_branch(n)[1]]
        for n, order in cases:
            solution = multiplicity.theta_solution(n, order)
            # Highest component first, so one chain table serves every row.
            for i in range(n // 2, -1, -1):
                assert solution[i] == gf_comb(i, n, order), (n, order, i)

    def test_conjectured_moduli_up_to_41_solve_and_agree_with_enumeration(self, chain_builds):
        # The structure lemma makes the solve divide exactly for every n;
        # what it returns for the conjectured moduli up to 41 is B_i.
        for n in range(2, 42):
            solution = multiplicity.theta_solution(n, 6, conjecture=True)
            assert list(solution) == [gf_comb(i, n, 6) for i in range(n // 2, -1, -1)][::-1], n
        # Highest component first: one chain table per modulus.
        assert [m for m, _ in chain_builds] == list(range(2, 42))

    def test_components_share_one_solve(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return coefficient_matrix(*args, **kwargs)

        monkeypatch.setattr(multiplicity, "coefficient_matrix", counting)
        multiplicity._theta_solve.cache_clear()
        # Every row of the n = 5 matrix has valuation 0, so the solve
        # builds it at the requested order.
        series = [gf_theta(i, 5, 30) for i in range(3)]
        assert calls == [(5, 30)]
        assert series == list(multiplicity.theta_solution(5, 30))
        assert len(calls) == 1

    def test_conjecture_flag_shares_the_proven_solve(self, monkeypatch):
        # On a proven modulus `conjecture` changes nothing, so it must not
        # key a second solve of the same matrix.
        calls = []

        def counting(*args):
            calls.append(args)
            return coefficient_matrix(*args)

        monkeypatch.setattr(multiplicity, "coefficient_matrix", counting)
        multiplicity._theta_solve.cache_clear()
        proven = multiplicity.theta_solution(5, 30)
        assert multiplicity.theta_solution(5, 30, conjecture=True) == proven
        assert calls == [(5, 30)]
        assert multiplicity._theta_solve.cache_info().currsize == 1

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
        # The deepest row, j = n // 2, has valuation floor(j^2 / n).
        for n, headroom in ((6, 1), (7, 1), (10, 2), (11, 2)):
            multiplicity._theta_solve.cache_clear()
            calls.clear()
            dets.clear()
            series = multiplicity.theta_solution(n, 12)
            assert calls == [(n, 12 + headroom)], n
            assert dets == [n // 2 + 1], n
            assert all(s.order == 12 for s in series)

    def test_solve_expands_its_matrix_once(self, monkeypatch):
        calls = []
        for name in ("det", "cofactors"):
            real = getattr(qs, name)
            monkeypatch.setattr(qs, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
        multiplicity._theta_solve.cache_clear()
        qs._cofactors.cache_clear()
        multiplicity.theta_solution(11, 40)
        # One expansion serves the determinant and the cofactors.
        assert sorted(calls) == ["cofactors", "det"]
        assert qs._cofactors.cache_info().misses == 1

    @staticmethod
    def _patch_matrix(monkeypatch, edit):
        """Route the solve through `edit(rows)` applied to the real matrix."""

        def edited(*args, **kwargs):
            return edit([list(row) for row in coefficient_matrix(*args, **kwargs)])

        monkeypatch.setattr(multiplicity, "coefficient_matrix", edited)
        multiplicity._theta_solve.cache_clear()

    def test_determinant_vanishing_beyond_headroom_is_singular(self, monkeypatch):
        # Multiply row 0 of the n = 6 matrix by q: the rescaled determinant
        # then truncates to zero at order 1 and has valuation 1 at order 10,
        # and the inversion refuses both.
        def raise_row_0(rows):
            rows[0] = [e.shift(1).truncate(e.order) for e in rows[0]]
            return rows

        self._patch_matrix(monkeypatch, raise_row_0)
        for order in (1, 10):
            with pytest.raises(NonUnitConstantError):
                multiplicity.theta_solution(6, order)

    def test_rescaled_determinant_must_be_a_unit(self, monkeypatch):
        # Doubling row 0 doubles the rescaled determinant's constant term.
        def double_row_0(rows):
            rows[0] = [e + e for e in rows[0]]
            return rows

        self._patch_matrix(monkeypatch, double_row_0)
        with pytest.raises(NonUnitConstantError):
            multiplicity.theta_solution(6, 10)

    def test_row_below_its_power_of_q_is_rejected(self, monkeypatch):
        # Row 3 of the n = 6 matrix must be divisible by q^(9 // 6) = q;
        # shifted down, the edited entry has valuation -1, which det refuses.
        def lower_row_3(rows):
            rows[3][0] = rows[3][0] + QSeries.one(rows[3][0].order)
            return rows

        self._patch_matrix(monkeypatch, lower_row_3)
        with pytest.raises(ValueError, match="valuation >= 0"):
            multiplicity.theta_solution(6, 10)

    def test_proven_modulus_with_deep_determinant_valuation(self):
        # n = 31 is proven, and its unscaled determinant vanishes to order
        # 34; row 15 alone carries q^7.
        assert theta_branch(31) == ("odd-prime", True)
        for i, s in enumerate(multiplicity.theta_solution(31, 10)):
            assert s == gf_comb(i, 31, 10), i

    def test_solution_cache_is_bounded(self):
        for n in (2, 3, 5, 7, 11):
            for order in (3, 4):
                multiplicity.theta_solution(n, order)
        assert multiplicity._theta_solve.cache_info().currsize <= 8

    def test_conjectured_moduli_report_only(self):
        # The construction is applied blindly for n = 4 and 9; agreement
        # with enumeration is recorded here as an observation, and the
        # point of the test is that both pipelines run without crashing.
        observations = {
            n: all(gf_comb(i, n, 20) == gf_theta(i, n, 20, conjecture=True) for i in range(n // 2 + 1))
            for n in (4, 9)
        }
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplicity_table(1, 3), "^need n >= 2 and max_k >= 0$"),
        (lambda: multiplicity_table(2, -1), "^need n >= 2 and max_k >= 0$"),
        (lambda: count_by_component(1, 5), "^modulus n must be at least 2$"),
        (lambda: gf_comb(0, 2, 0), "^order must be at least 1$"),
        (lambda: theta_branch(1), "^modulus n must be at least 2$"),
        (lambda: multiplicity.theta_solution(2, 0), "^order must be at least 1$"),
        (lambda: master_discrepancy(1, 5), "^need n >= 2 and order >= 1$"),
        (lambda: master_discrepancy(2, 0), "^need n >= 2 and order >= 1$"),
        (
            lambda: master_discrepancy(3, 5, series=[gf_comb(0, 3, 5)]),
            "^one generating function per component index is required$",
        ),
    ],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _forbid(monkeypatch, module, *names):
    for name in names:

        def refuse(*args, _name=name, **kwargs):
            pytest.fail(f"{module.__name__}.{_name} was called")

        monkeypatch.setattr(module, name, refuse)


class TestRouteIndependence:
    """Neither route may lean on the other's machinery."""

    # Building a series is all that the two routes may both run.
    SHARED = {QSeries.__init__.__code__, QSeries.__post_init__.__code__, QSeries._new.__code__}

    @staticmethod
    def _library_code_run(monkeypatch, build):
        """Every library function that `build()` runs, starting from cold
        caches, as code object -> module."""
        monkeypatch.setattr(multiplicity, "_tables", {})
        monkeypatch.setattr(qs, "_phi_base", QSeries.one(1))
        multiplicity._theta_solve.cache_clear()
        qs._cofactors.cache_clear()
        seen = {}

        def record(frame, event, arg):
            module = frame.f_globals.get("__name__", "")
            if event == "call" and module.startswith("qcrystal."):
                seen[frame.f_code] = module

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            build()
        finally:
            sys.setprofile(previous)
        return seen

    def _assert_share_only_the_series_container(self, monkeypatch, build, other):
        ran = self._library_code_run(monkeypatch, build)
        shared = ran.keys() & self._library_code_run(monkeypatch, other).keys()
        assert shared == self.SHARED, sorted((ran[code], code.co_name) for code in shared)

    @pytest.mark.parametrize("n, order", [(3, 200), (7, 150), (13, 60)])
    def test_routes_share_only_the_series_container(self, monkeypatch, n, order):
        def every_component(route):
            return lambda: [route(i, n, order) for i in range(n // 2 + 1)]

        self._assert_share_only_the_series_container(
            monkeypatch, every_component(gf_comb), every_component(gf_theta)
        )

    @pytest.mark.parametrize("r, s", [(3, 5), (0, 4), (2, 2)])
    def test_triple_product_sides_share_only_the_series_container(self, monkeypatch, r, s):
        # The two sides of `verify --identity triple-product`: bilateral sums
        # against products built from the stride r + s Euler product.
        self._assert_share_only_the_series_container(
            monkeypatch,
            lambda: (theta_f(r, s, 300), theta_g(r, s, 300)),
            lambda: (triple_product_f(r, s, 300), triple_product_g(r, s, 300)),
        )

    def test_pentagonal_sides_share_only_the_series_container(self, monkeypatch):
        # `triple-product[pentagonal]`: theta_g(1, 2) against the Euler
        # product, built from a cold `_phi_base`.
        self._assert_share_only_the_series_container(
            monkeypatch, lambda: theta_g(1, 2, 300), lambda: euler_phi(300)
        )

    def test_theta_route_uses_no_shapes_or_chain_counts(self, monkeypatch):
        expected = tuple(gf_comb(i, 11, 40) for i in range(6))
        _forbid(
            monkeypatch,
            multiplicity,
            "_table_for",
            "_count_table",
            "enumerate_maximal_shapes",
            "classify_maximal",
        )
        _forbid(monkeypatch, young, "_shape_table")
        multiplicity._theta_solve.cache_clear()
        assert multiplicity.theta_solution(11, 40) == expected

    def test_combinatorial_route_uses_no_theta_series(self, monkeypatch):
        _forbid(monkeypatch, qs, "det", "_cofactors", "theta_f", "theta_g", "euler_phi")
        _forbid(monkeypatch, multiplicity, "coefficient_matrix")
        monkeypatch.setattr(multiplicity, "_tables", {})
        monkeypatch.setattr(young, "_shape_cache", (0, ()))
        for i in range(6):
            # The i x i square is the only member with i^2 boxes.
            assert gf_comb(i, 11, 40).coeff(0) == 1
        table = multiplicity_table(4, 6)
        for (i, k), entry in table.items():
            assert entry.count == gf_comb(i, 4, 7).coeff(k - i)

    def test_crystal_module_holds_no_chain_shape_code(self):
        names = ("is_maximal_shape", "enumerate_maximal_shapes", "maximal_shape_zero_counts")
        assert not set(names) & set(vars(crystal))

    def test_classification_needs_no_closed_form(self, monkeypatch):
        _forbid(monkeypatch, weightlat, "closed_form_component_index")
        for n in range(2, 7):
            for boxes in range(13):
                by_class = [0] * (n // 2 + 1)
                for member in enumerate_maximal_shapes(n, boxes):
                    by_class[classify_maximal(member, n).i] += 1
                assert by_class == list(count_by_component(n, boxes)), (n, boxes)


class TestRowRefinements:
    """The fermionic sums for B_i, split term by term, count the chain
    shapes with a given label by their number of rows."""

    @pytest.mark.parametrize("i", [0, 1])
    def test_n2_rows_are_the_index_of_each_term(self, i):
        # [q^(k - i)] q^((m^2 - i) / 2) / (q)_m shapes with label (i, k) and
        # m rows for m = i mod 2, and none for m of the other parity.
        for k in range(i, 14 + i):
            assert chain_shape_rows(2, i, k) == fermionic_rows_n2(i, k), (i, k)

    def test_n3_component_0_rows_are_m1_plus_2m2(self):
        for k in range(12):
            assert chain_shape_rows(3, 0, k) == fermionic_rows_n3_component_0(k), k
