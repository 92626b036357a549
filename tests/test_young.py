import pytest

from qcrystal import young
from qcrystal.young import (
    EMPTY,
    Partition,
    color_counts,
    color_of,
    enumerate_maximal_shapes,
    is_maximal_shape,
    is_n_regular,
    maximal_shape_color_counts,
)

from helpers import (
    chain_shapes_per_box_count,
    colors_by_cell,
    count_distinct_odd,
    partitions_of,
    partitions_upto,
)


def P(*parts):
    return Partition.from_parts(parts)


class TestPartition:
    def test_from_parts_normalizes(self):
        assert P(1, 7, 1).pairs == ((7, 1), (1, 2))
        assert P().pairs == ()

    def test_accessors(self):
        p = P(7, 1, 1)
        assert p.parts == (7, 1, 1)
        assert p.boxes == 9
        assert p.num_rows == 3
        assert EMPTY.boxes == 0

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            Partition(((3, 1), (3, 1)))
        with pytest.raises(ValueError):
            Partition(((2, 0),))
        with pytest.raises(ValueError):
            Partition(((0, 1),))

    def test_str(self):
        assert str(P(5, 5, 2)) == "(5^2,2)"
        assert str(EMPTY) == "()"


class TestColorRule:
    def test_worked_diagram(self):
        # The diagram with rows (3, 2) has colors 0,1,2 / 2,0 for n = 3.
        assert color_of(1, 1, 3) == 0
        assert color_of(1, 2, 3) == 1
        assert color_of(1, 3, 3) == 2
        assert color_of(2, 1, 3) == 2
        assert color_of(2, 2, 3) == 0

    def test_main_diagonal_charge_zero(self):
        for k in range(1, 9):
            for n in (2, 3, 5):
                assert color_of(k, k, n) == 0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            color_of(0, 1, 3)

    def test_rejects_modulus_below_two(self):
        for n in (1, 0, -1):
            with pytest.raises(ValueError):
                color_of(1, 1, n)
            with pytest.raises(ValueError):
                color_counts(P(2, 1), n)
            with pytest.raises(ValueError):
                color_counts(EMPTY, n)

    def test_color_counts_against_cell_tally(self):
        for parts in partitions_upto(9):
            for n in (2, 3, 4):
                assert color_counts(Partition.from_parts(parts), n) == colors_by_cell(parts, n)

    def test_color_counts_examples(self):
        # Cell-by-cell: (4,1,1) at n=3 has rows 0120 / 2 / 1.
        assert color_counts(P(4, 1, 1), 3) == (2, 2, 2)
        assert color_counts(EMPTY, 3) == (0, 0, 0)
        assert color_counts(P(1), 3) == (1, 0, 0)

    def test_counts_sum_to_boxes(self):
        for parts in partitions_upto(8):
            p = Partition.from_parts(parts)
            assert sum(color_counts(p, 3)) == p.boxes


class TestRegularity:
    def test_examples(self):
        assert is_n_regular(P(4, 3, 2), 3)
        assert not is_n_regular(P(1, 1, 1), 3)
        assert is_n_regular(EMPTY, 2)


class TestChainMembership:
    def test_examples(self):
        assert is_maximal_shape(P(4, 1, 1), 3)
        assert not is_maximal_shape(P(2), 3)
        assert is_maximal_shape(EMPTY, 3)
        assert is_maximal_shape(EMPTY, 2)

    def test_modulus_two_means_distinct_odd_parts(self):
        for parts in partitions_upto(11):
            expected = len(set(parts)) == len(parts) and all(p % 2 == 1 for p in parts)
            assert is_maximal_shape(Partition.from_parts(parts), 2) == expected


class TestEnumeration:
    def test_table_rows(self):
        assert [str(p) for p in enumerate_maximal_shapes(3, 9)] == ["(7,1^2)", "(4,3,2)"]
        assert enumerate_maximal_shapes(3, 0) == (EMPTY,)
        assert [str(p) for p in enumerate_maximal_shapes(2, 8)] == ["(7,1)", "(5,3)"]

    def test_matches_brute_force_filter(self):
        for n in (2, 3, 4, 5):
            for boxes in range(13):
                expected = sorted(
                    (
                        Partition.from_parts(parts)
                        for parts in partitions_of(boxes)
                        if is_maximal_shape(Partition.from_parts(parts), n)
                    ),
                    key=lambda p: p.parts,
                    reverse=True,
                )
                got = list(enumerate_maximal_shapes(n, boxes))
                assert got == expected, (n, boxes)

    def test_output_is_canonical_and_valid(self):
        for n in (2, 3, 5):
            for boxes in range(20):
                members = enumerate_maximal_shapes(n, boxes)
                assert len(set(members)) == len(members)
                flats = [p.parts for p in members]
                assert flats == sorted(flats, reverse=True)
                assert all(is_maximal_shape(p, n) for p in members)
                assert all(p.boxes == boxes for p in members)

    def test_counts_reproduce_table_columns(self):
        b0 = [len(enumerate_maximal_shapes(3, 3 * k)) for k in range(8)]
        b1 = [len(enumerate_maximal_shapes(3, 3 * k - 2)) for k in range(1, 8)]
        assert b0[:7] == [1, 0, 1, 2, 3, 4, 7]
        assert b1 == [1, 2, 2, 4, 5, 8, 11]

    def test_distinct_odd_counts_for_modulus_two(self):
        for boxes in range(16):
            assert len(enumerate_maximal_shapes(2, boxes)) == count_distinct_odd(boxes)

    @pytest.mark.parametrize("earlier", ["cold", "larger", "smaller"])
    def test_matches_per_box_count_search(self, earlier):
        # Cold builds each box count's table on its own; a larger earlier
        # request serves every count from one table; a smaller one makes
        # the ascending requests regrow it.
        for n in range(2, 9):
            young._shape_tables.clear()
            if earlier == "larger":
                enumerate_maximal_shapes(n, 60)
            elif earlier == "smaller":
                enumerate_maximal_shapes(n, 5)
            for boxes in range(41):
                if earlier == "cold":
                    young._shape_tables.clear()
                got = [p.pairs for p in enumerate_maximal_shapes(n, boxes)]
                assert got == chain_shapes_per_box_count(n, boxes), (n, boxes, earlier)

    @pytest.mark.parametrize("earlier", ["cold", "larger", "smaller"])
    def test_carried_color_counts_match_cell_counts(self, earlier):
        # Same three paths as above: the counts carried through the search
        # must survive regrowth as well as a cold or oversized build.
        for n in range(2, 9):
            young._shape_tables.clear()
            if earlier == "larger":
                enumerate_maximal_shapes(n, 60)
            elif earlier == "smaller":
                enumerate_maximal_shapes(n, 5)
            for boxes in range(41):
                if earlier == "cold":
                    young._shape_tables.clear()
                shapes = enumerate_maximal_shapes(n, boxes)
                carried = maximal_shape_color_counts(n, boxes)
                expected = [color_counts(p, n) for p in shapes]
                assert list(carried) == expected, (n, boxes, earlier)

    def test_equal_color_counts_share_one_tuple(self):
        young._shape_tables.clear()
        by_value = {}
        for boxes in range(41):
            for counts in maximal_shape_color_counts(2, boxes):
                assert by_value.setdefault(counts, counts) is counts
        assert len(by_value) < sum(len(enumerate_maximal_shapes(2, b)) for b in range(41))

    def test_shape_cache_is_bounded(self):
        for n in range(2, 20):
            enumerate_maximal_shapes(n, 10)
        assert list(young._shape_tables) == list(range(20 - young._SHAPE_CACHE_SIZE, 20))
        # Regrowth steps by about sqrt(boxes), not to twice the table.
        enumerate_maximal_shapes(2, 40)
        enumerate_maximal_shapes(2, 41)
        assert 41 <= len(young._shape_tables[2]) - 1 < 60

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_maximal_shapes(1, 4)
        with pytest.raises(ValueError):
            enumerate_maximal_shapes(3, -1)
        with pytest.raises(ValueError):
            maximal_shape_color_counts(1, 4)
        with pytest.raises(ValueError):
            maximal_shape_color_counts(3, -1)
