import dataclasses
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from qcrystal import young
from qcrystal.young import (
    EMPTY,
    Partition,
    color_counts,
    enumerate_maximal_shapes,
    is_maximal_shape,
    is_n_regular,
    maximal_shape_zero_counts,
)

from helpers import (
    chain_shapes_per_box_count,
    color_of,
    colors_by_cell,
    count_distinct_odd,
    partitions_of,
    partitions_upto,
    regular_blocks,
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

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
    def test_non_integer_parts_rejected(self, bad):
        with pytest.raises(TypeError):
            Partition(((bad, 1),))
        with pytest.raises(TypeError):
            Partition(((3, 1), (1, bad)))
        with pytest.raises(TypeError):
            Partition.from_parts([bad, 1])

    def test_value_type(self):
        p = P(3, 1)
        assert not hasattr(p, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.pairs = ((2, 1),)
        assert EMPTY == Partition()
        assert hash(EMPTY) == hash(Partition())
        assert repr(p) == "Partition(pairs=((3, 1), (1, 1)))"
        assert pickle.loads(pickle.dumps(p)) == p

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

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from((2, 3, 5, 12, 41)),
        blocks=st.lists(st.tuples(st.integers(1, 200), st.integers(1, 40)), max_size=6, unique_by=lambda b: b[0]),
    )
    def test_color_counts_on_wide_shapes(self, n, blocks):
        # Blocks of several rows with full color cycles, multiplicities up to n - 1.
        p = regular_blocks(n, blocks)
        assert color_counts(p, n) == colors_by_cell(p.parts, n), (p, n)

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

    @pytest.mark.parametrize("n", range(2, 10))
    def test_unvalidated_shapes_pass_validation(self, n):
        # The search builds shapes without `Partition`'s own check; every
        # one must pass it and equal its validated copy.
        young._shape_cache = (0, ())
        for boxes in range(61):
            for p in enumerate_maximal_shapes(n, boxes):
                assert type(p) is Partition
                checked = Partition(p.pairs)
                assert checked == p and hash(checked) == hash(p), (n, boxes, p)
                assert is_maximal_shape(p, n), (n, boxes, p)

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
        # request serves every count from one table; after a smaller one,
        # each ascending request rebuilds the table at its own size.
        for n in range(2, 9):
            young._shape_cache = (0, ())
            if earlier == "larger":
                enumerate_maximal_shapes(n, 60)
            elif earlier == "smaller":
                enumerate_maximal_shapes(n, 5)
            for boxes in range(41):
                if earlier == "cold":
                    young._shape_cache = (0, ())
                got = [p.pairs for p in enumerate_maximal_shapes(n, boxes)]
                assert got == chain_shapes_per_box_count(n, boxes), (n, boxes, earlier)

    @pytest.mark.parametrize("earlier", ["cold", "larger", "smaller"])
    def test_carried_color_counts_match_cell_counts(self, earlier):
        # Same three paths as above: the color-0 counts carried through the
        # search must survive a rebuild as well as a cold or oversized build.
        def check(n, boxes):
            shapes = enumerate_maximal_shapes(n, boxes)
            expected = [color_counts(p, n)[0] for p in shapes]
            assert list(maximal_shape_zero_counts(n, boxes)) == expected, (n, boxes, earlier)

        for n in (*range(2, 9), 12, 41):
            young._shape_cache = (0, ())
            if earlier == "larger":
                enumerate_maximal_shapes(n, 60)
            elif earlier == "smaller":
                enumerate_maximal_shapes(n, 5)
            for boxes in range(41):
                if earlier == "cold":
                    young._shape_cache = (0, ())
                check(n, boxes)
        # Deeper tables, on both sides of 64 and 128 boxes: ascending
        # requests rebuild the table at 64 (after 63) and at 128 (after 127).
        for n in (2, 3, 4):
            young._shape_cache = (0, ())
            if earlier == "larger":
                enumerate_maximal_shapes(n, 128)
            for boxes in (63, 64, 127, 128):
                if earlier == "cold":
                    young._shape_cache = (0, ())
                check(n, boxes)
        young._shape_cache = (0, ())

    @pytest.mark.parametrize("n, boxes", [(41, 60), (12, 40)])
    def test_count_blocks_are_filled_lazily(self, n, boxes, monkeypatch):
        # A block of color-0 tail cells is counted on first use of its key
        # (last part mod n, its multiplicity, rows above mod n), once.  A
        # memo filled up front would count all n^3 keys, 68 921 for n = 41.
        calls = []
        zero_tail = young._zero_tail

        def counting(length, mult, rows, n):
            calls.append((length, mult, rows))
            return zero_tail(length, mult, rows, n)

        monkeypatch.setattr(young, "_zero_tail", counting)
        table = young._shape_table(n, boxes)
        keys = set()
        for shapes, _ in table:
            for p in shapes:
                if p.pairs:
                    part, mult = p.pairs[-1]
                    keys.add((part % n, mult, (sum(f for _, f in p.pairs) - mult) % n))
        assert sorted(calls) == sorted(keys)

    def test_equal_last_pairs_share_one_tuple(self):
        table = young._shape_table(3, 30)
        by_value = {}
        for shapes, _ in table:
            for p in shapes:
                if p.pairs:
                    last = p.pairs[-1]
                    assert by_value.setdefault(last, last) is last
        assert len(by_value) < sum(len(shapes) for shapes, _ in table)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            young._shape_table(2, 30)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_is_restored_when_the_search_raises(self, monkeypatch):
        def broken(length, mult, rows, n):
            assert not gc.isenabled()
            raise RuntimeError("row")

        monkeypatch.setattr(young, "_zero_tail", broken)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="row"):
            young._shape_table(2, 10)
        assert gc.isenabled()

    def test_shape_cache_is_bounded(self):
        for n in range(2, 20):
            enumerate_maximal_shapes(n, 10)
        held, table = young._shape_cache
        assert held == 19 and len(table) == 11
        # A larger request rebuilds the table at exactly its own size.
        enumerate_maximal_shapes(2, 40)
        enumerate_maximal_shapes(2, 41)
        held, table = young._shape_cache
        assert held == 2 and len(table) - 1 == 41

    def test_old_table_is_dropped_before_the_next_is_built(self, monkeypatch):
        real = young._shape_table

        def building(n, boxes):
            assert young._shape_cache == (0, ()), (n, boxes)
            return real(n, boxes)

        monkeypatch.setattr(young, "_shape_table", building)
        for n, boxes in ((2, 10), (2, 30), (3, 12), (2, 5)):
            enumerate_maximal_shapes(n, boxes)
            assert young._shape_cache[0] == n

    def test_dropped_table_is_freed_without_the_collector(self):
        # With the collector off, only reference counting can free the old
        # table, so after switching modulus the live shapes must be exactly
        # the new table's (plus those held elsewhere before the test).
        young._shape_cache = (0, ())
        gc.collect()
        held = {id(o) for o in gc.get_objects() if type(o) is Partition}
        was = gc.isenabled()
        gc.disable()
        try:
            enumerate_maximal_shapes(3, 75)
            enumerate_maximal_shapes(2, 80)
            live = {id(o) for o in gc.get_objects() if type(o) is Partition} - held
            table = {id(p) for shapes, _ in young._shape_cache[1] for p in shapes} - held
        finally:
            (gc.enable if was else gc.disable)()
            young._shape_cache = (0, ())
        assert live == table and len(table) > 10_000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_maximal_shapes(1, 4)
        with pytest.raises(ValueError):
            enumerate_maximal_shapes(3, -1)
        with pytest.raises(ValueError):
            maximal_shape_zero_counts(1, 4)
        with pytest.raises(ValueError):
            maximal_shape_zero_counts(3, -1)
