import pytest

from qcrystal.weightlat import (
    ComponentLabel,
    WeightVector,
    classify_maximal,
    closed_form_component_index,
    fundamental_weight,
    simple_root,
    weight_of,
)
from qcrystal.young import EMPTY, Partition, enumerate_maximal_shapes

from helpers import partitions_upto


def P(*parts):
    return Partition.from_parts(parts)


class TestWeightVector:
    def test_simple_root_expansions(self):
        assert simple_root(0, 3) == WeightVector((2, -1, -1), 1)
        assert simple_root(1, 3) == WeightVector((-1, 2, -1), 0)
        # For n=2 the two off-diagonal terms land on the same coordinate.
        assert simple_root(0, 2) == WeightVector((2, -2), 1)
        assert simple_root(1, 2) == WeightVector((-2, 2), 0)

    def test_roots_have_level_zero(self):
        for n in range(2, 9):
            for i in range(n):
                assert simple_root(i, n).level == 0

    def test_arithmetic(self):
        a = fundamental_weight(0, 3)
        b = simple_root(1, 3)
        assert (a + b) - b == a
        assert -(-a) == a
        assert 2 * a == a + a
        with pytest.raises(ValueError):
            a + fundamental_weight(0, 4)


class TestWeightOf:
    def test_null_diagram(self):
        assert weight_of(EMPTY, 3) == fundamental_weight(0, 3)

    def test_single_box(self):
        w = weight_of(P(1), 3)
        expected = (
            fundamental_weight(1, 3)
            + fundamental_weight(2, 3)
            - fundamental_weight(0, 3)
            - WeightVector((0, 0, 0), 1)
        )
        assert w == expected

    def test_from_color_counts(self):
        # (4,1,1) at n=3 has two boxes of each color, so the weight drops
        # by two null roots.
        w = weight_of(P(4, 1, 1), 3)
        expected = fundamental_weight(0, 3) - 2 * (
            simple_root(0, 3) + simple_root(1, 3) + simple_root(2, 3)
        )
        assert w == expected
        assert w == WeightVector((1, 0, 0), -2)

    def test_diagram_weights_have_level_one(self):
        for parts in partitions_upto(8):
            for n in (2, 3, 5):
                assert weight_of(Partition.from_parts(parts), n).level == 1

    def test_rejects_modulus_below_two(self):
        for n in (1, 0, -1):
            with pytest.raises(ValueError):
                weight_of(EMPTY, n)
            with pytest.raises(ValueError):
                weight_of(P(2, 1), n)


class TestClassification:
    def test_examples(self):
        assert classify_maximal(EMPTY, 4) == ComponentLabel(0, 0)
        assert classify_maximal(P(4, 1, 1), 3) == ComponentLabel(0, 2)
        assert classify_maximal(P(2, 2), 6) == ComponentLabel(2, 2)

    def test_closed_form_examples(self):
        assert closed_form_component_index(P(4), 3) == 1
        assert closed_form_component_index(P(2, 2), 6) == 2
        assert closed_form_component_index(P(4, 1, 1), 3) == 0

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            classify_maximal(P(2), 3)
        with pytest.raises(ValueError):
            closed_form_component_index(P(2), 3)
        with pytest.raises(ValueError):
            closed_form_component_index(EMPTY, 3)

    def test_both_derivations_agree(self):
        for n in range(2, 7):
            for boxes in range(13):
                for member in enumerate_maximal_shapes(n, boxes):
                    label = classify_maximal(member, n)
                    assert label.k >= label.i
                    assert boxes == label.i**2 + (label.k - label.i) * n
                    if member.pairs:
                        i = closed_form_component_index(member, n)
                        assert i == label.i, (member, n)
                        # The two candidate residues pair up to 0 mod n.
                        last_part, last_mult = member.pairs[-1]
                        s_full = member.num_rows
                        x = (last_part - (s_full - last_mult)) % n
                        y = (-s_full) % n
                        assert (x + y) % n == 0

    def test_square_is_unique_smallest_member(self):
        for n in range(2, 7):
            for i in range(n // 2 + 1):
                members = enumerate_maximal_shapes(n, i * i)
                bucket = [m for m in members if classify_maximal(m, n) == (i, i)]
                square = EMPTY if i == 0 else Partition.from_parts([i] * i)
                assert bucket == [square], (n, i)
