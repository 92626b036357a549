import random

import pytest

from qcrystal.crystal import (
    MINUS,
    PLUS,
    Signature,
    SignatureEntry,
    e_tilde,
    epsilon,
    f_tilde,
    i_signature,
    is_maximal_second_factor,
    is_maximal_structural,
    phi,
)
from qcrystal.weightlat import simple_root, weight_of
from qcrystal.young import EMPTY, Partition, is_maximal_shape, is_n_regular

from helpers import partitions_upto


def P(parts):
    return Partition.from_parts(parts)


def regular_diagrams(n, max_boxes):
    return [
        P(parts)
        for parts in partitions_upto(max_boxes)
        if is_n_regular(P(parts), n)
    ]


def word_of(entries_signs):
    return Signature(
        tuple(SignatureEntry(99 - t, s, 1) for t, s in enumerate(entries_signs))
    )


class TestSignature:
    def test_reduction_word_cases(self):
        assert word_of("+-").reduced().word() == ""
        assert word_of("-+").reduced().word() == "-+"
        assert word_of("++--").reduced().word() == ""
        assert word_of("-++--+").reduced().word() == "-+"
        assert Signature.reduced(word_of("+-")).word() == ""

    def test_reduced_shape_on_diagrams(self):
        for n in (2, 3):
            for d in regular_diagrams(n, 9):
                for i in range(n):
                    word = i_signature(d, n, i).reduced().word()
                    assert "+-" not in word  # minuses precede pluses

    def test_columns_contribute_at_most_once(self):
        for n in (2, 3, 4):
            for d in regular_diagrams(n, 9):
                for i in range(n):
                    cols = [e.column for e in i_signature(d, n, i).entries]
                    assert len(cols) == len(set(cols))
                    assert cols == sorted(cols, reverse=True)

    def test_signature_examples(self):
        sig = i_signature(P([4, 3, 2]), 3, 0)
        assert any(e.column == 4 and e.sign == MINUS for e in sig.entries)
        assert i_signature(EMPTY, 3, 0).word() == PLUS
        assert i_signature(EMPTY, 3, 1).word() == ""
        assert i_signature(EMPTY, 3, 2).word() == ""

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            i_signature(P([1, 1]), 2, 0)

    def test_rejects_modulus_below_two(self):
        for n in (1, 0, -1):
            with pytest.raises(ValueError):
                i_signature(EMPTY, n, 0)


class TestOperators:
    def test_examples(self):
        assert e_tilde(P([1]), 3, 0) == EMPTY
        assert e_tilde(EMPTY, 4, 2) is None
        assert e_tilde(P([4, 1, 1]), 3, 0) == Partition.from_parts([3, 1, 1])
        assert epsilon(P([4, 1, 1]), 3, 0) == 1

        assert f_tilde(EMPTY, 3, 0) == Partition.from_parts([1])
        assert f_tilde(EMPTY, 3, 1) is None
        assert f_tilde(P([1]), 2, 1) == Partition.from_parts([2])

    def test_epsilon_phi_examples(self):
        assert epsilon(EMPTY, 3, 0) == 0
        assert phi(EMPTY, 3, 0) == 1

    def test_mutually_inverse(self):
        for n in (2, 3, 4):
            for d in regular_diagrams(n, 9):
                for i in range(n):
                    up = f_tilde(d, n, i)
                    if up is not None:
                        assert e_tilde(up, n, i) == d, (d, i)
                    down = e_tilde(d, n, i)
                    if down is not None:
                        assert f_tilde(down, n, i) == d, (d, i)

    def test_results_stay_regular(self):
        for n in (2, 3, 4):
            for d in regular_diagrams(n, 9):
                for i in range(n):
                    for moved in (f_tilde(d, n, i), e_tilde(d, n, i)):
                        if moved is not None:
                            assert is_n_regular(moved, n), (d, i)

    def test_epsilon_equals_raising_depth(self):
        for n in (2, 3):
            for d in regular_diagrams(n, 8):
                for i in range(n):
                    depth = 0
                    cur = d
                    while True:
                        cur = e_tilde(cur, n, i)
                        if cur is None:
                            break
                        depth += 1
                    assert depth == epsilon(d, n, i), (d, i)

    def test_lowering_changes_weight_by_simple_root(self):
        for n in (2, 3, 4):
            for d in regular_diagrams(n, 8):
                for i in range(n):
                    up = f_tilde(d, n, i)
                    if up is not None:
                        assert weight_of(up, n) == weight_of(d, n) - simple_root(i, n)

    def test_phi_minus_epsilon_is_coroot_pairing(self):
        rng = random.Random(7)
        pool = [
            (parts, n)
            for n in (2, 3, 4, 5)
            for parts in partitions_upto(10)
            if is_n_regular(Partition.from_parts(parts), n)
        ]
        for parts, n in rng.sample(pool, 200):
            d = P(parts)
            w = weight_of(d, n)
            for i in range(n):
                assert phi(d, n, i) - epsilon(d, n, i) == w.pairing(i), (parts, n, i)

    def test_level_one_crystal_generated_from_vacuum(self):
        # Lowering operators starting from the null diagram reach exactly
        # the n-regular diagrams of each size, all of them n-regular.
        for n in (2, 3, 4):
            layer = {EMPTY}
            for boxes in range(1, 10):
                nxt = set()
                for shape in layer:
                    for i in range(n):
                        up = f_tilde(shape, n, i)
                        if up is not None:
                            assert is_n_regular(up, n)
                            nxt.add(up)
                expected = {
                    Partition.from_parts(parts)
                    for parts in partitions_upto(boxes)
                    if sum(parts) == boxes and is_n_regular(Partition.from_parts(parts), n)
                }
                assert nxt == expected, (n, boxes)
                layer = nxt


class TestMaximality:
    def test_examples(self):
        assert is_maximal_second_factor(P([4, 3, 2]), 3)
        assert is_maximal_second_factor(P([7, 1, 1]), 3)
        assert not is_maximal_second_factor(P([2]), 3)

    def test_three_way_equivalence(self):
        for n in (2, 3):
            for parts in partitions_upto(10):
                shape = Partition.from_parts(parts)
                chain = is_maximal_shape(shape, n)
                if not is_n_regular(shape, n):
                    assert not chain
                    continue
                eps_test = is_maximal_second_factor(shape, n)
                structural = is_maximal_structural(shape, n)
                assert chain == eps_test == structural, (parts, n)
