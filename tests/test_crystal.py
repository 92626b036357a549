import random

import pytest
from hypothesis import given, settings, strategies as st

from qcrystal.crystal import (
    _corners,
    MINUS,
    PLUS,
    is_maximal_second_factor,
    is_maximal_structural,
)
from qcrystal.weightlat import weight_of
from qcrystal.young import EMPTY, Partition, is_maximal_shape, is_n_regular

from helpers import (
    Signature,
    SignatureEntry,
    crystal_phi,
    e_tilde,
    epsilon,
    f_tilde,
    i_signature,
    partitions_upto,
    regular_blocks,
    scaled,
    signature_moves,
    simple_root,
    word,
)


def P(parts):
    return Partition.from_parts(parts)


def regular_diagrams(n, max_boxes):
    return [
        P(parts)
        for parts in partitions_upto(max_boxes)
        if is_n_regular(P(parts), n)
    ]


# Parts up to 200, up to 12 distinct ones, each repeated up to 8 times.
blocks_strategy = st.lists(
    st.tuples(st.integers(1, 200), st.integers(1, 8)), max_size=12, unique_by=lambda b: b[0]
)


def oracle_move(parts, n, i, sign):
    """The diagram that the last surviving minus (sign "-") or the first
    surviving plus (sign "+") of color i leads to, with that move, read off
    signature_moves; (None, None) when no such symbol survives."""
    reduced = []
    for move in signature_moves(parts):
        if (move[0] - move[2]) % n != i:
            continue
        if move[1] == "-" and reduced and reduced[-1][1] == "+":
            reduced.pop()
        else:
            reduced.append(move)
    picks = [m for m in reduced if m[1] == sign]
    if not picks:
        return None, None
    move = picks[-1] if sign == "-" else picks[0]
    rows = list(parts) + [0]
    rows[move[2] - 1] += 1 if sign == "+" else -1
    return P(r for r in rows if r > 0), move


def word_of(entries_signs):
    return Signature(
        tuple(SignatureEntry(99 - t, s, 1) for t, s in enumerate(entries_signs))
    )


def assert_matches_moves_oracle(d, n):
    # The uncoloured list pins the order between colours too: a minus and a
    # plus in one column always differ in colour, so no single signature
    # sees which comes first.
    moves = signature_moves(d.parts)
    assert list(_corners(d)) == moves, d
    for i in range(n):
        entries = [(e.column, e.sign, e.row) for e in i_signature(d, n, i).entries]
        assert entries == [m for m in moves if (m[0] - m[2]) % n == i], (d, n, i)


class TestSignature:
    def test_reduction_word_cases(self):
        assert word(word_of("+-").reduced()) == ""
        assert word(word_of("-+").reduced()) == "-+"
        assert word(word_of("++--").reduced()) == ""
        assert word(word_of("-++--+").reduced()) == "-+"
        assert word(Signature.reduced(word_of("+-"))) == ""

    def test_reduced_shape_on_diagrams(self):
        for n in (2, 3):
            for d in regular_diagrams(n, 9):
                for i in range(n):
                    assert "+-" not in word(i_signature(d, n, i).reduced())  # minuses precede pluses

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
        assert word(i_signature(EMPTY, 3, 0)) == PLUS
        assert word(i_signature(EMPTY, 3, 1)) == ""
        assert word(i_signature(EMPTY, 3, 2)) == ""

    def test_matches_moves_oracle(self):
        for n in range(2, 8):
            for d in regular_diagrams(n, 16):
                assert_matches_moves_oracle(d, n)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 9), blocks=blocks_strategy)
    def test_matches_moves_oracle_on_wide_and_tall_shapes(self, n, blocks):
        assert_matches_moves_oracle(regular_blocks(n, blocks), n)

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

    def test_box_moves_match_moves_oracle(self):
        # One box move serves removing the only box of the last row, opening
        # a new row below the diagram and growing the first row of a lower
        # block; each must be met inside a block of several rows (n = 2
        # allows only single rows).
        for n in (2, 3, 5):
            seen = set()
            for d in regular_diagrams(n, 12):
                parts = d.parts
                for i in range(n):
                    for sign, op in (("-", e_tilde), ("+", f_tilde)):
                        expected, move = oracle_move(parts, n, i, sign)
                        assert op(d, n, i) == expected, (d, n, i, sign)
                        if move is None:
                            continue
                        row = move[2]
                        if sign == "-" and row == len(parts) and parts[-1] == 1:
                            case, part = "remove only box of last row", 1
                        elif sign == "+" and row == len(parts) + 1:
                            case, part = "open new row", parts[-1] if parts else None
                        elif sign == "+" and 1 < row <= len(parts) and parts[row - 2] > parts[row - 1]:
                            case, part = "grow first row of lower block", parts[row - 1]
                        else:
                            continue
                        if parts.count(part) >= min(2, n - 1):
                            seen.add(case)
            assert seen == {
                "remove only box of last row",
                "open new row",
                "grow first row of lower block",
            }, n

    def test_epsilon_phi_examples(self):
        assert epsilon(EMPTY, 3, 0) == 0
        assert crystal_phi(EMPTY, 3, 0) == 1

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
                        assert weight_of(up, n) == weight_of(d, n) + scaled(-1, simple_root(i, n))

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
                # The coroot h_i reads the coefficient of L_i; delta pairs to zero.
                assert crystal_phi(d, n, i) - epsilon(d, n, i) == w.lam[i], (parts, n, i)

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
        for n in (2, 3, 5, 7):
            for parts in partitions_upto(12):
                shape = Partition.from_parts(parts)
                chain = is_maximal_shape(shape, n)
                if not is_n_regular(shape, n):
                    assert not chain
                    continue
                eps_test = is_maximal_second_factor(shape, n)
                structural = is_maximal_structural(shape, n)
                assert chain == eps_test == structural, (parts, n)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 41), blocks=blocks_strategy)
    def test_checks_only_colors_with_a_removable_corner(self, n, blocks):
        # A color without a removable corner has epsilon 0, so skipping it
        # must agree with testing every color.
        p = regular_blocks(n, blocks)
        expected = all(epsilon(p, n, i) <= (i == 0) for i in range(n))
        assert is_maximal_second_factor(p, n) == expected, (p, n)
