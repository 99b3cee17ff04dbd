"""Refusals and rare paths reached through the public entry points, each
message asserted in full."""

import pytest

from cobweb import BOOL, INT, BlockMatrix, CodingMatrix, FSequence, MatrixError, PosetError, \
    RootedPoset, SequenceError, cobweb, count_head_chains, count_tail_chains, custom, \
    f_factorial, from_file, is_cobweb_admissible, kroton, level_mobius, mobius, nat, root, \
    run_checks
from cobweb.blockmat import natural_join as mat_join


def refusal(error, call, *args):
    """The message of the error that call(*args) raises."""
    with pytest.raises(error) as caught:
        call(*args)
    return str(caught.value)


# -- matrices -----------------------------------------------------------------

def test_the_matrix_join_refuses_a_ring_mismatch():
    A = BlockMatrix([1], [[1]], INT)
    B = BlockMatrix([1], A.rows, BOOL)
    assert refusal(MatrixError, mat_join, A, B) == "ring mismatch: int vs bool"


def test_the_matrix_join_names_the_two_sizes_of_the_shared_level():
    A, B = BlockMatrix.identity([1, 2]), BlockMatrix.identity([3, 1])
    assert refusal(MatrixError, mat_join, A, B) == "join condition violated: 2 vs 3"


def test_the_matrix_join_refuses_a_shared_block_that_disagrees():
    A = BlockMatrix([1, 2], [[1, 1, 1], [0, 1, 0], [0, 0, 1]], INT)
    B = BlockMatrix([2, 1], [[1, 1, 1], [0, 1, 1], [0, 0, 1]], INT)
    assert refusal(MatrixError, mat_join, A, B) == \
        "shared diagonal block disagrees between operands"


def test_a_coding_matrix_refuses_a_diagonal_entry_other_than_1():
    assert refusal(ValueError, CodingMatrix, ((1, -1), (0, 2))) == \
        "coding matrix diagonal must be 1"


def test_unknown_methods_and_suites_are_refused():
    P = cobweb(nat(), 3)
    assert refusal(ValueError, run_checks, P, "bogus") == \
        "unknown suite 'bogus'; pick all|zeta|mobius|max|markov|whitney"
    assert refusal(ValueError, mobius, P, "bogus") == "unknown mobius method 'bogus'"
    assert refusal(ValueError, level_mobius, P, "bogus") == "unknown mobius method 'bogus'"


def test_kroton_refuses_a_negative_level():
    assert refusal(ValueError, kroton, nat(), -1, 2) == "level labels must be >= 0, got r=-1 s=2"


# -- chains -------------------------------------------------------------------

def test_chain_counts_refuse_a_level_out_of_range():
    P = cobweb(nat(), 3)
    x = P.node(2, 1)
    assert refusal(PosetError, count_tail_chains, P, 0, x) == \
        "tail level 0 must satisfy 1 <= r <= 2"
    assert refusal(PosetError, count_tail_chains, P, 3, x) == \
        "tail level 3 must satisfy 1 <= r <= 2"
    assert refusal(PosetError, count_head_chains, P, x, 1) == \
        "head level 1 must satisfy 2 <= s <= 3"
    assert refusal(PosetError, count_head_chains, P, x, 4) == \
        "head level 4 must satisfy 2 <= s <= 3"


# -- sequences ----------------------------------------------------------------

def test_a_sequence_refuses_index_0():
    assert refusal(SequenceError, nat().value, 0) == "level index must be >= 1, got 0"


def test_a_sequence_refuses_a_rule_that_yields_0():
    F = FSequence([1], rule=lambda k: 0)
    assert refusal(SequenceError, F.value, 2) == "sequence rule produced a non-positive value"


def test_negative_factorial_and_admissibility_bounds_are_refused():
    assert refusal(SequenceError, f_factorial, nat(), -1) == \
        "factorial index must be >= 0, got -1"
    assert refusal(SequenceError, is_cobweb_admissible, nat(), -1) == \
        "up_to must be >= 0, got -1"


def test_a_sequence_file_skips_blank_lines(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\n\n  \n2\n3\n")
    assert from_file(str(path)).prefix(3) == [1, 2, 3]


# -- posets -------------------------------------------------------------------

def test_a_rooted_poset_refuses_a_rooted_non_cobweb():
    assert refusal(PosetError, RootedPoset, [1, 2, 2], [[[1, 1]], [[1, 0], [0, 1]]]) == \
        "rooted quantities are defined on cobwebs"


def test_root_refuses_a_negative_level_count():
    assert refusal(PosetError, root, custom([2]), -1) == "root needs n >= 0, got -1"


def test_the_prefix_sum_refuses_a_level_past_the_top():
    P = cobweb(nat(), 3)
    assert P.S(3) == 6
    assert refusal(PosetError, P.S, 4) == "S(4) undefined for 3 levels"
