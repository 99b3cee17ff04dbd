"""The package's result records: immutable named tuples that keep their
field names, checks, repr, equality and hashing, and survive pickling."""

import copy
import pickle

import pytest

from cobweb import BOOL, INT, AdmissibilityVerdict, Chain, CharPoly, CheckResult, \
    CodingMatrix, LevelMatrix, NodeLabel, cobweb_of_sizes, level_zeta, max_matrix, mul


def all_records():
    """One valid instance of each record type."""
    return [NodeLabel(1, 2, 2), Chain(1, (1, 2)), AdmissibilityVerdict(True),
            CodingMatrix(((1, -1), (0, 1))), LevelMatrix((1, 2), ((1, 1), (0, 1))),
            CharPoly((1, -2)), CheckResult("zeta", "x", True)]


# each bad input given positionally and by keyword
CHECKED = [
    (CharPoly, dict(coefficients=()), "monic"),
    (CharPoly, dict(coefficients=(2, 1)), "monic"),
    (CodingMatrix, dict(entries=((1, -1),)), "square"),
    (CodingMatrix, dict(entries=((1, 1), (0, 1))), "superdiagonal"),
    (CodingMatrix, dict(entries=((1, -1), (1, 1))), "diagonal"),
    (CodingMatrix, dict(entries=((1, -1, -1), (0, 1, -1), (0, 0, 1))),
     r"^sign violation at \(1,3\)$"),
]


@pytest.mark.parametrize("cls,fields,message", CHECKED)
def test_checked_records_refuse_bad_input(cls, fields, message):
    with pytest.raises(ValueError, match=message):
        cls(*fields.values())
    with pytest.raises(ValueError, match=message):
        cls(**fields)


@pytest.mark.parametrize("rec", all_records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("i", range(len(all_records())))
def test_equal_records_are_equal_and_hash_alike(i):
    a, b = all_records()[i], all_records()[i]
    assert a is not b and a == b and hash(a) == hash(b)
    # a named tuple equals the plain tuple of its fields, and iterates them
    assert a == tuple(a) and list(a) == [getattr(a, f) for f in a._fields]


def test_records_keep_their_repr_and_fields():
    assert repr(NodeLabel(1, 2, 2)) == "NodeLabel(level=1, position=2, global_label=2)"
    assert CheckResult("s", "n", True).detail == ""
    assert LevelMatrix((1,), ((1,),)).ring is INT
    assert AdmissibilityVerdict(False, (3, 1)).first_failure == (3, 1)


@pytest.mark.parametrize("rec", all_records(), ids=lambda r: type(r).__name__)
def test_records_pickle_round_trip(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec


def test_rings_survive_pickling_and_copying():
    P = cobweb_of_sizes((1, 2, 3))
    L = pickle.loads(pickle.dumps(level_zeta(P)))
    assert L == level_zeta(P) and L.ring is BOOL
    M = pickle.loads(pickle.dumps(max_matrix(P)))
    assert M.ring is INT
    assert mul(M, max_matrix(P)) == mul(max_matrix(P), max_matrix(P))
    for ring in (INT, BOOL):
        assert copy.copy(ring) is ring and copy.deepcopy(ring) is ring
