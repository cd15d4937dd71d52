"""The coded errors: each rule that the CLI reports under its own code is
checked once, in the library, and raises `InputError` with that code, or
`HypothesisError` where a theorem's hypothesis fails. Both are
`ValueError`s, and str() is the bare message, with no code in front."""

import pickle

import pytest

from eqknot import (CheckerboardGraph, HypothesisError, InputError,
                    LatticeIsometry, SymmetrySpec, donaldson_obstruction,
                    enumerate_embeddings, gl_lattice, gsig_involution,
                    gsig_periodic, induced_isometry, knot_signature)
from test_checkerboard import nine_40

NINE_40_SYMMETRY = SymmetrySpec([2, 3, 0, 1, 4], 2, "strong_inversion", 1)
CROSSINGS = "'positive_crossings' must be an integer from 0 to 9"

# (id, call, hypothesis?, code, message)
RULES = [
    ("loop_edge", lambda: CheckerboardGraph(2, [(0, 1, -1), (1, 1, -1)]),
     False, "LOOP_EDGE", "loop edge not allowed: (1, 1, -1)"),
    ("dropped_vertex_high", lambda: gl_lattice(nine_40(), 5),
     False, "SCHEMA", "dropped_vertex out of range 0 to 4"),
    ("dropped_vertex_float", lambda: gl_lattice(nine_40(), 1.5),
     False, "SCHEMA", "dropped_vertex out of range 0 to 4"),
    ("dropped_vertex_negative",
     lambda: induced_isometry(nine_40(), NINE_40_SYMMETRY, -1),
     False, "SCHEMA", "dropped_vertex out of range 0 to 4"),
    ("crossings_negative", lambda: knot_signature(nine_40(), -1),
     False, "SCHEMA", CROSSINGS),
    ("crossings_high", lambda: knot_signature(nine_40(), 10),
     False, "SCHEMA", CROSSINGS),
    ("crossings_float", lambda: knot_signature(nine_40(), 6.0),
     False, "SCHEMA", CROSSINGS),
    ("crossings_bool", lambda: knot_signature(nine_40(), True),
     False, "SCHEMA", CROSSINGS),
    ("positive_sigma", lambda: donaldson_obstruction(
        [[1]], LatticeIsometry(((1,),), 1), 2, 1),
     True, "POSITIVE_SIGMA",
     "stated for sigma(K) <= 0; mirror the knot first"),
    ("negative_k", lambda: enumerate_embeddings([[1]], -1),
     False, "SCHEMA", "k must be >= 0"),
    ("not_definite", lambda: enumerate_embeddings([[0, 1], [1, 0]], 2),
     True, "NOT_DEFINITE", "form is not positive definite"),
    ("not_involution", lambda: gsig_involution([[1, 0], [0, 1]],
                                               [[1, 1], [0, 1]]),
     True, "NOT_INVOLUTION", "R is not an involution"),
    ("not_preserved", lambda: gsig_involution([[1, 0], [0, 2]],
                                              [[0, 1], [1, 0]]),
     True, "NOT_INVOLUTION", "R does not preserve the form"),
    ("rank_mismatch", lambda: gsig_involution([[1, 0], [0, 1]], [[1]]),
     False, "SCHEMA", "isometry rank does not match form rank"),
    ("period_one", lambda: gsig_periodic(1, 0, 0),
     False, "SCHEMA", "the period must be >= 2, not 1"),
]


@pytest.mark.parametrize("call, hypothesis, code, message",
                         [rule[1:] for rule in RULES],
                         ids=[rule[0] for rule in RULES])
def test_library_raises_coded_error(call, hypothesis, code, message):
    with pytest.raises(InputError) as e:
        call()
    assert isinstance(e.value, ValueError)
    assert isinstance(e.value, HypothesisError) is hypothesis
    assert e.value.code == code
    assert str(e.value) == message


@pytest.mark.parametrize("cls", [InputError, HypothesisError])
def test_coded_error_pickles(cls):
    e = pickle.loads(pickle.dumps(cls("CODE", "message")))
    assert (type(e), e.code, str(e)) == (cls, "CODE", "message")


def test_knot_signature_still_takes_every_count_in_range():
    # the one check that replaced two keeps both ends of the range
    g = nine_40()
    assert [knot_signature(g, pc) for pc in (0, 9)] == [4, -5]
