"""The coded errors: each rule that the CLI reports under its own code is
checked once, in the library, and raises `InputError` with that code, or
`HypothesisError` where a theorem's hypothesis fails. Both are
`ValueError`s, and str() is the bare message, with no code in front.
The other guards on library arguments raise a plain `ValueError` with no
code (`GUARDS`); `cli.parse_case` wraps those a case file can reach."""

import pickle

import pytest

from eqknot import (CheckerboardGraph, Embedding, HypothesisError,
                    InputError, LatticeIsometry, SignedPermutation,
                    SymmetrySpec, donaldson_obstruction, enumerate_embeddings,
                    enumerate_vectors, equivariant_delta, gl_lattice,
                    gsig_involution, gsig_periodic, induced_isometry,
                    knot_signature, rh_bound)
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
        [[1]], [LatticeIsometry(((1,),), 1)], 2, 1),
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

UNIT = LatticeIsometry(((1,),), 1)
SIGNS = "signs must be +/-1 of matching length"

# (id, call, message)
GUARDS = [
    ("perm_repeats", lambda: SignedPermutation([0, 0], [1, 1]),
     "not a permutation"),
    ("sign_two", lambda: SignedPermutation([0, 1], [1, 2]), SIGNS),
    ("signs_short", lambda: SignedPermutation([0, 1], [1]), SIGNS),
    ("embedding_rows", lambda: Embedding(1, [(1,), (1,)]),
     "embedding has more than k rows"),
    ("embedding_zero_row", lambda: Embedding(2, [(0,)]),
     "embedding rows must be nonzero"),
    ("embedding_float", lambda: Embedding(1, [(1.0,)]),
     "matrix entries must be ints"),
    ("vectors_negative_k", lambda: enumerate_vectors(-1, 0),
     "k must be non-negative"),
    ("delta_r_size", lambda: equivariant_delta(
        Embedding(1, [(1,)]), [[1, 0], [0, 1]]),
     "isometry dimension does not match embedding source"),
    ("odd_sigma", lambda: donaldson_obstruction([[1]], [UNIT], -1, 1),
     "-sigma(K) must be even"),
    ("no_lifts", lambda: donaldson_obstruction([[1]], [], 0, 1),
     "need at least one lift"),
    ("no_vertex", lambda: CheckerboardGraph(0, []),
     "graph needs at least one vertex"),
    ("symmetry_kind", lambda: SymmetrySpec([1, 0], 2, "rotation", 1),
     "unknown symmetry kind: rotation"),
    ("rh_period_one", lambda: rh_bound(1, 0, 1), "period must be >= 2"),
    ("perm_length", lambda: induced_isometry(
        nine_40(), SymmetrySpec([1, 0], 2, "strong_inversion", 1)),
     "vertex_perm is not a weighted-graph automorphism"),
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


@pytest.mark.parametrize("call, message", [guard[1:] for guard in GUARDS],
                         ids=[guard[0] for guard in GUARDS])
def test_library_guard_raises_plain_error(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert not isinstance(e.value, InputError)
    assert str(e.value) == message


@pytest.mark.parametrize("cls", [InputError, HypothesisError])
def test_coded_error_pickles(cls):
    e = pickle.loads(pickle.dumps(cls("CODE", "message")))
    assert (type(e), e.code, str(e)) == (cls, "CODE", "message")


def test_knot_signature_still_takes_every_count_in_range():
    # the one check that replaced two keeps both ends of the range
    g = nine_40()
    assert [knot_signature(g, pc) for pc in (0, 9)] == [4, -5]
