"""Property test of `signature` against char-poly Descartes inertia on
every symmetric integer form of rank <= 7 that Hypothesis draws."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqknot import signature  # noqa: E402
from conftest import inertia_by_descartes  # noqa: E402


@st.composite
def symmetric_forms(draw):
    n = draw(st.integers(0, 7))
    upper = draw(st.lists(st.integers(-4, 4) | st.just(0),
                          min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    M = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = next(entries)
    return M


@settings(derandomize=True, max_examples=200, deadline=None)
@given(symmetric_forms())
def test_inertia_matches_descartes(M):
    s = signature(M)
    assert (s.n_pos, s.n_neg, s.n_zero) == inertia_by_descartes(M)
