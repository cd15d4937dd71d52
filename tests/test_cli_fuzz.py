"""Fuzz test of the CLI's exit-code contract: byte-mutated copies of the
9_40 case file, the 9_46 gram file and a rotated C9 case, fed to
`obstruct`, `gsig CASE`, `gsig --gram` and `embed --gram` in process,
exit 0, 2 or 3 and raise nothing, and `batch --json` on the mutant's
directory exits 0, as a bad file is an error row. The number of
examples comes from the Hypothesis profile (`tests/conftest.py`): 200 by
default, 2,000 with `--hypothesis-profile=ci`."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from eqknot.cli import main  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
# C9 rotated with lift sign -1, so that mutants reach the delta search
# with an odd composite order; built here rather than kept under
# fixtures/, whose every JSON file the batch goldens read
C9_ROTATED = json.dumps({
    "name": "C9", "vertices": 9,
    "edges": [[i, (i + 1) % 9, -1] for i in range(9)],
    "symmetry": {"vertex_perm": [(i + 1) % 9 for i in range(9)], "order": 9,
                 "kind": "periodic", "lift_sign": -1},
    "sigma": -2}).encode()
SOURCES = [(FIXTURES / name).read_bytes()
           for name in ("9_40.json", "9_46_gram.json")] + [C9_ROTATED]
DIGITS = b"0123456789"


@st.composite
def mutated_fixtures(draw):
    """A fixture with one to four edits: a byte replaced, inserted or
    deleted, or a digit changed to another digit. Half the new bytes are
    digits, signs or JSON punctuation, and a changed digit keeps the
    JSON valid, so many mutants reach the validation and the maths."""
    data = bytearray(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("digit", "replace", "insert", "delete")))
        byte = draw(st.sampled_from(DIGITS + b"-,[] ") | st.integers(0, 255))
        digits = [i for i, b in enumerate(data) if b in DIGITS]
        if op == "digit" and digits:
            data[digits[at % len(digits)]] = draw(st.sampled_from(DIGITS))
        elif op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "replace":
                data[at] = byte
            elif op == "delete":
                del data[at]
    return bytes(data)


def _sigma(data: bytes):
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):
        return None
    return doc.get("sigma") if isinstance(doc, dict) else None


@settings(derandomize=True, deadline=None, database=None)
@given(mutated_fixtures())
def test_mutated_file_keeps_exit_contract(data):
    # a sigma far below zero asks for Z^k with k near -sigma, whose zero
    # rows are materialised: that is a separate defect, pinned by
    # test_astronomical_sigma_keeps_exit_contract in test_cli.py
    sigma = _sigma(data)
    assume(not (isinstance(sigma, int) and sigma < -10**4))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "case.json")
        Path(path).write_bytes(data)
        for argv in (["obstruct", path], ["gsig", path],
                     ["gsig", "--gram", path],
                     ["embed", "--gram", path, "--k", "4"],
                     ["batch", tmp, "--json"]):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv, out=io.StringIO())
            # a batch reports a bad file as an error row and exits 0
            ok = (0,) if argv[0] == "batch" else (0, 2, 3)
            assert code in ok, (argv, data)
