"""Golden CLI transcripts: stdout, stderr and the exit code of `obstruct`,
`gsig`, `embed`, `bounds` and `batch`, text and `--json`, on
`tests/fixtures` and on small cases written here, and the stdout of each
`demos/<stem>.py` (id `demo_<stem>`), compared byte for byte with
`tests/fixtures/golden/<id>.txt`.

A change that means to alter the output rewrites the expected files with
`PYTHONPATH=src python tests/test_golden.py` and shows the diff.
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

from eqknot.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
DEMOS = {f"demo_{p.stem}": p for p in sorted(
    (Path(__file__).parent.parent / "demos").glob("*.py"))}


def _cycle(n, perm, order, kind, lift_sign):
    return {"vertices": n, "edges": [[i, (i + 1) % n, -1] for i in range(n)],
            "symmetry": {"vertex_perm": perm, "order": order, "kind": kind,
                         "lift_sign": lift_sign}}


# Small cases built in code, all edge weights -1 unless said otherwise.
CASES = {
    "c5": dict(_cycle(5, [1, 2, 3, 4, 0], 5, "periodic", 1), sigma=-2),
    "c6_reflect": dict(_cycle(6, [0, 5, 4, 3, 2, 1], 2, "strong_inversion",
                              -1), sigma=-2),
    "c6_edge_reflect": dict(_cycle(6, [1, 0, 5, 4, 3, 2], 2,
                                   "strong_inversion", 1), sigma=0),
    "p4": {"vertices": 4, "edges": [[0, 1, -1], [1, 2, -1], [2, 3, -1]],
           "symmetry": {"vertex_perm": [3, 2, 1, 0], "order": 2,
                        "kind": "strong_inversion", "lift_sign": 1},
           "sigma": -2, "bounds": {"g4_K": 1}},
    "w4": {"vertices": 5,
           "edges": [[i, (i + 1) % 4, -1] for i in range(4)]
           + [[i, 4, -1] for i in range(4)],
           "symmetry": {"vertex_perm": [1, 2, 3, 0, 4], "order": 4,
                        "kind": "periodic", "lift_sign": 1},
           "sigma": -2},
    "flat": {"vertices": 2, "edges": [[0, 1, 1]],
             "symmetry": {"vertex_perm": [1, 0], "order": 2,
                          "kind": "strong_inversion", "lift_sign": 1},
             "sigma": 0},
}

GRAMS = {
    "quotient_9_40": [[4, -1, -1, -1], [-1, 3, -1, 0], [-1, -1, 4, -1],
                      [-1, 0, -1, 3]],
    "a2": [[2, 1], [1, 2]],
    "not_involution": {"gram": [[1, 0], [0, 2]],
                       "involution": [[1, 1], [0, 1]]},
    "not_preserved": {"gram": [[1, 0], [0, 2]],
                      "involution": [[0, 1], [1, 0]]},
}
RAW_GRAMS = {"bool_entry": '{"gram": [[2, true], [true, 2]], '
                           '"involution": [[1, 0], [0, 1]]}'}

BOUNDS_T3 = ["bounds", "--period", "2", "--sigma", "-2", "--quotient-sigma",
             "2", "--quotient-g4top", "1", "--lambda", "9", "--genus-upper",
             "6"]


def _commands():
    """(id, argv) pairs; {fixtures}, {cases} and {grams} name the
    directories."""
    nine_40, nine_46 = "{fixtures}/9_40.json", "{fixtures}/9_46_gram.json"
    plain = {
        "obstruct_9_40": ["obstruct", nine_40],
        "gsig_9_40": ["gsig", nine_40],
        "gsig_9_46_gram": ["gsig", "--gram", nine_46],
        "gsig_period": ["gsig", "--period", "3", "--sigma", "-4",
                        "--quotient-sigma", "2"],
        "bounds_t3": BOUNDS_T3,
        "bounds_fraction_gsig": ["bounds", "--gsig=-7/2", "--g4", "2"],
        "embed_9_46_indefinite": ["embed", "--gram", nine_46, "--k", "4"],
        "embed_quotient_9_40": ["embed", "--gram",
                                "{grams}/quotient_9_40.json", "--k", "6"],
        "embed_a2": ["embed", "--gram", "{grams}/a2.json", "--k", "3"],
        # no class of A2 has 4 nonzero rows, so every representative in
        # Z^4 ends in a zero row
        "embed_a2_k4": ["embed", "--gram", "{grams}/a2.json", "--k", "4"],
        "batch_fixtures": ["batch", "{fixtures}"],
        "batch_cases": ["batch", "{cases}"],
        "batch_cases_both": ["batch", "{cases}", "--sign-mode", "both"],
        "gsig_not_involution": ["gsig", "--gram",
                                "{grams}/not_involution.json"],
        "gsig_not_preserved": ["gsig", "--gram",
                               "{grams}/not_preserved.json"],
        "gsig_bool_entry": ["gsig", "--gram", "{grams}/bool_entry.json"],
    }
    for name in CASES:
        plain[f"obstruct_{name}"] = ["obstruct", f"{{cases}}/{name}.json"]
        plain[f"gsig_{name}"] = ["gsig", f"{{cases}}/{name}.json"]
    out = []
    for cid, argv in plain.items():
        out.append((cid, argv))
        out.append((f"{cid}_json", argv + ["--json"]))
    for v in range(5):
        out.append((f"obstruct_9_40_drop{v}_both",
                    ["obstruct", nine_40, "--drop-vertex", str(v),
                     "--sign-mode", "both", "--json"]))
    for v in range(6):
        out.append((f"obstruct_c6_reflect_drop{v}",
                    ["obstruct", "{cases}/c6_reflect.json", "--drop-vertex",
                     str(v), "--sign-mode", "both", "--json"]))
    return out


COMMANDS = _commands()


def write_inputs(root: Path) -> dict:
    cases, grams = root / "cases", root / "grams"
    cases.mkdir()
    grams.mkdir()
    for name, doc in CASES.items():
        (cases / f"{name}.json").write_text(json.dumps({"name": name, **doc}))
    for name, doc in GRAMS.items():
        (grams / f"{name}.json").write_text(json.dumps(doc))
    for name, text in RAW_GRAMS.items():
        (grams / f"{name}.json").write_text(text)
    return {"fixtures": str(FIXTURES), "cases": str(cases),
            "grams": str(grams)}


def transcript(argv, dirs) -> str:
    """What `eqknot ARGV` prints and returns, with the directories shown
    by their placeholders."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([a.format(**dirs) for a in argv], out=out)
    return (f"$ eqknot {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def demo_transcript(path: Path) -> str:
    """What the demo at path prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return f"$ python demos/{path.name}\n--- stdout\n{out.getvalue()}"


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("cid, argv", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_cli_transcript(cid, argv, dirs):
    assert transcript(argv, dirs) == (GOLDEN / f"{cid}.txt").read_text()


@pytest.mark.parametrize("did", sorted(DEMOS))
def test_demo_transcript(did):
    assert demo_transcript(DEMOS[did]) == (GOLDEN / f"{did}.txt").read_text()


def test_no_stale_expected_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(
        [c for c, _ in COMMANDS] + list(DEMOS))


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        d = write_inputs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for old in GOLDEN.glob("*.txt"):
            old.unlink()
        for cid, argv in COMMANDS:
            (GOLDEN / f"{cid}.txt").write_text(transcript(argv, d))
    for did, path in DEMOS.items():
        (GOLDEN / f"{did}.txt").write_text(demo_transcript(path))
    print(f"wrote {len(COMMANDS) + len(DEMOS)} transcripts to {GOLDEN}",
          file=sys.stderr)
