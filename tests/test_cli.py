import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from eqknot import InputError
from eqknot.cli import _load, main, parse_case

FIXTURES = Path(__file__).parent / "fixtures"
NINE_40 = FIXTURES / "9_40.json"
NINE_46 = FIXTURES / "9_46_gram.json"

BAD_GRAM_FILES = {
    "malformed": "{broken",
    "asymmetric": json.dumps({"gram": [[2, 1], [0, 2]],
                              "involution": [[1, 0], [0, 1]]}),
    "not_square": json.dumps({"gram": [[2, 0, 0], [0, 2, 0]],
                              "involution": [[1, 0], [0, 1]]}),
    "not_integer": json.dumps({"gram": [[2, 0.5], [0.5, 2]],
                               "involution": [[1, 0], [0, 1]]}),
    "missing_gram": json.dumps({"involution": [[1, 0], [0, 1]]}),
}


# bytes no JSON decoder takes: not UTF-8, and nested past the recursion
# limit
UNDECODABLE = {"not_utf8": b'{"name": "\xff"}',
               "deep": b"[" * 200_000 + b"]" * 200_000}


def star_840_case(centre, cycles=(3, 5, 7, 8)):
    """A star with 23 leaves permuted in cycles of lengths 3, 5, 7 and 8
    (order 840), every edge weight -1 and every crossing positive, so
    sigma is 0. Dropping the centre vertex leaves the lattice I_23.
    Other cycle lengths give other stars, of order their lcm."""
    n = sum(cycles) + 1
    leaves = [v for v in range(n) if v != centre]
    perm = list(range(n))
    start = 0
    for length in cycles:
        cycle = leaves[start:start + length]
        for i, v in enumerate(cycle):
            perm[v] = cycle[(i + 1) % length]
        start += length
    order = math.lcm(*cycles)
    return {"name": f"star{order}", "vertices": n,
            "edges": [[centre, v, -1] for v in leaves],
            "symmetry": {"vertex_perm": perm, "order": order,
                         "kind": "periodic", "lift_sign": 1},
            "positive_crossings": n - 1, "sigma": 0}


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestParseCase:
    def test_9_40_fixture(self):
        case = parse_case(json.loads(NINE_40.read_text()))
        assert case.name == "9_40"
        assert case.graph.vertex_count == 5
        assert len(case.graph.edges) == 9
        assert case.sigma_K == -2

    @pytest.mark.parametrize("doc", [json.loads(NINE_40.read_text()),
                                     star_840_case(23)],
                             ids=["9_40", "star840"])
    def test_crossings_only_twin(self, tmp_path, doc):
        # a file without 'sigma' uses the one its positive_crossings
        # imply, which its twin states: same case, same outputs
        bare = dict(doc)
        del bare["sigma"]
        outputs = []
        for name, d in (("given", doc), ("implied", bare)):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "case.json"
            path.write_text(json.dumps(d))
            assert parse_case(_load(path)).sigma_K == doc["sigma"]
            outputs.append([run(argv + flags)
                            for argv in (["obstruct", str(path)],
                                         ["batch", str(tmp_path / name)])
                            for flags in ([], ["--json"])])
        assert outputs[0] == outputs[1]
        assert all(code == 0 for code, _ in outputs[0])

    def test_loop_edge_code(self):
        doc = {"name": "x", "vertices": 2,
               "edges": [[0, 0, -1]],
               "symmetry": {"vertex_perm": [0, 1], "order": 2,
                            "kind": "periodic", "lift_sign": 1}}
        with pytest.raises(InputError) as e:
            parse_case(doc)
        assert e.value.code == "LOOP_EDGE"

    def test_not_automorphism_code(self):
        doc = {"name": "x", "vertices": 3,
               "edges": [[0, 1, -1], [1, 2, -1], [1, 2, -1]],
               "symmetry": {"vertex_perm": [1, 0, 2], "order": 2,
                            "kind": "strong_inversion", "lift_sign": 1}}
        with pytest.raises(InputError) as e:
            parse_case(doc)
        assert e.value.code == "NOT_AUTOMORPHISM"

    def test_sigma_mismatch_code(self):
        doc = json.loads(NINE_40.read_text())
        doc["sigma"] = 0
        with pytest.raises(InputError) as e:
            parse_case(doc)
        assert e.value.code == "SIGMA_MISMATCH"

    def test_schema_code_on_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json")
        with pytest.raises(InputError) as e:
            _load(path)
        assert e.value.code == "SCHEMA"

    @pytest.mark.parametrize("field, value", [
        ("sigma", -1), ("sigma", "-2"), ("sigma", -2.5), ("sigma", True),
        ("positive_crossings", -1), ("positive_crossings", 10),
        ("positive_crossings", 6.0),
    ])
    def test_bad_sigma_or_crossings_schema(self, field, value):
        doc = json.loads(NINE_40.read_text())
        del doc["sigma"], doc["positive_crossings"]
        doc[field] = value
        with pytest.raises(InputError) as e:
            parse_case(doc)
        assert e.value.code == "SCHEMA"

    @pytest.mark.parametrize("bounds", [
        {"g4_K": "one"}, {"g4_K": True}, {"g4_K": 1.5}, {"period_n": 1},
        {"equivariant_unknotting_moves": -1}, {"gsig": "abc"},
        {"gsig": "1/0"}, {"gsig": [4]}])
    def test_bad_bounds_schema(self, bounds):
        doc = json.loads(NINE_40.read_text())
        doc["bounds"] = bounds
        with pytest.raises(InputError) as e:
            parse_case(doc)
        assert e.value.code == "SCHEMA"

    def test_fraction_gsig_bounds(self):
        doc = json.loads(NINE_40.read_text())
        doc["bounds"] = {"gsig": "-7/2", "period_n": 2}
        case = parse_case(doc)
        assert case.bounds_extras.gsig == "-7/2"

    def test_odd_implied_sigma_schema(self):
        doc = json.loads(NINE_40.read_text())
        del doc["sigma"]
        doc["positive_crossings"] = 5
        with pytest.raises(InputError) as e:
            parse_case(doc)
        assert e.value.code == "SCHEMA"


class TestObstructCommand:
    def test_9_40_json(self):
        code, out = run(["obstruct", str(NINE_40), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 6
        assert doc["class_count"] == 2
        assert doc["obstructed"] is True
        assert all(c["delta"] is None for c in doc["per_class"])

    def test_text_matches_json_numbers(self):
        _, text = run(["obstruct", str(NINE_40)])
        _, raw = run(["obstruct", str(NINE_40), "--json"])
        doc = json.loads(raw)
        assert f"k = {doc['k']}" in text
        assert f"embedding classes: {doc['class_count']}" in text

    def test_not_definite_exit_3(self, tmp_path):
        doc = {"name": "flat", "vertices": 2,
               "edges": [[0, 1, 1]],  # positive weight: negative lattice
               "symmetry": {"vertex_perm": [0, 1], "order": 2,
                            "kind": "periodic", "lift_sign": 1},
               "sigma": 0}
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(doc))
        code, _ = run(["obstruct", str(p)])
        assert code == 3

    def test_missing_file_exit_2(self):
        code, _ = run(["obstruct", "/nonexistent.json"])
        assert code == 2

    def test_positive_sigma_exit_3(self, tmp_path, capsys):
        doc = json.loads(NINE_40.read_text())
        del doc["positive_crossings"]
        doc["sigma"] = 2
        p = tmp_path / "mirror.json"
        p.write_text(json.dumps(doc))
        code, _ = run(["obstruct", str(p)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error POSITIVE_SIGMA: stated for sigma(K) <= 0; mirror the "
            "knot first\n")

    def test_symmetry_of_order_840(self, tmp_path):
        p = tmp_path / "star.json"
        p.write_text(json.dumps(star_840_case(0)))
        code, out = run(["obstruct", str(p), "--drop-vertex", "0"])
        assert code == 0
        assert "class 0: delta found" in out
        assert "obstructed: False" in out

    def test_removed_threads_flag_exit_2(self):
        with pytest.raises(SystemExit) as e:
            run(["obstruct", str(NINE_40), "--threads", "2"])
        assert e.value.code == 2


class TestGsigCommand:
    def test_raw_gram_946(self):
        code, out = run(["gsig", "--gram", str(NINE_46), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["gsig"] == "-4"

    def test_periodic_flags(self):
        code, out = run(["gsig", "--period", "2", "--sigma", "-4",
                         "--quotient-sigma", "2", "--json"])
        assert code == 0
        assert json.loads(out)["gsig"] == "8"

    def test_case_file_path(self):
        code, out = run(["gsig", str(NINE_40), "--json"])
        assert code == 0
        doc = json.loads(out)
        # identity-free computation from the graph symmetry
        assert doc["dims"] == [2, 2]

    def test_not_involution_exit_3(self, tmp_path):
        bad = {"gram": [[1, 0], [0, 1]], "involution": [[1, 1], [0, 1]]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, _ = run(["gsig", "--gram", str(p)])
        assert code == 3

    @pytest.mark.parametrize("involution, message", [
        ([[1, 1], [0, 1]], "R is not an involution"),
        ([[0, 1], [1, 0]], "R does not preserve the form")])
    def test_rejected_involution_exit_3(self, tmp_path, involution, message,
                                        capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"gram": [[1, 0], [0, 2]],
                                 "involution": involution}))
        code, out = run(["gsig", "--gram", str(p), "--json"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == f"error NOT_INVOLUTION: {message}\n"

    @pytest.mark.parametrize("name", sorted(BAD_GRAM_FILES))
    def test_bad_gram_file_exit_2(self, tmp_path, name, capsys):
        p = tmp_path / "g.json"
        p.write_text(BAD_GRAM_FILES[name])
        code, _ = run(["gsig", "--gram", str(p)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error SCHEMA")

    @pytest.mark.parametrize("key", ["gram", "involution"])
    @pytest.mark.parametrize("entry", ["true", "1.5", "1.0", "false"])
    def test_bool_or_float_entry_exit_2(self, tmp_path, key, entry, capsys):
        doc = {"gram": "[[2, 0], [0, 2]]", "involution": "[[1, 0], [0, 1]]"}
        doc[key] = f"[[1, {entry}], [{entry}, 1]]"
        p = tmp_path / "g.json"
        p.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items())
                     + "}")
        code, out = run(["gsig", "--gram", str(p), "--json"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error SCHEMA: '{key}' must be a square integer matrix\n")

    @pytest.mark.parametrize("involution", [
        [[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    def test_involution_size_mismatch_exit_2(self, tmp_path, involution,
                                             capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"gram": [[2, 0], [0, 2]],
                                 "involution": involution}))
        code, _ = run(["gsig", "--gram", str(p)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error SCHEMA")

    def test_non_square_involution_exit_2(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"gram": [[2, 0], [0, 2]],
                                 "involution": [[1, 0]]}))
        code, _ = run(["gsig", "--gram", str(p)])
        assert code == 2


class TestBoundsCommand:
    def test_montesinos_t3(self):
        code, out = run(["bounds", "--period", "2", "--sigma", "-2",
                         "--quotient-sigma", "2", "--quotient-g4top", "1",
                         "--lambda", "9", "--genus-upper", "6", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_lower"] == 6
        assert doc["best_upper"] == 6

    def test_example_6_12(self):
        code, out = run(["bounds", "--period", "2", "--sigma", "-4",
                         "--quotient-sigma", "2", "--quotient-g4top", "1",
                         "--lambda", "1", "--json"])
        doc = json.loads(out)
        vals = {b["name"]: b["value"] for b in doc["lower_bounds"]}
        assert vals["riemann-hurwitz"] == "2"
        assert vals["g-signature (periodic)"] == "4"

    def test_no_flags_empty_report(self):
        code, out = run(["bounds", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lower_bounds"] == [] and doc["consistent"] is True


class TestEmbedCommand:
    def test_small_gram(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"gram": [[2, 0], [0, 2]]}))
        code, out = run(["embed", "--gram", str(p), "--k", "2", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["embedding_count"] == 8
        assert doc["class_count"] == 1

    def test_indefinite_exit_3(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"gram": [[0, 1], [1, 0]]}))
        code, _ = run(["embed", "--gram", str(p), "--k", "2"])
        assert code == 3

    def test_bare_matrix_file(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps([[2, 0], [0, 2]]))
        code, out = run(["embed", "--gram", str(p), "--k", "2", "--json"])
        assert code == 0
        assert json.loads(out)["embedding_count"] == 8

    def test_count_past_sys_maxsize(self, tmp_path):
        # I_17 in Z^17: one class, the 17!*2^17 signed permutations
        p = tmp_path / "g.json"
        p.write_text(json.dumps([[int(i == j) for j in range(17)]
                                 for i in range(17)]))
        count = math.factorial(17) << 17
        assert count > sys.maxsize
        code, out = run(["embed", "--gram", str(p), "--k", "17", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["embedding_count"] == count
        assert doc["classes"][0]["orbit_size"] == count
        code, out = run(["embed", "--gram", str(p), "--k", "17"])
        assert code == 0
        assert out.startswith(f"embeddings: {count}   classes: 1")

    @pytest.mark.parametrize("name", sorted(BAD_GRAM_FILES))
    def test_bad_gram_file_exit_2(self, tmp_path, name, capsys):
        p = tmp_path / "g.json"
        p.write_text(BAD_GRAM_FILES[name])
        code, _ = run(["embed", "--gram", str(p), "--k", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error SCHEMA")


class TestBatchCommand:
    def test_single_fixture(self, tmp_path):
        (tmp_path / "9_40.json").write_text(NINE_40.read_text())
        code, out = run(["batch", str(tmp_path), "--json"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 1
        assert rows[0]["obstructed"] is True
        assert rows[0]["best_lower"] == 2 and rows[0]["best_upper"] == 2

    def test_symmetry_of_order_840(self, tmp_path):
        # batch drops the last vertex, here the centre
        (tmp_path / "star.json").write_text(json.dumps(star_840_case(23)))
        code, out = run(["batch", str(tmp_path), "--json"])
        assert code == 0
        row = json.loads(out)
        assert (row["k"], row["classes"]) == (23, 1)
        assert row["obstructed"] is False

    def test_empty_directory(self, tmp_path):
        code, out = run(["batch", str(tmp_path), "--json"])
        assert code == 0
        assert out.strip() == ""

    def test_malformed_file_inline_error(self, tmp_path):
        (tmp_path / "9_40.json").write_text(NINE_40.read_text())
        (tmp_path / "bad.json").write_text("{broken")
        odd = json.loads(NINE_40.read_text())
        del odd["positive_crossings"]
        odd["sigma"] = -1
        (tmp_path / "odd.json").write_text(json.dumps(odd))
        words = json.loads(NINE_40.read_text())
        words["bounds"] = {"g4_K": "one"}
        (tmp_path / "words.json").write_text(json.dumps(words))
        code, out = run(["batch", str(tmp_path), "--json"])
        assert code == 0
        rows = {r["file"]: r for r in map(json.loads, out.splitlines())}
        assert len(rows) == 4
        assert rows["bad.json"]["error"].startswith("SCHEMA")
        assert rows["odd.json"]["error"].startswith("SCHEMA")
        assert rows["words.json"]["error"].startswith("SCHEMA")
        assert rows["9_40.json"]["obstructed"] is True

    def test_unreadable_and_undecodable_rows(self, tmp_path):
        # a directory named like a case file is an IO row, bytes no
        # decoder takes are SCHEMA rows; the batch still exits 0
        (tmp_path / "a.json").mkdir()
        for name, content in UNDECODABLE.items():
            (tmp_path / f"{name}.json").write_bytes(content)
        (tmp_path / "9_40.json").write_text(NINE_40.read_text())
        code, out = run(["batch", str(tmp_path), "--json"])
        assert code == 0
        rows = {r["file"]: r for r in map(json.loads, out.splitlines())}
        assert rows["a.json"]["error"].startswith("IO: cannot read ")
        for name in UNDECODABLE:
            row = rows[f"{name}.json"]
            assert (set(row), row["name"]) == ({"name", "file", "error"}, name)
            assert row["error"].startswith("SCHEMA: not valid JSON: ")
        assert rows["9_40.json"]["obstructed"] is True
        code, out = run(["batch", str(tmp_path)])
        assert code == 0
        lines = out.splitlines()[1:]
        assert [line.split()[:3] for line in lines] == [
            ["9_40", "-2", "6"], ["a", "ERROR", "IO:"],
            ["deep", "ERROR", "SCHEMA:"], ["not_utf8", "ERROR", "SCHEMA:"]]


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
@pytest.mark.parametrize("argv", [
    ["obstruct", "FILE"], ["gsig", "FILE"], ["gsig", "--gram", "FILE"],
    ["embed", "--gram", "FILE", "--k", "4"]],
    ids=["obstruct", "gsig", "gsig_gram", "embed_gram"])
def test_undecodable_file_exit_2(argv, name, tmp_path, capsys):
    p = tmp_path / "case.json"
    p.write_bytes(UNDECODABLE[name])
    code, out = run([str(p) if a == "FILE" else a for a in argv])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error SCHEMA: not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["obstruct", str(NINE_40), "--drop-vertex", "99"],
    ["obstruct", str(NINE_40), "--drop-vertex", "-1"],
    ["gsig", str(NINE_40), "--drop-vertex", "99"],
    ["gsig", str(NINE_40), "--drop-vertex", "-1"],
    ["gsig", "--period", "1", "--sigma", "0", "--quotient-sigma", "0"],
    ["bounds", "--period", "1", "--sigma", "-2", "--quotient-sigma", "2"],
    ["bounds", "--gsig", "abc"],
    ["bounds", "--unknotting-moves", "-1"],
    ["embed", "--gram", "{gram}", "--k", "-1"],
    ["gsig", str(NINE_40), "--gram", str(NINE_46)],
    ["gsig", str(NINE_40), "--period", "2", "--sigma", "-4",
     "--quotient-sigma", "2"],
    ["gsig", "--gram", str(NINE_46), "--period", "2", "--sigma", "-4",
     "--quotient-sigma", "2"],
    ["gsig", str(NINE_40), "--gram", str(NINE_46), "--period", "2"],
    ["gsig", "--gram", str(NINE_46), "--drop-vertex", "0"],
    ["gsig", "--period", "2", "--sigma", "-4", "--quotient-sigma", "2",
     "--drop-vertex", "0"],
    ["gsig", "--drop-vertex", "0"],
    ["gsig", str(NINE_40), "--sigma", "-2"],
    ["gsig", "--gram", str(NINE_46), "--quotient-sigma", "2"],
    ["gsig", "--sigma", "-4", "--quotient-sigma", "2"],
])
def test_bad_flag_exit_2(argv, tmp_path, capsys):
    gram = tmp_path / "g.json"
    gram.write_text(json.dumps([[2, 0], [0, 2]]))
    code, _ = run([a.replace("{gram}", str(gram)) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error SCHEMA") and "Traceback" not in err


@pytest.mark.parametrize("command", ["obstruct", "gsig"])
@pytest.mark.parametrize("field, value, message", [
    ("weight", -1.0, "edge weight must be +1 or -1"),
    ("weight", True, "edge weight must be +1 or -1"),
    ("lift_sign", -1.0, "lift_sign must be +1 or -1"),
    ("lift_sign", True, "lift_sign must be +1 or -1"),
])
def test_non_int_weight_or_lift_sign_exit_2(command, field, value, message,
                                            tmp_path, capsys):
    # equal to +-1 by value but not ints: rejected, not computed on
    doc = json.loads(NINE_40.read_text())
    if field == "weight":
        doc["edges"] = [[u, v, value] for u, v, _ in doc["edges"]]
    else:
        doc["symmetry"]["lift_sign"] = value
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    code, out = run([command, str(p)])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error SCHEMA") and message in err


@pytest.mark.parametrize("command", ["obstruct", "gsig"])
@pytest.mark.parametrize("doc, message", [
    ({"vertices": True, "edges": [], "vertex_perm": [0]},
     "vertex count must be an integer"),
    ({"vertices": 2, "edges": [[0, True, -1]], "vertex_perm": [1, 0]},
     "edge endpoint must be an integer"),
    ({"vertices": 2, "edges": [[0, 1, -1]], "vertex_perm": [True, 0]},
     "vertex_perm is not a permutation"),
], ids=["vertices", "endpoint", "vertex_perm"])
def test_bool_as_int_exit_2(command, doc, message, tmp_path, capsys):
    # JSON true equals 1 by value but is not an integer: rejected
    case = {"name": "b", "vertices": doc["vertices"], "edges": doc["edges"],
            "symmetry": {"vertex_perm": doc["vertex_perm"], "order": 2,
                         "kind": "strong_inversion", "lift_sign": 1},
            "sigma": 0}
    p = tmp_path / "case.json"
    p.write_text(json.dumps(case))
    code, out = run([command, str(p)])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error SCHEMA") and message in err


@pytest.mark.parametrize("command", ["obstruct", "embed",
                                     "positive_crossings", "batch"])
def test_definiteness_eliminates_once(command, tmp_path, inertia_calls):
    # the NOT_DEFINITE pre-check and the guard in enumerate_embeddings
    # share one elimination of G. The first two cases state sigma, not
    # positive_crossings, so parsing eliminates nothing; the last two
    # read the fixture, whose positive_crossings make parse_case compute
    # sigma from the same lattice, as gl_lattice builds one per graph and
    # dropped vertex
    from eqknot import gl_lattice
    doc = json.loads(NINE_40.read_text())
    del doc["positive_crossings"]
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps(
        gl_lattice(parse_case(doc).graph).gram))
    argv = {"obstruct": ["obstruct", str(case)],
            "embed": ["embed", "--gram", str(gram), "--k", "6"],
            "positive_crossings": ["obstruct", str(NINE_40)],
            "batch": ["batch", str(FIXTURES)]}[command]
    code, out = run(argv + ["--json"])
    assert code == 0
    doc = json.loads(out.splitlines()[0] if command == "batch" else out)
    assert doc.get("class_count", doc.get("classes")) == 2
    assert inertia_calls == [4]


def _symmetric_cases():
    """Case documents with every edge weight -1, at sigma 0 and -2:
    C_n rotated and reflected, the wheel W_n and the star S_n with the
    rim or the leaves rotated, and K_n minus m disjoint edges with the
    ends of each removed edge swapped."""
    def doc(n, edges, perm, order, kind):
        return {"name": "generated", "vertices": n,
                "edges": [list(e) for e in edges],
                "symmetry": {"vertex_perm": perm, "order": order,
                             "kind": kind, "lift_sign": 1}}

    cases = {}
    for n in range(3, 7):
        rim = [(i, (i + 1) % n, -1) for i in range(n)]
        turn = [(i + 1) % n for i in range(n)]
        cases[f"C{n}_rotated"] = doc(n, rim, turn, n, "periodic")
        cases[f"C{n}_reflected"] = doc(n, rim, [-i % n for i in range(n)],
                                       2, "strong_inversion")
        cases[f"W{n}"] = doc(n + 1, rim + [(i, n, -1) for i in range(n)],
                             turn + [n], n, "periodic")
        cases[f"S{n}"] = doc(n + 1, [(0, i, -1) for i in range(1, n + 1)],
                             [0] + [i % n + 1 for i in range(1, n + 1)], n,
                             "periodic")
    for n, m in ((4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)):
        gone = {(2 * i, 2 * i + 1) for i in range(m)}
        cases[f"K{n}-{m}"] = doc(
            n, [(u, v, -1) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in gone],
            [v ^ 1 if v < 2 * m else v for v in range(n)], 2,
            "strong_inversion")
    return {f"{name}_sigma{-s}": dict(d, sigma=s)
            for name, d in cases.items() for s in (0, -2)}


def _drop_vertex_cases():
    from test_golden import CASES
    golden = {name: {"name": name, **doc} for name, doc in CASES.items()}
    return {"9_40": json.loads(NINE_40.read_text()), **golden,
            **_symmetric_cases()}


@pytest.mark.parametrize("name, doc", _drop_vertex_cases().items(),
                         ids=list(_drop_vertex_cases()))
def test_verdict_independent_of_dropped_vertex(tmp_path, name, doc):
    # dropping another vertex gives an isometric lattice and a conjugate
    # isometry, so k, the class count and the verdict stay the same; the
    # largest-norm column moves with the drop
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    for mode in ("strict", "both"):
        seen = set()
        for v in range(doc["vertices"]):
            code, out = run(["obstruct", str(p), "--drop-vertex", str(v),
                             "--sign-mode", mode, "--json"])
            assert code in (0, 3), (v, mode)  # 3: not positive definite
            rep = json.loads(out) if code == 0 else {}
            seen.add((code, rep.get("k"), rep.get("class_count"),
                      rep.get("obstructed")))
        assert len(seen) == 1, (mode, seen)


def _obstruct_json(tmp_path, doc, *flags):
    """The exit code and, on exit 0, the --json report of `obstruct`."""
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    code, out = run(["obstruct", str(p), *flags, "--json"])
    return code, json.loads(out) if code == 0 else None


def _relabelled(doc, pi):
    """doc with vertex v renamed pi[v]: the edges mapped and the symmetry
    conjugated, pi . perm . pi^-1."""
    perm = doc["symmetry"]["vertex_perm"]
    conj = [0] * len(perm)
    for v, image in enumerate(perm):
        conj[pi[v]] = pi[image]
    return dict(doc, edges=[[pi[u], pi[v], w] for u, v, w in doc["edges"]],
                symmetry=dict(doc["symmetry"], vertex_perm=conj))


@pytest.mark.parametrize("name, doc", _drop_vertex_cases().items(),
                         ids=list(_drop_vertex_cases()))
def test_verdict_independent_of_relabelling(tmp_path, name, doc):
    # renaming the vertices is an isomorphism of the signed graph that
    # carries the symmetry along, so the lattice of the default drop is
    # isometric to the original's and the verdict cannot move
    rng = random.Random(f"relabel-{name}")
    want = _obstruct_json(tmp_path, doc)
    for _ in range(3):
        pi = list(range(doc["vertices"]))
        rng.shuffle(pi)
        code, rep = _obstruct_json(tmp_path, _relabelled(doc, pi))
        assert code == want[0], pi
        if code == 0:
            assert ([rep[key] for key in ("k", "class_count", "obstructed")]
                    == [want[1][key] for key in
                        ("k", "class_count", "obstructed")]), pi


@pytest.mark.parametrize("name, doc", _drop_vertex_cases().items(),
                         ids=list(_drop_vertex_cases()))
def test_sign_mode_both_is_union_of_strict_runs(tmp_path, name, doc):
    # both modes search the same classes; --sign-mode both finds a delta
    # for a class exactly when a strict run with lift_sign or -lift_sign
    # does, so it is obstructed exactly when both strict runs are
    sign = doc["symmetry"]["lift_sign"]
    flipped = dict(doc, symmetry=dict(doc["symmetry"], lift_sign=-sign))
    code, both = _obstruct_json(tmp_path, doc, "--sign-mode", "both")
    runs = [_obstruct_json(tmp_path, d) for d in (doc, flipped)]
    assert [c for c, _ in runs] == [code, code]
    if code != 0:
        return
    strict = [rep for _, rep in runs]
    for rep in strict:
        assert ([c["embedding"] for c in rep["per_class"]]
                == [c["embedding"] for c in both["per_class"]])
    for idx, cls in enumerate(both["per_class"]):
        assert (cls["delta"] is not None) == any(
            rep["per_class"][idx]["delta"] is not None for rep in strict), idx
    assert both["obstructed"] == all(rep["obstructed"] for rep in strict)


def run_limited(argv, limit=1 << 30):
    """Run the CLI on argv in a subprocess under an address-space limit
    of `limit` bytes (1 GiB by default), killed after 60 s."""
    code = ("import sys; from eqknot.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (limit, limit)))


def test_huge_vertex_count_exit_2(tmp_path):
    # 10**8 vertices and 9 edges cannot be connected: exit 2 at once,
    # with no per-vertex allocation, under a 1 GiB address-space limit
    doc = json.loads(NINE_40.read_text())
    doc["vertices"] = 10**8
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    done = run_limited(["obstruct", str(p)])
    assert done.returncode == 2
    assert done.stderr == ("error SCHEMA: bad graph: checkerboard graph "
                           "must be connected\n")


def test_huge_sigma_keeps_exit_contract(tmp_path):
    # sigma -1200 asks for embeddings into Z^1204, and --k 1100 for the
    # A2 form into Z^1100; E has at most tr(G) nonzero rows, so the
    # answer needs no more than tr(G) coordinates. A star of order 2520
    # at sigma -2000 has 2000 zero rows, of which a delta needs to move
    # at most 4 + 9 + 5 + 7
    doc = json.loads(NINE_40.read_text())
    del doc["positive_crossings"]
    doc["sigma"] = -1200
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    gram = tmp_path / "a2.json"
    gram.write_text(json.dumps([[2, -1], [-1, 2]]))
    star = star_840_case(0, cycles=(5, 7, 8, 9))
    del star["positive_crossings"]
    star["sigma"] = -2000
    (tmp_path / "star.json").write_text(json.dumps(star))
    for argv in (["obstruct", str(case)],
                 ["embed", "--gram", str(gram), "--k", "1100"],
                 ["obstruct", str(tmp_path / "star.json"),
                  "--drop-vertex", "0"]):
        done = run_limited(argv)
        assert done.returncode in (0, 2, 3), argv
        assert "Traceback" not in done.stderr


@pytest.mark.xfail(strict=True, reason="the zero rows past tr(G) are "
                   "materialised, so a k past sys.maxsize raises "
                   "OverflowError and exits 1")
def test_astronomical_sigma_keeps_exit_contract(tmp_path):
    doc = json.loads(NINE_40.read_text())
    del doc["positive_crossings"]
    doc["sigma"] = -10**20
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    done = run_limited(["obstruct", str(p)])
    assert done.returncode in (0, 2, 3)
    assert "Traceback" not in done.stderr


@pytest.mark.xfail(strict=True, reason="the order that delta must have "
                   "is SymmetrySpec.order, 3, but R = -rho(perm) has "
                   "order 6, and delta^3 = I would force R^3 = I, so no "
                   "class can have such a delta whatever the lattice; "
                   "obstruct still reports that as obstructed")
def test_impossible_delta_order_is_no_obstruction(tmp_path):
    # C3 rotated, periodic of order 3, lift sign -1 (ROADMAP item 12):
    # any correct answer (no verdict, an exit-3 hypothesis error, or a
    # delta of R's own order) makes no obstruction claim
    p = tmp_path / "c3.json"
    p.write_text(json.dumps({
        "name": "C3", "vertices": 3,
        "edges": [[0, 1, -1], [1, 2, -1], [2, 0, -1]],
        "symmetry": {"vertex_perm": [1, 2, 0], "order": 3,
                     "kind": "periodic", "lift_sign": -1},
        "sigma": -2}))
    _, out = run(["obstruct", str(p)])
    assert "obstructed: True" not in out


def test_huge_symmetry_order_answers_at_once(tmp_path):
    # a periodic symmetry may have any order its cycle lengths divide;
    # the identity with a semiprime order near 10**18 leaves every
    # class without a delta, found without factoring the order
    doc = json.loads(NINE_40.read_text())
    del doc["positive_crossings"]
    doc["sigma"] = -4
    doc["symmetry"] = {"vertex_perm": [0, 1, 2, 3, 4],
                       "order": 999999937 * 999999929,
                       "kind": "periodic", "lift_sign": 1}
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    done = run_limited(["obstruct", str(p), "--sign-mode", "both"])
    assert done.returncode == 0, done.stderr
    assert "embedding classes: 11\n" in done.stdout
    assert "obstructed: True\n" in done.stdout


@pytest.mark.parametrize("n", [9, 15])
def test_rotated_cycle_with_lift_sign_minus_one_answers_at_once(tmp_path, n):
    # C_n rotated with lift sign -1 at sigma -10 has one class with 9 zero
    # rows, and no nonzero-row block whose order divides n; the zero rows
    # are never searched, so this answers at once rather than trying
    # every signed permutation of them at every leaf. The verdict is the
    # vacuous one of ROADMAP item 12, so it is not asserted
    p = tmp_path / "case.json"
    p.write_text(json.dumps({
        "name": f"C{n}", "vertices": n,
        "edges": [[i, (i + 1) % n, -1] for i in range(n)],
        "symmetry": {"vertex_perm": [(i + 1) % n for i in range(n)],
                     "order": n, "kind": "periodic", "lift_sign": -1},
        "sigma": -10}))
    done = run_limited(["obstruct", str(p)])
    assert done.returncode == 0, done.stderr
    assert "embedding classes: 1\n" in done.stdout
    assert "Traceback" not in done.stderr


def test_star_leaf_dropped_in_bounded_memory(tmp_path):
    # dropping a leaf leaves the centre a column of norm 23 in Z^23,
    # whose full norm pool does not fit in 600 MB; the lattice is still
    # I_23, one class, with a delta of order 840
    p = tmp_path / "star.json"
    p.write_text(json.dumps(star_840_case(23)))
    done = run_limited(["obstruct", str(p), "--drop-vertex", "0"],
                       limit=600 * 10**6)
    assert done.returncode == 0, done.stderr
    assert "embedding classes: 1\n  class 0: delta found\n" in done.stdout


def test_import_leaves_numpy_out():
    code = ("import sys, eqknot.cli; "
            "sys.exit('numpy' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env)
    assert done.returncode == 0
