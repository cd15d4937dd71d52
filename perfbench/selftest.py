"""Self-test of the benchmark: its oracle, its answer checks, its span
tree, and BENCHMARK.json against what run.py prints.

    PYTHONPATH=src python3 perfbench/selftest.py

Exits non-zero on the first failed check. Takes about half a minute,
most of it two relabelled 9_40 searches through eqknot.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import check
import corpus
import oracle
import run
import tracing

from eqknot import cli


def cli_json(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    assert code == 0, (argv, code)
    return buf.getvalue()


def test_oracle():
    # orderly generation against brute force, on both sides of k = rank
    for g in (corpus.cycle(4), corpus.k_minus_matching(4, 1), corpus.path(3)):
        G = oracle.gl_gram(g.vertices, g.edges)
        for k in range(len(G), len(G) + 3):
            assert (oracle.embedding_classes(G, k)
                    == oracle.brute_force_classes(G, k)), (g.name, k)
    # embedding counts of the seed measurements: 9_40 and C5 at k = 6
    for g, classes, total in ((corpus.nine_40(), 2, 92160),
                              (corpus.cycle(5), 1, 23040)):
        got = oracle.embedding_classes(
            oracle.gl_gram(g.vertices, g.edges), 6)
        assert (len(got), sum(s for _, s in got)) == (classes, total), g.name
    assert oracle.inertia(corpus.GRAM_946) == (2, 2, 0)


def _obstruct(tmp, g, sigma, name):
    path = Path(tmp) / f"{name}.json"
    path.write_text(json.dumps(corpus.case_doc(g, name, sigma)))
    return path, json.loads(cli_json(["obstruct", str(path), "--json"]))


def _pattern(doc):
    return (doc["k"], doc["class_count"], doc["obstructed"],
            sorted(c["delta"] is None for c in doc["per_class"]))


def test_relabelling_keeps_invariants(tmp):
    """eqknot gives relabelled 9_40, C5 and C4 the same k, class count,
    verdict and delta pattern, and so does the oracle."""
    rng = random.Random(7)
    for g, sigma in ((corpus.nine_40(), -2), (corpus.cycle(5), -2),
                     (corpus.cycle(4, "vertex"), -2)):
        _, base = _obstruct(tmp, g, sigma, "base")
        for i in range(2):
            p = list(range(g.vertices))
            rng.shuffle(p)
            h = g.relabel(p)
            path, doc = _obstruct(tmp, h, sigma, f"relabelled{i}")
            assert _pattern(doc) == _pattern(base), g.name
            exp = corpus.obstruction_expectation(h, sigma)
            exp["kind"] = "obstruct"
            assert check.verify(exp, 0, json.dumps(doc)) == (1, None), g.name


def test_corrupted_answers_fail(tmp):
    """A wrong class_count, a delta that does not intertwine and a wrong
    g-signature are each counted as a failed operation."""
    g = corpus.cycle(4, "vertex")
    path, good = _obstruct(tmp, g, -2, "c4")
    exp = corpus.obstruction_expectation(g, -2)
    exp["kind"] = "obstruct"
    assert good["per_class"][0]["delta"] is not None

    wrong_count = dict(good, class_count=good["class_count"] + 1)
    bad_delta = copy.deepcopy(good)
    cls = bad_delta["per_class"][0]
    d = cls["delta"]
    i = next(i for i, j in enumerate(d["perm"]) if any(cls["embedding"][j]))
    d["signs"][i] = -d["signs"][i]

    gram = Path(tmp) / "946.json"
    gram.write_text(json.dumps({"gram": corpus.GRAM_946,
                                "involution": corpus.TAU_946}))
    gsig = json.loads(cli_json(["gsig", "--gram", str(gram), "--json"]))
    gsig_exp = {"kind": "gsig", "gsig": -4, "sigma_plus": -2,
                "sigma_minus": 2, "dims": [2, 2]}
    wrong_gsig = dict(gsig, gsig="4")

    variants = [[(["obstruct", str(path)], exp),
                 (["gsig", "--gram"], gsig_exp)]]
    records = [[0, 0, 0, 0.1, json.dumps(good), None, "run"],
               [0, 1, 0, 0.1, json.dumps(gsig), None, "run"],
               [0, 0, 0, 0.1, json.dumps(wrong_count), None, "run"],
               [0, 0, 0, 0.1, json.dumps(bad_delta), None, "run"],
               [0, 1, 0, 0.1, json.dumps(wrong_gsig), None, "run"],
               [0, 0, 3, 0.1, "", None, "run"]]
    attempted, failed, cases, reasons = run.tally(records, variants)
    assert (attempted, failed, cases) == (6, 4, 2), reasons
    assert "wrong class_count" in reasons[0]
    assert "does not intertwine" in reasons[1]
    assert "wrong g-signature" in reasons[2]
    assert "exit code 3" in reasons[3]


def test_span_tree(tmp):
    g = corpus.cycle(4, "vertex")
    path = Path(tmp) / "probe.json"
    path.write_text(json.dumps(corpus.case_doc(g, "probe", -2)))
    classes = len(corpus.obstruction_expectation(g, -2)["classes"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli_json(["obstruct", str(path), "--json"])
    finally:
        tracer.uninstall()
    assert classes == 2
    assert tracing.span_tree_problem(tracer, classes) is None
    assert tracing.span_tree_problem(tracer, classes + 1) is not None
    # names imported into other modules are wrapped there too
    totals = tracer.totals()
    assert totals["lattice.is_positive_definite"][0] >= 2
    assert totals["checkerboard.is_automorphism"][0] >= 2
    # uninstall restores every binding
    assert not hasattr(cli.donaldson_obstruction, "__wrapped__")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_names())
    assert tuple(w["name"] for w in spec["workloads"]) == corpus.WORKLOADS


def main():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for test in (test_oracle, test_benchmark_json):
            test()
            print(f"ok {test.__name__}")
        for test in (test_corrupted_answers_fail, test_span_tree,
                     test_relabelling_keeps_invariants):
            test(tmp)
            print(f"ok {test.__name__}")
    run.WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
