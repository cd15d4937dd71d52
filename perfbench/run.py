"""eqknot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload obstruct-large --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
The corpus is generated from the seed and its answers are computed by
the benchmark's own oracle before anything is timed. A fresh worker
process then drives eqknot.cli.main in a closed loop for about
--seconds, and every answer is verified afterwards. The last line of
stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is 0 only when every
answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import corpus
from tracing import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 4  # before the worker, and again after it
DEADLINE_S = 160  # the worker is stopped by then, well before 180 s

END_TO_END = {
    "setup_s": "s", "cases_per_s": "1/s", "latency_p50_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer self time is reported as a share of the traced wall time.
SELF_SHARE = (
    "embedsearch.enumerate_embeddings", "embedsearch.enumerate_vectors",
    "embedsearch.orbit_classes", "embedsearch.canonical_form",
    "embedsearch.equivariant_delta", "embedsearch.donaldson_obstruction",
    "lattice.restrict_form", "lattice.eigenspace_basis", "lattice.signature",
    "lattice.mat_mul", "checkerboard.gl_lattice",
    "checkerboard.induced_isometry", "checkerboard.is_automorphism",
    "checkerboard.knot_signature", "gsignature.gsig_involution",
    "bounds.aggregate", "cli.parse_case",
)
CALLS = (
    "embedsearch.enumerate_embeddings", "embedsearch.canonical_form",
    "embedsearch.equivariant_delta", "lattice.signature",
    "lattice.is_positive_definite", "lattice.mat_mul",
    "gsignature.gsig_periodic", "bounds.aggregate", "cli.parse_case",
)
COUNTS = ("embedsearch.enumerate_embeddings.embeddings",
          "embedsearch.enumerate_vectors.vectors",
          "embedsearch.orbit_classes.classes",
          "embedsearch.equivariant_delta.found")


def per_layer_names():
    """name -> unit of every metric printed with --trace 1."""
    names = {f"{m}.self_share": "ratio" for m in MODULES}
    names.update({f"{f}.self_share": "ratio" for f in SELF_SHARE})
    names["cli.main.self_share"] = "ratio"
    names.update({f"{f}.calls": "count" for f in CALLS})
    names.update({c: "count" for c in COUNTS})
    names.update({"embedsearch.class_yield": "ratio",
                  "runtime.gc_share": "ratio",
                  "runtime.gc_collections": "count",
                  "cli.output_bytes": "bytes",
                  "trace_overhead_frac": "ratio"})
    return names


def child_env():
    """The default path: no EQKNOT_THREADS, the program from ./src."""
    env = {k: v for k, v in os.environ.items() if k != "EQKNOT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(warm_up):
    """Wall times of SETUP_RUNS fresh interpreters importing eqknot.cli.
    With warm_up, one untimed import first writes the bytecode caches."""
    cmd = [sys.executable, "-c", "import eqknot.cli"]
    env = child_env()
    times = []
    for i in range(SETUP_RUNS + warm_up):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT, timeout=60)
        if i >= warm_up:
            times.append(time.perf_counter() - t0)
    return times


def layer_metrics(res, passes):
    layers = res["layers"]
    wall = sum(res["traced_walls"])

    def self_s(name):
        return layers.get(name, (0, 0.0))[1]

    def calls(name):
        return layers.get(name, (0, 0.0))[0] / passes

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_share"] = sum(
            t for n, (_, t) in layers.items()
            if n.startswith(mod + ".")) / wall
    for f in SELF_SHARE:
        m[f"{f}.self_share"] = self_s(f) / wall
    m["cli.main.self_share"] = (m["cli.self_share"]
                                - m["cli.parse_case.self_share"])
    for f in CALLS:
        m[f"{f}.calls"] = calls(f)
    for c in COUNTS:
        m[c] = res["counts"].get(c, 0) / passes
    emb = m["embedsearch.enumerate_embeddings.embeddings"]
    m["embedsearch.class_yield"] = (
        m["embedsearch.orbit_classes.classes"] / emb if emb else 0.0)
    m["runtime.gc_share"] = res["gc_s"] / wall
    m["runtime.gc_collections"] = res["gc_collections"] / passes
    m["cli.output_bytes"] = sum(
        len(r[4].encode()) for r in res["records"] if r[6] == "traced"
    ) / passes
    m["trace_overhead_frac"] = wall / sum(res["walls"]) - 1
    return m


def tally(records, variants):
    """Verify every recorded answer: (attempted, failed, cases answered
    correctly in the timed untraced passes, failure reasons)."""
    attempted = failed = good_cases = 0
    reasons = []
    for v, i, code, _dt, text, error, phase in records:
        attempted += 1
        argv, exp = variants[v][i]
        cases, reason = (0, error) if error else check.verify(exp, code, text)
        if phase == "run":
            good_cases += cases
        if reason:
            failed += 1
            reasons.append(f"{' '.join(argv[:2])}: {reason}")
    return attempted, failed, good_cases, reasons


def run(args):
    if not (SRC / "eqknot" / "cli.py").is_file():
        print(f"perfbench: no eqknot sources under {SRC}", file=sys.stderr)
        return 2
    t_begin = time.perf_counter()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        variants = corpus.build(args.workload, args.seed, work)
        manifest = {"src": str(SRC), "seconds": args.seconds,
                    "trace": bool(args.trace),
                    "variants": [[argv for argv, _ in ops]
                                 for ops in variants]}
        if args.trace:
            OUT.mkdir(exist_ok=True)
            manifest["spans"] = str(OUT / f"spans-{args.workload}.csv")
            manifest["probe"] = probe_case(work)
        (work / "manifest.json").write_text(json.dumps(manifest))
        # set-up is timed on both sides of the worker, so a run that
        # straddles a change in machine speed reports a value in between
        setup = [] if args.trace else measure_setup(warm_up=1)
        results = work / "results.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        str(work / "manifest.json"), str(results)],
                       env=child_env(), cwd=ROOT, check=True,
                       timeout=DEADLINE_S - (time.perf_counter() - t_begin))
        res = json.loads(results.read_text())
        if not args.trace:
            setup += measure_setup(warm_up=0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failed, good_cases, reasons = tally(res["records"], variants)
    problem = res.get("span_tree_problem")
    if problem:
        reasons.append(f"span tree self-test: {problem}")
    for r in reasons[:10]:
        print(f"perfbench: FAILED {r}", file=sys.stderr)

    passes = len(res["walls"])
    latencies = [r[3] for r in res["records"] if r[6] == "run"]
    if args.trace:
        units = per_layer_names()
        metrics = {name: (value, units[name])
                   for name, value in layer_metrics(res, passes).items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "cases_per_s": good_cases / sum(res["walls"]),
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mib": res["maxrss_kib"] / 1024,
        }
        metrics = {n: (values[n], u) for n, u in END_TO_END.items()}
    summary = (f"{args.workload} seed {args.seed}: {attempted} operations "
               f"in {passes} timed passes ({good_cases} cases right), "
               f"fail_frac {failed / attempted:.4f}")
    if not args.trace:
        summary += f"; latency_p50_s over {len(latencies)} samples"
    print(summary)
    correct = failed == 0 and not problem
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def probe_case(work):
    """A small obstruct call for the span-tree self-test: C4 at k = 5,
    which has two embedding classes and takes milliseconds."""
    g = corpus.cycle(4, "vertex")
    exp = corpus.obstruction_expectation(g, -2)
    path = work / "probe.json"
    path.write_text(json.dumps(corpus.case_doc(g, "probe", -2)))
    return {"argv": ["obstruct", str(path), "--json"],
            "class_count": len(exp["classes"])}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
