"""The measured process: one closed-loop client calling eqknot.cli.main
in-process, one operation in flight.

Usage: python3 worker.py MANIFEST RESULTS

The manifest (written by run.py) lists the corpus variants as argv
lists. After one untimed warm-up pass, passes run whole variants in
turn (pass i runs variant i mod the number of variants) until the time
budget is spent; the last pass is finished, so every pass has the same
mix of cases.
With tracing on, each pass runs twice, first untraced and then traced,
so the two walls give the tracing overhead. Outputs are saved for
run.py to verify; nothing is checked here, so the process holds only
eqknot and its answers.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback


def run_op(main, argv):
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        code = main(argv, out=buf)
    except SystemExit as e:  # argparse rejecting the arguments
        code, error = e.code, f"SystemExit({e.code})"
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        code, error = None, traceback.format_exc(limit=4)
    return code, time.perf_counter() - t0, buf.getvalue(), error


def run_pass(main, ops, variant, records, phase, tracer=None):
    t0 = time.perf_counter()
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = len(records)
        code, dt, text, error = run_op(main, argv)
        records.append([variant, i, code, dt, text, error, phase])
    return time.perf_counter() - t0


def main():
    manifest_path, results_path = sys.argv[1:3]
    with open(manifest_path) as f:
        manifest = json.load(f)
    sys.path.insert(0, manifest["src"])
    from eqknot import cli

    traced = manifest["trace"]
    out = {"records": [], "walls": [], "traced_walls": []}
    records = out["records"]
    if traced:
        import tracing
        probe = tracing.Tracer()
        probe.install()
        run_op(cli.main, manifest["probe"]["argv"])
        probe.uninstall()
        out["span_tree_problem"] = tracing.span_tree_problem(
            probe, manifest["probe"]["class_count"])
        tracer = tracing.Tracer()

    variants = manifest["variants"]
    # The first pass in a process runs 5-20% slower than later ones; it is
    # checked but not timed, so runs of three and of four passes agree.
    run_pass(cli.main, variants[-1], len(variants) - 1, records, "warm-up")
    budget = manifest["seconds"]
    start = time.perf_counter()
    n = 0
    while True:
        v = n % len(variants)
        out["walls"].append(run_pass(cli.main, variants[v], v, records, "run"))
        if traced:
            tracer.install()
            out["traced_walls"].append(
                run_pass(cli.main, variants[v], v, records, "traced", tracer))
            tracer.uninstall()
        n += 1
        if time.perf_counter() - start >= budget:
            break

    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        out["layers"] = tracer.totals()
        out["counts"] = tracer.counts
        out["gc_s"] = tracer.gc_s
        out["gc_collections"] = tracer.gc_collections
        tracer.write(manifest["spans"])
    with open(results_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
