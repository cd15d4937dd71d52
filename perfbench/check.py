"""Check one CLI answer against the expectation built by corpus.py.

The JSON is compared by meaning, not by bytes: only the fields named
here are read, so extra fields in a report do not count as a failure.
Matrices are checked with the benchmark's own arithmetic (oracle.py).
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle


class Mismatch(Exception):
    pass


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _matrix(rows, k, m):
    _expect(isinstance(rows, list) and len(rows) == k
            and all(isinstance(r, list) and len(r) == m
                    and all(type(x) is int for x in r) for r in rows),
            f"not a {k} x {m} integer matrix")


def _classes(reps, exp):
    """Each representative embeds G; the representatives are pairwise
    inequivalent and are exactly the oracle's classes. Returns their
    canonical forms in report order."""
    G, k = exp["G"], exp["k"]
    seen = []
    for E in reps:
        _matrix(E, k, len(G))
        _expect(oracle.mat_mul(oracle.transpose(E), E) == G,
                "representative does not satisfy E^T E = G")
        seen.append(oracle.canonical(E))
    _expect(len(set(seen)) == len(seen), "two representatives are equivalent")
    _expect(set(seen) == set(exp["classes"]),
            "embedding classes differ from the oracle's")
    return seen


def _delta(d, E, exp):
    """A reported delta P must be a signed permutation with P E = E R and
    exact order equal to the symmetry's."""
    k = exp["k"]
    perm, signs = d["perm"], d["signs"]
    _expect(sorted(perm) == list(range(k)) and len(signs) == k
            and all(s in (1, -1) for s in signs),
            "delta is not a signed permutation")
    P = oracle.signed_perm_matrix(perm, signs)
    _expect(oracle.mat_mul(P, E) == oracle.mat_mul(E, exp["R"]),
            "delta does not intertwine: P E != E R")
    _expect(oracle.exact_order(P, exp["order"]) == exp["order"],
            "delta does not have the required order")


def check_obstruct(doc, exp):
    _expect(doc["k"] == exp["k"], "wrong k")
    _expect(doc["class_count"] == len(exp["classes"]), "wrong class_count")
    _expect(doc["obstructed"] is exp["obstructed"], "wrong verdict")
    per_class = doc["per_class"]
    _expect(len(per_class) == doc["class_count"],
            "per_class length differs from class_count")
    canon = _classes([c["embedding"] for c in per_class], exp)
    for c, key in zip(per_class, canon):
        if c["delta"] is not None:
            _delta(c["delta"], c["embedding"], exp)
        _expect((c["delta"] is not None) == exp["classes"][key][1],
                "delta reported for a class that has none, or missed")


def check_embed(doc, exp):
    _expect(doc["k"] == exp["k"], "wrong k")
    total = sum(size for size, _ in exp["classes"].values())
    _expect(doc["embedding_count"] == total, "wrong embedding_count")
    _expect(doc["class_count"] == len(exp["classes"]), "wrong class_count")
    classes = doc["classes"]
    _expect(len(classes) == doc["class_count"],
            "classes length differs from class_count")
    canon = _classes([c["representative"] for c in classes], exp)
    for c, key in zip(classes, canon):
        _expect(c["orbit_size"] == exp["classes"][key][0], "wrong orbit_size")
    _expect(sum(c["orbit_size"] for c in classes) == doc["embedding_count"],
            "orbit sizes do not sum to embedding_count")


def check_gsig(doc, exp):
    _expect(Fraction(doc["gsig"]) == exp["gsig"], "wrong g-signature")
    for key in ("sigma_plus", "sigma_minus", "dims", "name"):
        if key in exp:
            _expect(doc[key] == exp[key], f"wrong {key}")


def check_bounds(doc, exp):
    lows = {b["name"]: b for b in doc["lower_bounds"]}
    _expect(set(lows) == set(exp["lower"]), "wrong set of lower bounds")
    for name, value in exp["lower"].items():
        _expect(Fraction(lows[name]["value"]) == value, f"wrong {name} bound")
        _expect(lows[name]["ceiling"] == -((-value.numerator)
                                           // value.denominator),
                f"wrong {name} ceiling")
    for key in ("best_lower", "best_upper", "consistent"):
        _expect(doc[key] == exp[key], f"wrong {key}")


def check_batch(text, exp):
    """Returns the number of rows that match; raises if any does not."""
    rows = {}
    for line in text.splitlines():
        if line.strip():
            row = json.loads(line)
            rows[row["file"]] = row
    good = 0
    bad = []
    for file, want in exp["rows"].items():
        got = rows.get(file)
        if got is None:
            bad.append(f"{file}: missing row")
        elif "error" in want:
            if str(got.get("error", "")).startswith(want["error"]):
                good += 1
            else:
                bad.append(f"{file}: expected {want['error']} error")
        elif all(got.get(key, object()) == value
                 for key, value in want.items()):
            good += 1
        else:
            bad.append(f"{file}: row differs")
    extra = set(rows) - set(exp["rows"])
    if extra:
        bad.append(f"unexpected rows {sorted(extra)[:3]}")
    if bad:
        raise Mismatch(f"{len(bad)} bad batch rows, first: {bad[0]}")
    return good


_CHECKS = {"obstruct": check_obstruct, "embed": check_embed,
           "gsig": check_gsig, "bounds": check_bounds}


def verify(exp, code, text):
    """(cases answered correctly, None) or (0, reason). Every expected
    answer has exit code 0."""
    try:
        _expect(code == 0, f"exit code {code}")
        if exp["kind"] == "batch":
            return check_batch(text, exp), None
        _CHECKS[exp["kind"]](json.loads(text), exp)
        return 1, None
    except Mismatch as e:
        return 0, str(e)
    except (ValueError, KeyError, TypeError, IndexError,
            ZeroDivisionError) as e:
        return 0, f"malformed answer: {type(e).__name__}: {e}"
