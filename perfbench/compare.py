#!/usr/bin/env python3
"""Compare two saved benchmark results.

    python3 perfbench/compare.py BASE.json NEW.json

The files are the ones `perfbench/run.py` saves under `.perfbench/results/`.
Each end-to-end metric of the new result is checked against the base with
the bound `BENCHMARK.json` gives it. Two results measured on different
hosts (CPU model or flags, core count, kernel, or rustc differ) are
reported as incomparable, never as a regression. Results of different
commits or seeds compare normally: that is what the comparison is for.

Exit status: 0 no regression, 1 a regression, 3 incomparable.
"""

import json
import os
import sys

# Fingerprint fields that describe the host and toolchain. The commit,
# source digest and seed are recorded too but may differ.
HOST_FIELDS = ("nproc", "cpu_model", "cpu_flags", "kernel", "rustc")
# Run settings that must match for the numbers to mean the same thing.
RUN_FIELDS = ("workload", "trace", "seconds")


def incomparable_reasons(base, new):
    """Why two results cannot be compared; empty when they can."""
    reasons = []
    fa, fb = base.get("fingerprint", {}), new.get("fingerprint", {})
    for key in HOST_FIELDS:
        if fa.get(key) != fb.get(key):
            reasons.append(f"{key}: {fa.get(key)!r} vs {fb.get(key)!r}")
    for key in RUN_FIELDS:
        if base.get(key) != new.get(key):
            reasons.append(f"{key}: {base.get(key)!r} vs {new.get(key)!r}")
    return reasons


def compare(base, new, benchmark):
    """Returns ("incomparable", reasons) or ("compared", rows).

    Each row is (name, base value, new value, worse-by share, bound,
    verdict); worse-by is positive when the new value is worse.
    """
    reasons = incomparable_reasons(base, new)
    if reasons:
        return "incomparable", reasons
    rows = []
    for m in benchmark["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = base["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        if a is None or b is None or a == 0:
            rows.append((name, a, b, None, bound, "missing"))
            continue
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "regression" if worse > bound else "improvement" if worse < -bound else "within bound"
        rows.append((name, a, b, worse, bound, verdict))
    return "compared", rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in argv[1:]:
        with open(path) as fh:
            loaded.append(json.load(fh))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    status, rows = compare(loaded[0], loaded[1], benchmark)
    if status == "incomparable":
        print("incomparable (no regression is reported across hosts or settings):")
        for r in rows:
            print(f"  {r}")
        return 3
    print(f"{'metric':<20} {'base':>14} {'new':>14} {'worse by':>9} {'bound':>6}  verdict")
    for name, a, b, worse, bound, verdict in rows:
        w = "" if worse is None else f"{worse * 100:+.1f}%"
        print(f"{name:<20} {a!s:>14.14} {b!s:>14.14} {w:>9} {bound:>6}  {verdict}")
    return 1 if any(r[5] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
