"""Compare the results of two sets of benchmark runs, such as a parent commit
and a change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``result-*.json`` files that ``bench/run.py`` writes
to ``bench/out``.  The comparison is refused (exit code 2) when a run's
verdicts were not all correct, and when one workload and seed were run on
different inputs on the two sides, because their input digests differ.
Otherwise, per workload and metric, it prints each side's
first quartile, median and third quartile and the change's median relative
to the base's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory) -> list[dict]:
    return [
        {**json.loads(p.read_text()), "path": str(p)}
        for p in sorted(Path(directory).glob("result-*.json"))
    ]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, change = load(argv[0]), load(argv[1])
    incorrect = [r["path"] for r in base + change if not r["correct"]]
    if incorrect:
        print(f"refusing to compare: runs with wrong verdicts or failures: {incorrect}",
              file=sys.stderr)
        return 2
    digests = {(r["workload"], r["seed"]): r["digest"] for r in base}
    clashes = [
        (r["workload"], r["seed"])
        for r in change
        if digests.get((r["workload"], r["seed"]), r["digest"]) != r["digest"]
    ]
    if clashes:
        print(f"refusing to compare: inputs differ for {sorted(set(clashes))}", file=sys.stderr)
        return 2
    groups: dict = {}
    for side, runs in (("base", base), ("change", change)):
        for r in runs:
            for name, metric in r["metrics"].items():
                key = (r["workload"], r["trace"], name, metric["unit"])
                groups.setdefault(key, {"base": [], "change": []})[side].append(metric["value"])
    for (workload, trace, name, unit), sides in sorted(groups.items()):
        cells = []
        for side in ("base", "change"):
            values = sides[side]
            if values:
                q1, q2, q3 = quartiles(values)
                cells.append(f"{side} n={len(values)} {q1:.6g} [{q2:.6g}] {q3:.6g}")
        line = f"{workload} trace={trace} {name} ({unit}): " + "; ".join(cells)
        if sides["base"] and sides["change"] and statistics.median(sides["base"]):
            ratio = statistics.median(sides["change"]) / statistics.median(sides["base"])
            line += f"; change/base {ratio:.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
