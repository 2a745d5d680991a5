"""Compare benchmark records from two checkouts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes (.perfbench_out/ of a
checkout), one per workload, seed and trace mode. Records made in different
environments (backend, Python, numpy, BLAS and its threads, CPU count or
model) are not compared: the command names the fields that differ and exits
with 2. Otherwise it names every workload and seed whose trace digest
changed, then prints, per workload and metric, each side's median and
quartiles over its records and the ratio new/base.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(directory).glob("*-seed*-trace[01].json"))]
    if not records:
        sys.exit(f"error: no benchmark records in {directory}")
    return records


def env_differences(records: list[dict]) -> list[str]:
    ref = records[0]["env"]
    out = []
    for rec in records[1:]:
        keys = sorted(k for k in set(ref) | set(rec["env"]) if ref.get(k) != rec["env"].get(k))
        if keys:
            out.append(f"{rec['workload']} seed {rec['seed']}: " + ", ".join(
                f"{k} {ref.get(k)!r} vs {rec['env'].get(k)!r}" for k in keys))
    return out


def values(records: list[dict]) -> dict:
    table: dict = {}
    for rec in records:
        for name, metric in rec["metrics"].items():
            table.setdefault((rec["workload"], rec["trace"], name), []).append(metric["value"])
    return table


def describe(vals: list) -> str:
    med = statistics.median(vals)
    if len(vals) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}] (n={len(vals)})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    differences = env_differences(base + new)
    if differences:
        print("refusing to compare records from different environments:", file=sys.stderr)
        for line in differences:
            print("  " + line, file=sys.stderr)
        return 2
    for rec in base + new:
        if rec["failed"]:
            print(f"warning: {rec['workload']} seed {rec['seed']} had {rec['failed']} failures")
    digests = {(r["workload"], r["seed"]): r["digest"] for r in base}
    for rec in new:
        old = digests.get((rec["workload"], rec["seed"]))
        if old is not None and old != rec["digest"]:
            print(f"trace differs: {rec['workload']} seed {rec['seed']} digest {old[:12]} -> "
                  f"{rec['digest'][:12]}")
    b, n = values(base), values(new)
    for key in sorted(set(b) & set(n)):
        workload, trace, name = key
        b_med = statistics.median(b[key])
        ratio = statistics.median(n[key]) / b_med if b_med else float("nan")
        print(f"{workload:<13} {name:<30} base {describe(b[key]):<36} "
              f"new {describe(n[key]):<36} new/base {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
