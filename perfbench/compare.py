#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

Usage, from the repository root::

    python3 perfbench/compare.py --base base1.json base2.json ... --new new1.json ...

For every workload and metric it prints each side's median and quartiles
and the change of the medians as a share of the base median, marking a
change worse than the metric's bound in ``BENCHMARK.json``.  Records from
different kernel backends are refused (exit status 2): their timings are
not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{workload: {metric: [values]}} and the set of backends seen."""
    values = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in paths:
        for record in json.loads(Path(path).read_text(encoding="utf-8")):
            backends.add(record["meta"]["backend"])
            for name, metric in record["result"]["metrics"].items():
                values[record["meta"]["workload"]][name].append(metric["value"])
    return values, backends


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, base_backends = load(args.base)
    new, new_backends = load(args.new)
    backends = base_backends | new_backends
    if len(backends) != 1:
        print(f"compare: refusing to compare across backends {sorted(backends)}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    rules = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    regressed = False
    print(f"backend: {backends.pop()}")
    for workload in sorted(base.keys() & new.keys()):
        for name in sorted(base[workload].keys() & new[workload].keys()):
            b1, b2, b3 = quartiles(base[workload][name])
            n1, n2, n3 = quartiles(new[workload][name])
            change = (n2 - b2) / b2 if b2 else 0.0
            rule = rules.get(name, {})
            worse = change if rule.get("better") == "lower" else -change
            flag = ""
            if "bound" in rule and worse > rule["bound"]:
                flag = f"  WORSE than bound {rule['bound']}"
                regressed = True
            print(
                f"{workload} {name}: base {b2:.6g} [{b1:.6g}, {b3:.6g}]"
                f" new {n2:.6g} [{n1:.6g}, {n3:.6g}] change {change:+.3f}{flag}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
