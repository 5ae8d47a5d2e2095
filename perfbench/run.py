#!/usr/bin/env python3
"""Closed-loop benchmark of the ``amplify`` public API.

One client in one thread: each operation starts when the previous one
returns.  Inputs come from ``--seed`` in rounds (see ``workloads.py``); each
round is generated, bound and checked outside the timed region, and a run
measures whole rounds until ``--seconds`` of operation time have passed.

Usage, from the repository root::

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # all three workloads, one after another

Times in the end-to-end metrics are scaled to a fixed machine speed: a
fixed reference task (``reference.py``) is timed before and after every
round and every set-up, and each time is multiplied by the reference's
nominal time over its measured time.  The unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(from a traced phase run after an untraced one on the same inputs).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every output
is right, 1 when one is wrong, 2 when the source tree or arguments are bad.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
# At least 6 rounds (114 or more ops), so that ten or more operations lie
# beyond the 90th percentile; peak memory is read after exactly these rounds,
# so that it does not grow with throughput through the reachability cache.
MIN_ROUNDS = 6
MAX_STRETCH = 2  # stop after this many times --seconds even below MIN_ROUNDS

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SourceMissing(Exception):
    pass


def import_amplify():
    """Import ``amplify`` afresh from the tree's ``src`` (new module objects)."""
    if not (SRC / "amplify" / "__init__.py").is_file():
        raise SourceMissing(f"no amplify package under {SRC}")
    for key in [k for k in sys.modules if k == "amplify" or k.startswith("amplify.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    amp = importlib.import_module("amplify")
    cli = importlib.import_module("amplify.cli")
    if not Path(amp.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"amplify imported from {amp.__file__}, not {SRC}")
    return amp, cli


class Round:
    """One round's operations, bound to calls; CLI files live in ``directory``."""

    def __init__(self, workload, seed, index, amp, cli, directory: Path):
        self.ops = workloads.make_round(workload, seed, index)
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.calls = [
            workloads.bind(op, amp, cli, directory, f"{i}") for i, op in enumerate(self.ops)
        ]

    def close(self):
        shutil.rmtree(self.directory, ignore_errors=True)


def set_up(workload, seed, workdir):
    """Import, then generate and write the first round.

    Returns the modules, the round, and the set-up time scaled to the
    reference speed.
    """
    ref = reference.sample()
    start = time.perf_counter()
    amp, cli = import_amplify()
    first = Round(workload, seed, 0, amp, cli, workdir / "r0")
    took = time.perf_counter() - start
    return amp, cli, first, took * reference.scale(ref, reference.sample())


class Phase:
    """The outcome of one measured phase."""

    def __init__(self):
        self.latencies = []  # (seconds, speed scale) of successful ops
        self.busy = 0.0  # seconds inside operations, failed ones included
        self.scaled_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.digests = []
        self.pairs = []  # (e, f, stable, expect) for the outside cross-check
        self.rounds = 0
        self.rss_mb = None

    @property
    def ok(self):
        return self.attempted - self.failed

    def ops_per_s(self, scaled=True):
        busy = self.scaled_busy if scaled else self.busy
        return self.ok / busy if busy else 0.0

    def latency_ms(self, scaled=True):
        return [1e3 * t * (s if scaled else 1.0) for t, s in self.latencies] or [0.0]


def measure(workload, seed, seconds, amp, cli, workdir, first, tracer=None):
    warm = Round(workload, f"warm-{seed}", 0, amp, cli, workdir / "warm")
    for call in warm.calls:
        try:
            call()
        except Exception:
            pass  # warm-up outputs are not checked; the timed rounds are
    warm.close()
    if tracer is not None:
        tracer.reset()
    phase = Phase()
    index = 0
    while phase.busy < seconds or (
        index < MIN_ROUNDS and phase.busy < MAX_STRETCH * seconds
    ):
        rnd = first if index == 0 else Round(workload, seed, index, amp, cli, workdir / f"r{index}")
        outputs, errors, times = [], [], []
        ref = reference.sample()
        for call in rnd.calls:
            start = time.perf_counter()
            try:
                out = call() if tracer is None else tracer.run_op(call)
                error = None
            except Exception as exc:
                out, error = None, exc
            times.append(time.perf_counter() - start)
            outputs.append(out)
            errors.append(error)
        scale = reference.scale(ref, reference.sample())
        for i, op in enumerate(rnd.ops):
            phase.attempted += 1
            phase.busy += times[i]
            phase.scaled_busy += times[i] * scale
            if errors[i] is not None:
                phase.failed += 1
                phase.problems.append(f"round {index} op {i} {op.kind}: raised {errors[i]!r}")
                phase.digests.append(("raised", type(errors[i]).__name__, str(errors[i])))
                continue
            try:
                problem = workloads.check(op, outputs[i], outputs)
            except Exception as exc:
                problem = f"output could not be checked: {exc!r}"
            phase.digests.append(workloads.digest(op, outputs[i]))
            if problem is not None:
                phase.failed += 1
                phase.wrong += 1
                phase.problems.append(f"round {index} op {i} {op.kind}: {problem}")
                continue
            phase.latencies.append((times[i], scale))
            phase.pairs.extend((e, f, stable, op.expect) for e, f, stable in workloads.iso_pairs(op))
        rnd.close()
        index += 1
        if index == MIN_ROUNDS:
            phase.rss_mb = peak_rss_mb()
    phase.rounds = index
    if phase.rss_mb is None:
        phase.rss_mb = peak_rss_mb()
    return phase


def cross_check(phase):
    """Confirm the constructed labels with networkx VF2, when it is installed."""
    try:
        import networkx as nx
    except ImportError:
        return "networkx not installed"
    import gen

    def digraph(rows):
        g = nx.DiGraph()
        g.add_nodes_from(range(len(rows)))
        g.add_edges_from((v, w) for v in range(len(rows)) for w in gen.bits(rows[v]))
        return g

    for e, f, stable, expect in phase.pairs:
        if stable:
            e, f = gen.closure(e), gen.closure(f)
        if nx.is_isomorphic(digraph(e), digraph(f)) != expect:
            phase.wrong += 1
            phase.problems.append(f"VF2 disagrees with the constructed label {expect}")
    return f"{len(phase.pairs)} pairs agree with VF2" if not phase.wrong else "VF2 disagreements"


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(phase, scaled):
    lat = phase.latency_ms(scaled)
    return {
        "ops_per_s": phase.ops_per_s(scaled),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": percentile(lat, 90),
    }


def end_to_end(phase, setup_s):
    values = timings(phase, scaled=True)
    values.update(peak_rss_mb=phase.rss_mb, setup_s=setup_s)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, traced, untraced):
    calls, self_s, max_s, nested, op_total = tracer.layer_stats()
    ops = traced.attempted
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in CALL_METRICS:
        put(f"{name}.calls", calls[name] / ops, "calls/op")
    for name in SELF_METRICS:
        put(f"{name}.self_s", self_s[name] / ops, "s/op")
    put("kernels.canonical_perm.max_ms", 1e3 * max_s["kernels.canonical_perm"], "ms")
    search = "classification.search_bounded_iso"
    n_search = calls[search]
    put(f"{search}.candidates_per_call",
        nested[(search, "classification.validate_lattice_iso")] / n_search if n_search else 0.0, "1/call")
    put(f"{search}.found_frac", tracer.found / n_search if n_search else 0.0, "ratio")
    reach = "reachability.build_reachability"
    put(f"{reach}.failures", tracer.failures[reach] / ops, "1/op")
    put(f"{reach}.table_len_max", tracer.table_len_max, "count")
    put(f"{reach}.repeat_frac", tracer.repeats / calls[reach] if calls[reach] else 0.0, "ratio")
    put("trace.unattributed_frac", self_s["op"] / op_total if op_total else 0.0, "ratio")
    put("trace.overhead", traced.ops_per_s() / untraced.ops_per_s() if untraced.ops_per_s() else 0.0, "ratio")
    put("trace.ops", ops, "count")
    return metrics


CALL_METRICS = (
    "kernels.canonical_perm",
    "kernels.find_isomorphism",
    "classification.validate_lattice_iso",
    "reachability.exact_reach",
    "classification.search_bounded_iso",
    "reachability.build_reachability",
)
SELF_METRICS = (
    "kernels.canonical_perm",
    "kernels.find_isomorphism",
    "isomorph.digraph_isomorphism",
    "isomorph.canonical_form",
    "classification.validate_lattice_iso",
    "classification.search_bounded_iso",
    "classification.check_lemma23",
    "classification.normalize_lattice_iso",
    "classification.reconstruct",
    "classification.decide_gauge_iso",
    "classification.decide_stable_iso",
    "reachability.build_reachability",
    "graphs.parse_graph",
    "graphs.to_text",
    "graphs.amplified_transitive_closure",
    "graphs.apply_permutation",
    "skewlattice.skew_window",
    "skewlattice.enumerate_hereditary",
    "skewlattice.unique_predecessor_elements",
    "cli.run",
)


def run_workload(workload, seed, seconds, trace, workdir):
    """Run one workload; returns (result dict, meta dict, problems)."""
    setups = []
    for i in range(SETUP_REPEATS):
        amp, cli, first, scaled_s = set_up(workload, str(seed), workdir / f"setup{i}")
        setups.append(scaled_s)
        if i < SETUP_REPEATS - 1:
            first.close()
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": amp.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mode": "closed loop, 1 client, 1 thread",
    }
    # A traced run splits its time between an untraced and a traced phase.
    phase_seconds = seconds / 2 if trace else seconds
    phase = measure(workload, str(seed), phase_seconds, amp, cli, workdir / "untraced", first)
    phases = [phase]
    if trace:
        amp, cli, first, _ = set_up(workload, str(seed), workdir / "traced")
        tracer = Tracer().install()
        try:
            traced = measure(workload, str(seed), phase_seconds, amp, cli, workdir / "traced", first, tracer)
        finally:
            tracer.uninstall()
        if tracer.leftovers():
            traced.wrong += 1
            traced.problems.append(f"tracer left wrappers bound: {tracer.leftovers()}")
        common = min(len(phase.digests), len(traced.digests))
        if phase.digests[:common] != traced.digests[:common]:
            traced.wrong += 1
            traced.problems.append("traced outputs differ from untraced outputs")
        phases.append(traced)
        metrics = per_layer(tracer, traced, phase)
        meta["traced_ops"] = traced.attempted
    else:
        metrics = end_to_end(phase, statistics.median(setups))
    meta["cross_check"] = cross_check(phase)
    meta["ops"] = phase.attempted
    meta["rounds"] = phase.rounds
    meta["failed_frac"] = phase.failed / phase.attempted
    meta["unscaled"] = timings(phase, scaled=False)
    meta["speed"] = phase.busy / phase.scaled_busy if phase.scaled_busy else 0.0
    result = {
        "correct": all(p.wrong == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    problems = [msg for p in phases for msg in p.problems]
    return result, meta, problems


def report(meta, result, problems):
    fields = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in meta.items() if k not in ("mode", "unscaled"))
    print(f"{fields} ({meta['mode']})")
    print("  unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in meta["unscaled"].items()))
    for name, metric in result["metrics"].items():
        print(f"  {meta['workload']} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"  {meta['workload']} attempted: {result['attempted']} failed: {result['failed']}"
          f" correct: {str(result['correct']).lower()}")
    for msg in problems[:5]:
        print(f"  problem: {msg}", file=sys.stderr)
    if len(problems) > 5:
        print(f"  ... {len(problems) - 5} more problems", file=sys.stderr)


def run_all(args):
    """Each workload in its own process, so each has its own peak memory."""
    records = []
    outdir = WORK / f"all-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.NAMES:
            out = outdir / f"{workload}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out)],
                stdout=subprocess.PIPE, text=True,
            )
            if not out.is_file():
                return 2
            print("\n".join(proc.stdout.splitlines()[:-1]))
            records += json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        _remove_work_root()
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    final = {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {
            f"{r['meta']['workload']}.{name}": metric
            for r in records
            for name, metric in r["result"]["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _remove_work_root():
    try:
        WORK.rmdir()
    except OSError:
        pass  # missing, or another run still uses it


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, help="default: all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record (JSON) here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    workdir = WORK / str(os.getpid())
    try:
        result, meta, problems = run_workload(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_work_root()
    report(meta, result, problems)
    if args.out:
        record = {"meta": meta, "result": result, "problems": problems[:50]}
        args.out.write_text(json.dumps([record], indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
