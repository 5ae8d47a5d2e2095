"""Tests of the benchmark itself (inputs, ground truth, tracing, checks).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def _brute_iso(e, f):
    n = len(e)
    return len(f) == n and any(gen.is_witness(e, f, phi) for phi in itertools.permutations(range(n)))


def _rounds_digest(seed, count=3):
    text = repr([workloads.make_round(w, seed, i) for w in workloads.NAMES for i in range(count)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_same_seed_gives_byte_identical_inputs():
    code = f"import workloads, test_perfbench; print(test_perfbench._rounds_digest('5'))"
    digests = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(HERE))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert digests == {_rounds_digest("5")}
    assert _rounds_digest("6") != _rounds_digest("5")


def _large_graphs(w, seed):
    # Edgeless and complete graphs are the same relation under any labeling,
    # and graphs on few vertices repeat by chance; neither is checked.
    symmetric = {gen.edgeless(7), gen.complete(7)}
    return {
        g
        for op in workloads.make_round(w, seed, 0)
        for g in op.args[:2]
        if isinstance(g, tuple) and len(g) >= 8 and g not in symmetric
    }


def test_many_rounds_generate():
    for w in workloads.NAMES:
        for index in range(300):
            assert workloads.make_round(w, "1", index)


def test_warm_up_inputs_are_new_to_the_timed_rounds():
    for w in workloads.NAMES:
        timed = _large_graphs(w, "5")
        assert timed and not timed & _large_graphs(w, "warm-5"), w


@pytest.mark.parametrize("stable", [False, True])
def test_family_labels_match_brute_force(stable):
    rng = random.Random(7)
    makers = [
        lambda iso: workloads._random_pair(rng, iso, 3, 6, 0.1, 0.6,
                                           gen.closure_signature if stable else gen.signature),
        lambda iso: workloads._cycle_pair(rng, iso, (6,) if stable else (4, 5, 6), 3 if stable else 2),
        lambda iso: workloads._strong_pair(rng, iso, 3, 6, stable),
        lambda iso: workloads._oracle_pair(rng, iso),
    ]
    for make, iso in itertools.product(makers, (True, False)):
        for _ in range(25):
            e, f = make(iso)
            if stable and make is makers[3]:
                continue  # oracle pairs are labeled for graded isomorphism only
            assert len(e) == len(f) and gen.edge_count(e) == gen.edge_count(f)
            if stable:
                e, f = gen.closure(e), gen.closure(f)
            assert _brute_iso(e, f) == iso


def test_round_labels_match_brute_force_up_to_six_vertices():
    checked = 0
    for w, index in itertools.product(workloads.NAMES, range(4)):
        for op in workloads.make_round(w, "3", index):
            for e, f, stable in workloads.iso_pairs(op):
                if len(e) <= 6:
                    if stable:
                        e, f = gen.closure(e), gen.closure(f)
                    assert _brute_iso(e, f) == op.expect, (w, op.kind)
                    checked += 1
    assert checked >= 20


def _snapshot():
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "amplify" or key.startswith("amplify.")
        for attr, value in vars(module).items()
    }


def _run_round(w, amp, cli, tmp_path, tracer=None):
    rnd = run.Round(w, "4", 1, amp, cli, tmp_path / ("t" if tracer else "u"))
    digests, outputs = [], []
    for op, call in zip(rnd.ops, rnd.calls):
        try:
            out = call() if tracer is None else tracer.run_op(call)
        except RuntimeError as exc:
            digests.append(("raised", str(exc)))
            outputs.append(None)
            continue
        outputs.append(out)
        assert workloads.check(op, out, outputs) is None
        digests.append(workloads.digest(op, out))
    rnd.close()
    return digests


@pytest.mark.parametrize("w", workloads.NAMES)
def test_tracer_restores_bindings_and_keeps_outputs(w, tmp_path):
    amp, cli = run.import_amplify()
    untraced = _run_round(w, amp, cli, tmp_path)
    before = _snapshot()
    tracer = Tracer().install()
    patched = {(m.__name__, attr) for m, attr, _ in tracer.patched()}
    try:
        traced = _run_round(w, amp, cli, tmp_path, tracer)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert traced == untraced
    assert not tracer.leftovers()
    for binding in [
        ("amplify.classification", "canonical_form"),
        ("amplify.kernels", "canonical_perm"),
        ("amplify.cli", "decide_gauge_iso"),
        ("amplify", "decide_gauge_iso"),
        ("amplify.classification", "exact_reach"),
    ]:
        assert binding in patched
    calls, self_s, _, _, op_total = tracer.layer_stats()
    assert calls["op"] == len(traced)
    assert 0 <= self_s["op"] <= op_total


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.call("child", child, (), {}) + sum(range(20000))

    tracer.run_op(lambda: tracer.call("parent", parent, (), {}))
    calls, self_s, max_s, nested, op_total = tracer.layer_stats()
    assert calls["parent"] == calls["child"] == 1
    assert nested[("parent", "child")] == 1 and nested[("op", "parent")] == 1
    total = self_s["op"] + self_s["parent"] + self_s["child"]
    assert total == pytest.approx(op_total)
    assert self_s["parent"] < max_s["parent"]


class _FakeVerdict:
    def __init__(self, isomorphic, witness):
        self.isomorphic, self.witness = isomorphic, witness


def test_checks_reject_wrong_outputs():
    e = (0b010, 0b100, 0b000)  # the path 0 -> 1 -> 2
    f = gen.permute(e, (2, 0, 1))
    op = workloads.Op("gauge", (e, f), True)
    assert workloads.check(op, _FakeVerdict(True, (2, 0, 1)), []) is None
    assert workloads.check(op, _FakeVerdict(False, None), []) is not None
    assert workloads.check(op, _FakeVerdict(True, (0, 1, 2)), []) is not None
    stdout = "isomorphic: true\nwitness: a0->b2, a1->b0, a2->b1\ncanonical_E: x\ncanonical_F: y\n"
    cli_op = workloads.Op("iso", (e, f), True)
    assert workloads.check(cli_op, (0, stdout, ""), []) is not None  # forms differ
    assert workloads.check(cli_op, (0, stdout.replace(": y", ": x"), ""), []) is None
    assert workloads.check(cli_op, (1, stdout, ""), []) is not None  # exit code


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    phase = run.Phase()
    phase.attempted, phase.busy, phase.scaled_busy, phase.rss_mb = 1, 1.0, 1.0, 1.0
    phase.latencies = [(0.001, 1.0)]
    for reported, listed in (
        (run.end_to_end(phase, 0.1), spec["end_to_end"]),
        (run.per_layer(Tracer(), phase, phase), spec["per_layer"]),
    ):
        assert {k: m["unit"] for k, m in reported.items()} == {m["name"]: m["unit"] for m in listed}
