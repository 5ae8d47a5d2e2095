"""Acceptance suite.

One test per criterion; each prints a single PASS line (run with ``-s`` to
see them) and enforces its tolerance exactly (every criterion here is a
100%-agreement property).
"""

import io
import contextlib
import itertools
import random
import time
from pathlib import Path

from amplify.classification import (
    LatticeIsoData,
    VHSpec,
    check_lemma23,
    decide_gauge_iso,
    decide_stable_iso,
    normalize_lattice_iso,
    reconstruct,
    search_bounded_iso,
    validate_lattice_iso,
)
from amplify.cli import run as cli_run
from amplify.graphs import (
    AmplifiedGraph,
    amplified_transitive_closure,
    apply_permutation,
    bits,
    parse_graph,
    t_move_fixpoint,
    weakly_connected_components,
)
from amplify.isomorph import canonical_form
from amplify.reachability import build_reachability, exact_reach
from amplify.skewlattice import enumerate_hereditary, unique_predecessor_elements

from conftest import (
    all_graphs,
    is_witness,
    make_graph,
    random_graph,
    reach_sets_by_length,
)

DATA = Path(__file__).parent / "data"


def _report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS [{detail}]")


def test_criterion_1_reconstruction():
    start = time.monotonic()
    checked = 0
    for n in range(1, 4):
        for g in all_graphs(n):
            rebuilt, iso = reconstruct(g)
            assert is_witness(g, rebuilt, iso)
            checked += 1
    rng = random.Random(2024)
    for _ in range(500):
        g = random_graph(rng, rng.randint(4, 8), density=rng.uniform(0.05, 0.95))
        rebuilt, iso = reconstruct(g)
        assert is_witness(g, rebuilt, iso)
        checked += 1
    _report(1, "reconstruction", f"{checked} graphs, {time.monotonic() - start:.1f}s")


def test_criterion_2_unique_predecessor_characterization():
    # all acyclic graphs up to isomorphism: strictly upper-triangular
    # adjacency on 1..5 vertices (every finite acyclic graph relabels to one)
    start = time.monotonic()
    checked = 0
    for n in range(1, 6):
        positions = [(v, w) for v in range(n) for w in range(v + 1, n)]
        for packed in range(1 << len(positions)):
            rows = [0] * n
            for bit, (v, w) in enumerate(positions):
                if (packed >> bit) & 1:
                    rows[v] |= 1 << w
            g = make_graph(rows)
            principal = set()
            for v in range(n):
                closure = 1 << v
                frontier = closure
                while frontier:
                    nxt = 0
                    for u in bits(frontier):
                        nxt |= g.rows[u]
                    frontier = nxt & ~closure
                    closure |= nxt
                principal.add(closure)
            found = {
                s.members
                for s in unique_predecessor_elements(enumerate_hereditary(g))
            }
            assert found == principal
            checked += 1
    _report(2, "unique-predecessor sets", f"{checked} acyclic graphs, {time.monotonic() - start:.1f}s")


def _check_exact_reach(g, max_k=15):
    t = build_reachability(g)
    masks = reach_sets_by_length(g, max_k)
    n = g.vertex_count
    rng_all = range(n)
    for k in range(max_k + 1):
        row = masks[k]
        for v in rng_all:
            rv = row[v]
            for w in rng_all:
                assert exact_reach(t, v, w, k) == bool((rv >> w) & 1)


def test_criterion_3_exact_length_reachability():
    start = time.monotonic()
    checked = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            _check_exact_reach(g)
            checked += 1
    rng = random.Random(2025)
    for _ in range(200):
        g = random_graph(rng, rng.randint(5, 6), density=rng.uniform(0.1, 0.9))
        _check_exact_reach(g)
        checked += 1
    _report(3, "exact-length reachability", f"{checked} graphs, k<=15, {time.monotonic() - start:.1f}s")


def _connected_representatives(n):
    """One representative per isomorphism class of connected graphs on n."""
    reps = []
    seen = set()
    for g in all_graphs(n):
        if weakly_connected_components(g).component_count != 1:
            continue
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            reps.append(g)
    return reps


def test_criterion_4_basepoint_detection():
    # the checker commutes with relabeling (of the graph and the level map
    # together), so one representative per isomorphism class suffices
    start = time.monotonic()
    checked = 0
    for n in range(1, 5):
        maps = list(itertools.product(range(-2, 3), repeat=n))
        for g in _connected_representatives(n):
            for levels in maps:
                report = check_lemma23(g, VHSpec(levels))
                constant = len(set(levels)) == 1
                assert (report.verdict == "constant") == constant
                if constant:
                    assert report.level == levels[0]
                checked += 1
    _report(4, "basepoint detection", f"{checked} checks, {time.monotonic() - start:.1f}s")


def test_criterion_5_shift_normalization():
    start = time.monotonic()
    rng = random.Random(2026)
    done = 0
    while done < 200:
        n = rng.randint(1, 6)
        e = random_graph(rng, n, density=rng.uniform(0.1, 0.8))
        sigma = list(range(n))
        rng.shuffle(sigma)
        inv = [0] * n
        for i, s in enumerate(sigma):
            inv[s] = i
        f = apply_permutation(e, inv, [f"y{i}" for i in range(n)])
        comp = weakly_connected_components(e)
        per_comp = [rng.randint(-3, 3) for _ in range(comp.component_count)]
        shift = tuple(per_comp[comp.component_of[v]] for v in range(n))
        rho = LatticeIsoData(tuple(sigma), shift)
        assert validate_lattice_iso(e, f, rho)
        out = normalize_lattice_iso(e, f, rho)
        assert out.shift == (0,) * n
        assert validate_lattice_iso(e, f, out)
        done += 1
    _report(5, "shift normalization", f"{done} instances, {time.monotonic() - start:.1f}s")


def _corpus_100():
    rng = random.Random(2027)
    corpus = []
    while len(corpus) < 100:
        n = rng.randint(1, 5)
        corpus.append(random_graph(rng, n, density=rng.uniform(0.0, 0.9)))
    return corpus


def test_criterion_6_verdict_oracle_agreement():
    start = time.monotonic()
    corpus = _corpus_100()
    pairs = 0
    for i, e in enumerate(corpus):
        for f in corpus[i:]:
            fast = decide_gauge_iso(e, f).isomorphic
            slow = search_bounded_iso(e, f, 2) is not None
            assert fast == slow
            pairs += 1
    _report(6, "verdict vs bounded search", f"{pairs} pairs, {time.monotonic() - start:.1f}s")


def test_criterion_7_stable_classification():
    start = time.monotonic()
    g3 = parse_graph((DATA / "corpus" / "g3.graph").read_text())
    triangle = parse_graph((DATA / "corpus" / "triangle.graph").read_text())
    assert decide_stable_iso(g3, triangle).isomorphic
    assert not decide_gauge_iso(g3, triangle).isomorphic
    files = sorted((DATA / "corpus").glob("*.graph"))
    assert files
    for path in files:
        g = parse_graph(path.read_text())
        assert t_move_fixpoint(g).rows == amplified_transitive_closure(g).rows
    _report(7, "stable classification", f"{len(files)} corpus graphs, {time.monotonic() - start:.1f}s")


def test_criterion_8_cli_determinism():
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from test_cli import CORPUS, GOLDEN, GOLDEN_CASES

    start = time.monotonic()
    for stem, argv, expected_code in GOLDEN_CASES:
        argv = [str(CORPUS / a) if a.endswith(".graph") else a for a in argv]
        golden = (GOLDEN / f"{stem}.txt").read_bytes()
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_run(argv)
            assert code == expected_code
            assert buf.getvalue().encode() == golden
    _report(8, "CLI determinism", f"{len(GOLDEN_CASES)} commands x2, {time.monotonic() - start:.1f}s")
