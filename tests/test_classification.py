import itertools
import random

import pytest

from amplify.classification import (
    LatticeIsoData,
    VHSpec,
    _is_lattice_iso,
    check_lemma23,
    decide_gauge_iso,
    decide_stable_iso,
    normalize_lattice_iso,
    reconstruct,
    search_bounded_iso,
    validate_lattice_iso,
)
from amplify.graphs import (
    amplified_transitive_closure,
    apply_permutation,
    parse_graph,
    weakly_connected_components,
)
from amplify.isomorph import canonical_form
from amplify.reachability import build_reachability
from amplify.skewlattice import PrincipalHereditary, principal_contains, translate

from conftest import (
    PAST_POWER_CAP,
    all_graphs,
    brute_force_isomorphism,
    chained_cycle_union,
    cycle_union,
    is_witness,
    make_graph,
    random_graph,
    reference_check_lemma23,
    relabeled_image,
)


def _positive_shift(report):
    """Whether a shift-containment witness needs a translate m > 0."""
    cond3 = report.violated_condition == "cond3-shift-containment"
    return cond3 and report.witness[1] > 0


class TestReconstruct:
    def test_single_vertex(self, g1):
        rebuilt, iso = reconstruct(g1)
        assert rebuilt.vertex_count == 1 and rebuilt.edge_count() == 0
        assert iso == (0,)

    def test_single_edge(self, g2):
        rebuilt, iso = reconstruct(g2)
        assert list(rebuilt.edges()) == [(0, 1)]
        assert is_witness(g2, rebuilt, iso)

    def test_loop(self, g4):
        rebuilt, _ = reconstruct(g4)
        assert rebuilt.has_edge(0, 0)

    def test_vertex_names(self, g2):
        rebuilt, _ = reconstruct(g2)
        assert rebuilt.names == ("H_a_0", "H_b_0")

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 4):
            for g in all_graphs(n):
                rebuilt, iso = reconstruct(g)
                assert is_witness(g, rebuilt, iso)

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(200):
            g = random_graph(rng, rng.randint(4, 8), density=rng.uniform(0.1, 0.9))
            rebuilt, iso = reconstruct(g)
            assert is_witness(g, rebuilt, iso)

    def test_matches_principal_containment_exhaustive_small(self):
        # the edge H(v,0) -> H(w,0) is the containment H(w,1) inside H(v,0)
        for n in range(1, 4):
            for g in all_graphs(n):
                table = build_reachability(g)
                tokens = [PrincipalHereditary(g, v, 0) for v in range(n)]
                rebuilt, _ = reconstruct(g)
                for v, w in itertools.product(range(n), repeat=2):
                    inside = principal_contains(table, translate(tokens[w], 1), tokens[v])
                    assert rebuilt.has_edge(v, w) == inside

    @pytest.mark.parametrize("build", [cycle_union, chained_cycle_union])
    def test_past_power_cap(self, build):
        g = build(PAST_POWER_CAP)
        rebuilt, iso = reconstruct(g)
        assert rebuilt.rows == g.rows and iso == tuple(range(g.vertex_count))


class TestCheckLemma23:
    def test_constant_zero(self, g3):
        report = check_lemma23(g3, VHSpec((0, 0, 0)))
        assert report.verdict == "constant" and report.level == 0

    def test_constant_shifted(self, g3):
        report = check_lemma23(g3, VHSpec((-2, -2, -2)))
        assert report.verdict == "constant" and report.level == -2

    def test_increasing_levels_violate_shift_containment(self, g3):
        report = check_lemma23(g3, VHSpec((0, 1, 2)))
        assert report.verdict == "violated"
        assert report.violated_condition == "cond3-shift-containment"
        assert report.witness == ((1, 0), 0)  # H(b,1) inside H(a,0)
        assert report.partition == ((0,), (1, 2))

    def test_disconnected_rejected(self, g5):
        with pytest.raises(ValueError, match="connected"):
            check_lemma23(g5, VHSpec((0, 0, 0)))

    def test_partial_spec_rejected(self, g3):
        with pytest.raises(ValueError):
            check_lemma23(g3, VHSpec((0, 0)))

    def test_constant_maps_always_pass(self):
        rng = random.Random(103)
        tried = 0
        while tried < 120:
            n = rng.randint(1, 6)
            g = random_graph(rng, n, density=0.4)
            if weakly_connected_components(g).component_count != 1:
                continue
            tried += 1
            level = rng.randint(-3, 3)
            report = check_lemma23(g, VHSpec((level,) * n))
            assert report.verdict == "constant" and report.level == level

    def test_agrees_with_reference_exhaustive_small(self):
        cases = shifted = 0
        for n in range(1, 4):
            maps = list(itertools.product(range(-3, 4), repeat=n))
            for g in all_graphs(n):
                if weakly_connected_components(g).component_count != 1:
                    continue
                for spec in map(VHSpec, maps):
                    report = check_lemma23(g, spec)
                    assert report == reference_check_lemma23(g, spec), (g, spec)
                    cases += 1
                    shifted += _positive_shift(report)
        assert cases == 148778 and shifted == 11438

    def test_agrees_with_reference_sampled(self):
        rng = random.Random(157)
        shifted = 0
        for _ in range(20000):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, density=rng.uniform(0.1, 0.5))
            if weakly_connected_components(g).component_count != 1:
                continue
            spread = rng.choice((1, 3, 10, 50, 200))
            if rng.random() < 0.5:
                levels = tuple(rng.randint(0, spread) for _ in range(n))
            else:
                # one raised vertex: its witness needs the longest path
                raised = rng.randrange(n)
                levels = tuple(spread * (v == raised) for v in range(n))
            spec = VHSpec(levels)
            report = check_lemma23(g, spec)
            assert report == reference_check_lemma23(g, spec), (g, spec)
            shifted += _positive_shift(report)
        assert shifted > 1000

    def test_past_power_cap(self):
        g = chained_cycle_union(PAST_POWER_CAP)
        n = g.vertex_count
        report = check_lemma23(g, VHSpec((0,) * n))
        assert report.verdict == "constant" and report.level == 0
        # one level per cycle: the chain edge x0 -> x3 climbs from 0 to 1
        levels = weakly_connected_components(cycle_union(PAST_POWER_CAP)).component_of
        report = check_lemma23(g, VHSpec(levels))
        assert report.violated_condition == "cond3-shift-containment"
        assert report.witness == ((3, 0), 0)
        assert report.partition == ((0, 1, 2), tuple(range(3, n)))

    def test_huge_level_on_two_cycle(self):
        # paths b -> a have the odd lengths; the longest within 10^9 is 10^9 - 1
        report = check_lemma23(make_graph([0b10, 0b01]), VHSpec((10**9, 0)))
        assert report.witness == ((0, 1), 1)
        assert report.partition == ((1,), (0,))

    def test_huge_level_past_power_cap(self):
        # a hub x0 with an edge to the first vertex of each cycle; x23 lies
        # three steps along the 11-cycle, so paths x0 -> x23 have the lengths
        # 4 + 11t, and 10^6 - 8 is the longest of them within 10^6
        firsts = itertools.accumulate(PAST_POWER_CAP[:-1], initial=0)
        hub = sum(2 << f for f in firsts)
        g = make_graph([hub] + [row << 1 for row in cycle_union(PAST_POWER_CAP).rows])
        levels = [0] * g.vertex_count
        levels[23] = 10**6
        report = check_lemma23(g, VHSpec(tuple(levels)))
        assert report.violated_condition == "cond3-shift-containment"
        assert report.witness == ((23, 0), 8)

    def test_nonconstant_maps_always_fail(self):
        # exhaustive over level maps on a couple of graph shapes
        for text in (
            "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\n",
            "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\nedge c a\n",
            "vertex a\nvertex b\nvertex c\nedge a b\nedge a c\n",
        ):
            g = parse_graph(text)
            for levels in itertools.product(range(-2, 3), repeat=3):
                report = check_lemma23(g, VHSpec(levels))
                constant = len(set(levels)) == 1
                assert (report.verdict == "constant") == constant
                if not constant:
                    assert report.witness is not None
                    assert report.partition is not None


class TestValidate:
    def test_identity(self, g2):
        assert validate_lattice_iso(g2, g2, LatticeIsoData((0, 1), (0, 0)))

    def test_skewed_shift_fails(self, g2):
        assert not validate_lattice_iso(g2, g2, LatticeIsoData((0, 1), (0, 7)))

    def test_component_constant_shifts_pass(self, g5):
        assert validate_lattice_iso(g5, g5, LatticeIsoData((0, 1, 2), (3, 3, -1)))

    def test_non_bijective_rejected(self, g2):
        with pytest.raises(ValueError):
            validate_lattice_iso(g2, g2, LatticeIsoData((0, 0), (0, 0)))

    def test_shift_split_within_component_fails(self, g2):
        assert not validate_lattice_iso(g2, g2, LatticeIsoData((0, 1), (0, 1)))


class TestIsLatticeIso:
    """The O(n^2) component-shift test against the horizon-scan definition."""

    def test_agrees_with_definition_exhaustive_small(self):
        rng = random.Random(137)
        cases = valid = 0
        for n in range(1, 4):
            shifts = list(itertools.product((-1, 0, 1), repeat=n))
            for e in all_graphs(n):
                other = random_graph(rng, n, density=0.5, prefix="y")
                for phi in itertools.permutations(range(n)):
                    for f in (relabeled_image(e, phi), other):
                        for shift in shifts:
                            rho = LatticeIsoData(phi, shift)
                            expected = validate_lattice_iso(e, f, rho)
                            assert _is_lattice_iso(e, f, rho) == expected, (e, f, rho)
                            cases += 1
                            valid += expected
        assert cases == 166476 and valid > 10000

    def test_agrees_with_definition_sampled(self):
        rng = random.Random(139)
        valid = 0
        for _ in range(10000):
            n = rng.randint(4, 5)
            e = random_graph(rng, n, density=rng.uniform(0.1, 0.6))
            phi = list(range(n))
            rng.shuffle(phi)
            if rng.random() < 0.75:
                f = relabeled_image(e, phi)
            else:
                f = random_graph(rng, n, density=rng.uniform(0.1, 0.6), prefix="y")
            comp = weakly_connected_components(e)
            per_comp = [rng.randint(-2, 2) for _ in range(comp.component_count)]
            shift = [per_comp[c] for c in comp.component_of]
            if rng.random() < 0.5:
                shift[rng.randrange(n)] += rng.choice((-1, 1))
            rho = LatticeIsoData(tuple(phi), tuple(shift))
            expected = validate_lattice_iso(e, f, rho)
            assert _is_lattice_iso(e, f, rho) == expected, (e, f, rho)
            valid += expected
        assert 1000 < valid < 9000

    def test_rejects_malformed_like_definition(self, g1, g2):
        cases = (
            (g2, g1, LatticeIsoData((0,), (0,))),
            (g2, g2, LatticeIsoData((0, 0), (0, 0))),
            (g2, g2, LatticeIsoData((0, 1), (0,))),
            (g2, g2, LatticeIsoData((1, 1), (0,))),
        )
        for e, f, rho in cases:
            messages = []
            for check in (validate_lattice_iso, _is_lattice_iso):
                with pytest.raises(ValueError) as info:
                    check(e, f, rho)
                messages.append(str(info.value))
            assert messages[0] == messages[1]


class TestNormalize:
    def test_identity_unchanged(self, g3):
        rho = LatticeIsoData((0, 1, 2), (0, 0, 0))
        assert normalize_lattice_iso(g3, g3, rho) == rho

    def test_per_component_shifts_cleared(self, g5):
        rho = LatticeIsoData((0, 1, 2), (3, 3, -1))
        out = normalize_lattice_iso(g5, g5, rho)
        assert out.shift == (0, 0, 0)
        assert validate_lattice_iso(g5, g5, out)

    def test_global_translation_cleared(self, g3):
        out = normalize_lattice_iso(g3, g3, LatticeIsoData((0, 1, 2), (5, 5, 5)))
        assert out.shift == (0, 0, 0)

    def test_invalid_input_rejected(self, g2):
        with pytest.raises(ValueError):
            normalize_lattice_iso(g2, g2, LatticeIsoData((0, 1), (0, 7)))

    def test_past_power_cap_shifts_cleared(self):
        e = cycle_union(PAST_POWER_CAP)
        n = e.vertex_count
        phi = list(range(n))
        random.Random(149).shuffle(phi)
        f = relabeled_image(e, phi)
        # a distinct shift on each of the five cycles
        shift = weakly_connected_components(e).component_of
        out = normalize_lattice_iso(e, f, LatticeIsoData(tuple(phi), shift))
        assert out == LatticeIsoData(tuple(phi), (0,) * n)
        skewed = (shift[0] + 1,) + shift[1:]
        with pytest.raises(ValueError, match="not a lattice isomorphism"):
            normalize_lattice_iso(e, f, LatticeIsoData(tuple(phi), skewed))

    def test_random_validated_instances(self):
        rng = random.Random(107)
        done = 0
        while done < 60:
            n = rng.randint(1, 6)
            e = random_graph(rng, n, density=0.35)
            sigma = list(range(n))
            rng.shuffle(sigma)
            f = relabeled_image(e, sigma)
            comp = weakly_connected_components(e)
            per_comp = [rng.randint(-3, 3) for _ in range(comp.component_count)]
            shift = tuple(per_comp[comp.component_of[v]] for v in range(n))
            rho = LatticeIsoData(tuple(sigma), shift)
            assert validate_lattice_iso(e, f, rho)
            out = normalize_lattice_iso(e, f, rho)
            assert out.shift == (0,) * n
            assert validate_lattice_iso(e, f, out)
            done += 1


class TestVerdicts:
    def test_gauge_relabeled(self, g3):
        h = apply_permutation(g3, (2, 0, 1), ["x", "y", "z"])
        verdict = decide_gauge_iso(g3, h)
        assert verdict.isomorphic and verdict.witness is not None
        assert verdict.canonical_e == verdict.canonical_f

    def test_gauge_distinguishes_closure_pair(self, g3, triangle):
        assert not decide_gauge_iso(g3, triangle).isomorphic

    def test_gauge_loop_vs_plain(self, g1, g4):
        assert not decide_gauge_iso(g1, g4).isomorphic

    def test_gauge_cross_check_rejects_bad_witness(self, g2, monkeypatch):
        h = parse_graph("vertex x\nvertex y\nedge x y\n")
        # a->y, b->x sends the edge a -> b to the missing y -> x
        monkeypatch.setattr("amplify.classification.digraph_isomorphism", lambda e, f: (1, 0))
        with pytest.raises(RuntimeError, match="witness failed the lattice cross-check"):
            decide_gauge_iso(g2, h)

    def test_stable_closure_pair(self, g3, triangle):
        assert decide_stable_iso(g3, triangle).isomorphic

    def test_stable_relabeled(self, g3):
        h = apply_permutation(g3, (1, 2, 0))
        assert decide_stable_iso(g3, h).isomorphic

    def test_stable_distinguishes_edge(self, g2):
        h = make_graph([0, 0])
        assert not decide_stable_iso(g2, h).isomorphic

    def test_report_format(self, g3, triangle):
        text = decide_gauge_iso(g3, triangle).report()
        lines = text.splitlines()
        assert lines[0] == "isomorphic: false"
        assert lines[1].startswith("canonical_E: vertex v0\\n")
        assert lines[2].startswith("canonical_F: ")

    def test_report_witness_names(self, g2):
        h = parse_graph("vertex x\nvertex y\nedge x y\n")
        text = decide_gauge_iso(g2, h).report()
        assert "witness: a->x, b->y" in text

    def test_stable_coarsens_gauge(self):
        rng = random.Random(109)
        for _ in range(60):
            n = rng.randint(1, 5)
            e = random_graph(rng, n, density=0.4)
            perm = list(range(n))
            rng.shuffle(perm)
            f = apply_permutation(e, perm, [f"y{i}" for i in range(n)])
            assert decide_gauge_iso(e, f).isomorphic
            assert decide_stable_iso(e, f).isomorphic

    def test_stable_iso_with_own_closure(self):
        rng = random.Random(113)
        for _ in range(40):
            e = random_graph(rng, rng.randint(1, 6), density=0.3)
            assert decide_stable_iso(e, amplified_transitive_closure(e)).isomorphic


class TestBoundedSearch:
    def test_relabeled_found(self, g2):
        h = parse_graph("vertex x\nvertex y\nedge x y\n")
        assert search_bounded_iso(g2, h, 2) is not None

    def test_non_isomorphic_absent(self, g3, triangle):
        assert search_bounded_iso(g3, triangle, 2) is None

    def test_self_found_with_shifts(self, g5):
        rho = search_bounded_iso(g5, g5, 1)
        assert rho is not None
        assert validate_lattice_iso(g5, g5, rho)

    def test_size_mismatch(self, g1, g2):
        assert search_bounded_iso(g1, g2, 1) is None

    def test_caps(self, g2):
        big = make_graph([0] * 7)
        with pytest.raises(ValueError):
            search_bounded_iso(big, big, 1)
        with pytest.raises(ValueError):
            search_bounded_iso(g2, g2, 4)
        with pytest.raises(ValueError):
            search_bounded_iso(g2, g2, -1)

    def test_agrees_with_gauge_verdict(self):
        rng = random.Random(127)
        for _ in range(25):
            n = rng.randint(1, 4)
            e = random_graph(rng, n, density=0.5)
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                f = apply_permutation(e, perm, [f"y{i}" for i in range(n)])
            else:
                f = random_graph(rng, n, density=0.5, prefix="y")
            assert decide_gauge_iso(e, f).isomorphic == (
                search_bounded_iso(e, f, 2) is not None
            )

    def test_agrees_with_brute_force(self):
        rng = random.Random(131)
        for _ in range(20):
            n = rng.randint(1, 4)
            e = random_graph(rng, n, density=0.5)
            f = random_graph(rng, n, density=0.5, prefix="y")
            assert (search_bounded_iso(e, f, 2) is not None) == (
                brute_force_isomorphism(e, f) is not None
            )
