import itertools
import random
from pathlib import Path

import pytest

from amplify.cli import run
from amplify.graphs import parse_graph, to_text, weakly_connected_components

from conftest import PAST_POWER_CAP, chained_cycle_union, cycle_union, relabeled_image

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus"
GOLDEN = DATA / "golden"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.graph"))

# (golden file stem, argv relative to the corpus dir, expected exit code)
GOLDEN_CASES = (
    [(f"canon__{name[:-6]}", ["canon", name], 0) for name in CORPUS_FILES]
    + [(f"tclosure__{name[:-6]}", ["tclosure", name], 0) for name in CORPUS_FILES]
    + [
        ("iso__g3__triangle", ["iso", "g3.graph", "triangle.graph"], 1),
        ("iso__g3__g3_relabeled", ["iso", "g3.graph", "g3_relabeled.graph"], 0),
        ("stable_iso__g3__triangle", ["stable-iso", "g3.graph", "triangle.graph"], 0),
        ("stable_iso__g2__two_isolated", ["stable-iso", "g2.graph", "two_isolated.graph"], 1),
        ("reconstruct__g3", ["reconstruct", "g3.graph"], 0),
        ("reconstruct__loop", ["reconstruct", "loop.graph"], 0),
        ("tmove__g3", ["tmove", "g3.graph", "a", "b", "c"], 0),
        ("skew_window__g2", ["skew-window", "g2.graph", "--window", "0", "1"], 0),
        ("skew_window__loop", ["skew-window", "loop.graph", "--window", "0", "2"], 0),
        ("check_h0__g3_constant", ["check-h0", "g3.graph", "a=0", "b=0", "c=0"], 0),
        ("check_h0__g3_increasing", ["check-h0", "g3.graph", "a=0", "b=1", "c=2"], 1),
        ("normalize_iso__g5", ["normalize-iso", "g5.graph", "g5.graph", "a=a:3", "b=b:3", "c=c:-1"], 0),
        ("oracle__g3__triangle", ["oracle", "g3.graph", "triangle.graph", "--bound", "2"], 1),
        ("oracle__g3__g3_relabeled", ["oracle", "g3.graph", "g3_relabeled.graph", "--bound", "2"], 0),
    ]
)


def invoke(argv, capsys, cwd=CORPUS):
    argv = [str(cwd / a) if a.endswith(".graph") else a for a in argv]
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_iso_false_exit(self, capsys):
        code, out, _ = invoke(["iso", "g3.graph", "triangle.graph"], capsys)
        assert code == 1
        assert out.startswith("isomorphic: false\n")

    def test_stable_iso_true_exit(self, capsys):
        code, out, _ = invoke(["stable-iso", "g3.graph", "triangle.graph"], capsys)
        assert code == 0
        assert out.startswith("isomorphic: true\n")

    def test_tclosure_prints_triangle(self, capsys):
        _, out, _ = invoke(["tclosure", "g3.graph"], capsys)
        closure = parse_graph(out)
        triangle = parse_graph((CORPUS / "triangle.graph").read_text())
        assert closure.rows == triangle.rows

    def test_canon_round_trip(self, capsys, tmp_path):
        for name in CORPUS_FILES:
            code, out, _ = invoke(["canon", name], capsys)
            assert code == 0
            again = tmp_path / "again.graph"
            again.write_text(out)
            code, out2, _ = invoke(["canon", str(again)], capsys, cwd=tmp_path)
            assert out2 == out

    def test_iso_symmetric_exit_codes(self, capsys):
        for a, b in itertools.combinations(CORPUS_FILES, 2):
            ab, _, _ = invoke(["--quiet", "iso", a, b], capsys)
            ba, _, _ = invoke(["--quiet", "iso", b, a], capsys)
            assert ab == ba

    def test_tmove_error_exit(self, capsys):
        code, out, err = invoke(["tmove", "g2.graph", "a", "b", "b"], capsys)
        assert code == 2
        assert not out and "b -> b" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertex a\nedge a b\n")
        code, _, err = invoke(["canon", str(bad)], capsys, cwd=tmp_path)
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(["canon", "nope.graph"], capsys)
        assert code == 2
        assert "nope" in err

    def test_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_check_h0_requires_total_map(self, capsys):
        code, _, err = invoke(["check-h0", "g3.graph", "a=0"], capsys)
        assert code == 2
        assert "b" in err and "c" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tmove", "g3.graph", "a", "b", "zz"],
            ["check-h0", "g3.graph", "zz=1", "a=0", "b=0", "c=0"],
        ],
    )
    def test_unknown_vertex_named_plainly(self, argv, capsys):
        code, out, err = invoke(argv, capsys)
        assert code == 2
        assert not out and err == "amplify: no vertex named 'zz'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-h0", "g3.graph", "a=0", "b=0", "c=0", "a=5"],
            ["normalize-iso", "g5.graph", "g5.graph", "a=a:0", "b=b:0", "c=c:0", "a=b:1"],
        ],
    )
    def test_vertex_given_twice_rejected(self, argv, capsys):
        code, out, err = invoke(argv, capsys)
        assert code == 2
        assert not out and err == "amplify: vertex 'a' given twice\n"

    def test_quiet_suppresses_output(self, capsys):
        code, out, _ = invoke(["--quiet", "iso", "g3.graph", "g3_relabeled.graph"], capsys)
        assert code == 0 and out == ""

    def test_skew_window_names(self, capsys):
        _, out, _ = invoke(["skew-window", "g2.graph", "--window", "0", "1"], capsys)
        assert "vertex a@0" in out and "edge a@0 b@1" in out

    def test_oracle_reports_map(self, capsys):
        code, out, _ = invoke(
            ["oracle", "g3.graph", "g3_relabeled.graph", "--bound", "1"], capsys
        )
        assert code == 0
        assert out.startswith("found: true\n")
        assert "map: " in out

    def test_oracle_rejects_negative_bound(self, capsys):
        code, out, err = invoke(
            ["oracle", "g3.graph", "g3_relabeled.graph", "--bound", "-1"], capsys
        )
        assert code == 2
        assert not out and "shift bound" in err

    def test_normalize_iso_zeroes_shifts(self, capsys):
        code, out, _ = invoke(
            ["normalize-iso", "g5.graph", "g5.graph", "a=a:3", "b=b:3", "c=c:-1"],
            capsys,
        )
        assert code == 0
        assert out == "map: a->a:0, b->b:0, c->c:0\n"

    def test_normalize_iso_past_power_cap(self, capsys, tmp_path):
        e = cycle_union(PAST_POWER_CAP)
        n = e.vertex_count
        phi = list(range(n))
        random.Random(151).shuffle(phi)
        (tmp_path / "e.graph").write_text(to_text(e))
        (tmp_path / "f.graph").write_text(to_text(relabeled_image(e, phi)))
        shift = weakly_connected_components(e).component_of
        argv = ["normalize-iso", "e.graph", "f.graph"]
        argv += [f"x{v}=y{phi[v]}:{shift[v]}" for v in range(n)]
        code, out, _ = invoke(argv, capsys, cwd=tmp_path)
        assert code == 0
        assert out == "map: " + ", ".join(f"x{v}->y{phi[v]}:0" for v in range(n)) + "\n"

    def test_check_h0_past_power_cap(self, capsys, tmp_path):
        g = chained_cycle_union(PAST_POWER_CAP)
        n = g.vertex_count
        (tmp_path / "e.graph").write_text(to_text(g))
        argv = ["check-h0", "e.graph"] + [f"x{v}=0" for v in range(n)]
        code, out, _ = invoke(argv, capsys, cwd=tmp_path)
        assert code == 0
        assert out == "verdict: constant\nlevel: 0\n"
        # one level per cycle: the chain edge x0 -> x3 climbs
        levels = weakly_connected_components(cycle_union(PAST_POWER_CAP)).component_of
        argv = ["check-h0", "e.graph"] + [f"x{v}={levels[v]}" for v in range(n)]
        code, out, _ = invoke(argv, capsys, cwd=tmp_path)
        assert code == 1
        assert out == (
            "verdict: violated\n"
            "condition: cond3-shift-containment\n"
            "witness: (x3,x0), n=0\n"
            "partition: L={x0,x1,x2} G={" + ",".join(f"x{v}" for v in range(3, n)) + "}\n"
        )

    def test_stable_iso_on_relabeled_twelve_cycle(self, capsys, tmp_path):
        # the closure is complete: all 12! canonical leaves tie
        e = cycle_union([12])
        phi = list(range(12))
        random.Random(157).shuffle(phi)
        (tmp_path / "e.graph").write_text(to_text(e))
        (tmp_path / "f.graph").write_text(to_text(relabeled_image(e, phi)))
        code, out, _ = invoke(["stable-iso", "e.graph", "f.graph"], capsys, cwd=tmp_path)
        assert code == 0
        complete = "".join(f"vertex v{i}\\n" for i in range(12)) + "".join(
            f"edge v{i} v{j}\\n" for i in range(12) for j in range(12)
        )
        assert out.startswith("isomorphic: true\n")
        assert out.endswith(f"canonical_E: {complete}\ncanonical_F: {complete}\n")

    @pytest.mark.parametrize("build", [cycle_union, chained_cycle_union])
    def test_reconstruct_past_power_cap(self, build, capsys, tmp_path):
        g = build(PAST_POWER_CAP)
        (tmp_path / "e.graph").write_text(to_text(g))
        code, out, _ = invoke(["reconstruct", "e.graph"], capsys, cwd=tmp_path)
        assert code == 0
        rebuilt = parse_graph(out)
        assert rebuilt.names == tuple(f"H_x{v}_0" for v in range(g.vertex_count))
        assert rebuilt.rows == g.rows
        witness = "".join(f"# witness: {name} -> H_{name}_0\n" for name in g.names)
        assert out.endswith(witness)


class TestGolden:
    @pytest.mark.parametrize("stem,argv,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_matches_golden_twice(self, stem, argv, expected_code, capsys):
        golden = (GOLDEN / f"{stem}.txt").read_bytes()
        for _ in range(2):
            code, out, _ = invoke(argv, capsys)
            assert code == expected_code
            assert out.encode() == golden

    def test_usage_errors_leave_the_parser_reusable(self, capsys):
        # one process: usage errors between verbs change no later output
        for stem, argv, expected_code in GOLDEN_CASES:
            code, out, err = invoke(["skew-window", "g2.graph", "--window", "0"], capsys)
            assert code == 2 and not out and "--window" in err
            code, out, _ = invoke(argv, capsys)
            assert code == expected_code
            assert out.encode() == (GOLDEN / f"{stem}.txt").read_bytes()
