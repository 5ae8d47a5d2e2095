"""Command-line front end.

Usage: ``amplify <verb> [flags] <files...>``.  Exit codes: 0 for success or
a true verdict, 1 for a false verdict, 2 for usage, parse, or operation
errors.  All output is UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .classification import (
    LatticeIsoData,
    VHSpec,
    check_lemma23,
    decide_gauge_iso,
    decide_stable_iso,
    normalize_lattice_iso,
    reconstruct,
    search_bounded_iso,
)
from .graphs import (
    AmplifiedGraph,
    ParseError,
    amplified_transitive_closure,
    parse_graph,
    t_move,
    to_text,
)
from .isomorph import canonical_form
from .skewlattice import skew_window


def _load(path: str) -> AmplifiedGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return parse_graph(text)
    except ParseError as exc:
        raise RuntimeError(f"{path}: {exc}") from exc


def _parse_levels(graph: AmplifiedGraph, pairs: list[str]) -> VHSpec:
    levels: dict[int, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise RuntimeError(f"bad level assignment {pair!r} (want v=n)")
        try:
            v = graph.vertex(name)
        except KeyError as exc:
            raise RuntimeError(str(exc)) from exc
        try:
            levels[v] = int(value)
        except ValueError:
            raise RuntimeError(f"bad level value in {pair!r}") from None
    missing = [graph.names[v] for v in range(graph.vertex_count) if v not in levels]
    if missing:
        raise RuntimeError(f"no level given for vertices: {', '.join(missing)}")
    return VHSpec(tuple(levels[v] for v in range(graph.vertex_count)))


def _parse_iso_map(
    e: AmplifiedGraph, f: AmplifiedGraph, pairs: list[str]
) -> LatticeIsoData:
    phi: dict[int, int] = {}
    shift: dict[int, int] = {}
    for pair in pairs:
        src, _, rest = pair.partition("=")
        dst, _, level = rest.partition(":")
        if not dst or not level:
            raise RuntimeError(f"bad map entry {pair!r} (want v=x:n)")
        try:
            v = e.vertex(src)
            x = f.vertex(dst)
        except KeyError as exc:
            raise RuntimeError(str(exc)) from exc
        try:
            shift[v] = int(level)
        except ValueError:
            raise RuntimeError(f"bad shift value in {pair!r}") from None
        phi[v] = x
    missing = [e.names[v] for v in range(e.vertex_count) if v not in phi]
    if missing:
        raise RuntimeError(f"no image given for vertices: {', '.join(missing)}")
    return LatticeIsoData(
        tuple(phi[v] for v in range(e.vertex_count)),
        tuple(shift[v] for v in range(e.vertex_count)),
    )


def _format_iso(e: AmplifiedGraph, f: AmplifiedGraph, rho: LatticeIsoData) -> str:
    return ", ".join(
        f"{e.names[v]}->{f.names[rho.vertex_map[v]]}:{rho.shift[v]}"
        for v in range(e.vertex_count)
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and reused: building the verb tree costs about fifty
    # times as much as parsing one command line.
    parser = argparse.ArgumentParser(
        prog="amplify",
        description="Classify amplified graphs up to graded and stable isomorphism.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress all output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("iso", help="graded-isomorphism verdict for two graphs")
    p.add_argument("e")
    p.add_argument("f")

    p = sub.add_parser("stable-iso", help="stable-isomorphism verdict for two graphs")
    p.add_argument("e")
    p.add_argument("f")

    p = sub.add_parser("reconstruct", help="rebuild a graph from its lattice data")
    p.add_argument("e")

    p = sub.add_parser("tclosure", help="amplified transitive closure")
    p.add_argument("e")

    p = sub.add_parser("tmove", help="apply the composite move adding u -> w")
    p.add_argument("e")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("w")

    p = sub.add_parser("check-h0", help="basepoint detection for a level map")
    p.add_argument("e")
    p.add_argument("levels", nargs="*", metavar="v=n")

    p = sub.add_parser("normalize-iso", help="zero the shifts of a lattice iso")
    p.add_argument("e")
    p.add_argument("f")
    p.add_argument("map", nargs="*", metavar="v=x:n")

    p = sub.add_parser("canon", help="canonical form of a graph")
    p.add_argument("e")

    p = sub.add_parser("skew-window", help="finite band of the level-graded cover")
    p.add_argument("e")
    p.add_argument("--window", nargs=2, type=int, required=True, metavar=("A", "B"))

    p = sub.add_parser("oracle", help="exhaustive bounded lattice-iso search")
    p.add_argument("e")
    p.add_argument("f")
    p.add_argument("--bound", type=int, default=2)

    return parser


def run(argv: list[str]) -> int:
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    out: list[str] = []
    emit = out.append
    try:
        code = _dispatch(args, emit)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"amplify: {exc}", file=sys.stderr)
        return 2
    if not args.quiet and out:
        sys.stdout.write("".join(out))
        sys.stdout.flush()
    return code


def _dispatch(args, emit) -> int:
    if args.verb == "iso":
        verdict = decide_gauge_iso(_load(args.e), _load(args.f))
        emit(verdict.report())
        return 0 if verdict.isomorphic else 1

    if args.verb == "stable-iso":
        verdict = decide_stable_iso(_load(args.e), _load(args.f))
        emit(verdict.report())
        return 0 if verdict.isomorphic else 1

    if args.verb == "reconstruct":
        graph = _load(args.e)
        rebuilt, witness = reconstruct(graph)
        emit(to_text(rebuilt))
        for v, w in enumerate(witness):
            emit(f"# witness: {graph.names[v]} -> {rebuilt.names[w]}\n")
        return 0

    if args.verb == "tclosure":
        emit(to_text(amplified_transitive_closure(_load(args.e))))
        return 0

    if args.verb == "tmove":
        graph = _load(args.e)
        result = t_move(graph, graph.vertex(args.u), graph.vertex(args.v), graph.vertex(args.w))
        emit(to_text(result))
        return 0

    if args.verb == "check-h0":
        graph = _load(args.e)
        report = check_lemma23(graph, _parse_levels(graph, args.levels))
        emit(f"verdict: {report.verdict}\n")
        if report.verdict == "constant":
            emit(f"level: {report.level}\n")
            return 0
        emit(f"condition: {report.violated_condition}\n")
        if report.violated_condition == "cond3-shift-containment":
            (v, w), m = report.witness
            emit(f"witness: ({graph.names[v]},{graph.names[w]}), n={m}\n")
        else:
            v, w = report.witness
            emit(f"witness: ({graph.names[v]},{graph.names[w]})\n")
        low, high = report.partition
        emit(
            "partition: L={%s} G={%s}\n"
            % (
                ",".join(graph.names[v] for v in low),
                ",".join(graph.names[v] for v in high),
            )
        )
        return 1

    if args.verb == "normalize-iso":
        e, f = _load(args.e), _load(args.f)
        rho = _parse_iso_map(e, f, args.map)
        normalized = normalize_lattice_iso(e, f, rho)
        emit(f"map: {_format_iso(e, f, normalized)}\n")
        return 0

    if args.verb == "canon":
        emit(canonical_form(_load(args.e)))
        return 0

    if args.verb == "skew-window":
        lo, hi = args.window
        window = skew_window(_load(args.e), lo, hi)
        emit(to_text(window.graph))
        return 0

    if args.verb == "oracle":
        e, f = _load(args.e), _load(args.f)
        rho = search_bounded_iso(e, f, args.bound)
        if rho is None:
            emit("found: false\n")
            return 1
        emit("found: true\n")
        emit(f"map: {_format_iso(e, f, rho)}\n")
        return 0

    raise RuntimeError(f"unknown verb {args.verb!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
