"""Command-line front end.

Usage: ``amplify <verb> [flags] <files...>``.  Exit codes: 0 for success or
a true verdict, 1 for a false verdict, 2 for usage, parse, or operation
errors.  All output is UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

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


def _vertex(graph: AmplifiedGraph, name: str) -> int:
    try:
        return graph.vertex(name)
    except KeyError as exc:
        raise RuntimeError(exc.args[0]) from None


def _read_assignments(
    graph: AmplifiedGraph, pairs: list[str], want: str, read: Callable[[str], object]
) -> tuple:
    """The values of ``name=value`` arguments, one per vertex in order.

    ``read`` converts a value and raises ValueError when it is malformed.  A
    malformed pair, an unknown or repeated vertex, and a vertex left without
    a value are errors.
    """
    values: dict[int, object] = {}
    for pair in pairs:
        name, _, text = pair.partition("=")
        if not text:
            raise RuntimeError(f"bad argument {pair!r} (want {want})")
        v = _vertex(graph, name)
        if v in values:
            raise RuntimeError(f"vertex {name!r} given twice")
        try:
            values[v] = read(text)
        except ValueError:
            raise RuntimeError(f"bad value in {pair!r} (want {want})") from None
    missing = [graph.names[v] for v in range(graph.vertex_count) if v not in values]
    if missing:
        raise RuntimeError(f"no value given for vertices: {', '.join(missing)}")
    return tuple(values[v] for v in range(graph.vertex_count))


def _parse_iso_map(
    e: AmplifiedGraph, f: AmplifiedGraph, pairs: list[str]
) -> LatticeIsoData:
    def image(text: str) -> tuple[int, int]:
        dst, _, level = text.partition(":")
        return _vertex(f, dst), int(level)

    images = _read_assignments(e, pairs, "v=x:n", image)
    return LatticeIsoData(
        tuple(x for x, _ in images), tuple(shift for _, shift in images)
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
        u, v, w = (_vertex(graph, name) for name in (args.u, args.v, args.w))
        result = t_move(graph, u, v, w)
        emit(to_text(result))
        return 0

    if args.verb == "check-h0":
        graph = _load(args.e)
        levels = _read_assignments(graph, args.levels, "v=n", int)
        report = check_lemma23(graph, VHSpec(levels))
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
