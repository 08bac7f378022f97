"""Command line: decompose, verify, cliques, oracle, gen, reconstruct.

Exit codes: 0 on success (or a verified document), 1 when verification
fails, 2 on usage or parse errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .cliques import anti_matching, maximal_cliques
from .errors import InvalidArgumentError
from .factorisation import OperatorKind
from .io import (
    document_to_multipartite,
    format_edge_list,
    graph_content_hash,
    read_document,
    read_edge_list,
    reconstruct_graph,
    to_dot,
    verify_document_fields,
    write_decomposition,
)
from .graphs import bits
from .oracle import _chains, _cliques, _inclusion, size_bound, verify_bijection, verify_neighbourhood_formula
from .series import SeriesResult, SeriesStatus, run_series

__all__ = ["cli_main"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below, with the same message as a value under 1
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = read_edge_list(args.input)
    result = run_series(g, OperatorKind(args.operator), args.max_levels)
    text = write_decomposition(result, graph_content_hash(g))
    dot = to_dot(result.final) if args.dot else None  # it names every vertex, so it may refuse: before writing
    Path(args.output).write_text(text, encoding="utf-8")
    if dot is not None:
        Path(args.dot).write_text(dot, encoding="utf-8")
    sizes = ",".join(str(s) for s in result.level_sizes)
    print(f"status={result.status.value} levels={len(result.level_sizes)} sizes=[{sizes}]")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = read_edge_list(args.input)
    doc = read_document(args.decomposition)

    failures = 0

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal failures
        if not passed:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {'ok' if passed else 'FAIL'}{suffix}")

    hash_ok = doc.source_hash == graph_content_hash(g)
    report("source-hash", hash_ok, "" if hash_ok else "document was built from a different graph")
    if not hash_ok:
        return EXIT_VERIFICATION_FAILED

    m = document_to_multipartite(doc)
    fields = verify_document_fields(doc)
    report("document-fields", fields.passed, fields.counterexample or "")
    bijection = verify_bijection(g, m)
    counts = " ".join(f"{k}:{vertices}/{chains}" for k, vertices, chains in bijection.level_counts)
    report("bijection", bijection.passed, bijection.counterexample or counts)
    neighbourhoods = verify_neighbourhood_formula(m)
    report("neighbourhood-formula", neighbourhoods.passed, neighbourhoods.counterexample or "")

    documented = SeriesResult(
        final=m,
        status=SeriesStatus(doc.status),
        steps=m.level_count - 2,
        level_sizes=tuple(len(level) for level in m.levels),
        operator=OperatorKind(doc.operator),
    )
    bound = size_bound(g, series=documented)
    report("size-bound", bound.holds, f"actual={bound.actual} bound={bound.bound}")
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION_FAILED


def _cmd_cliques(args: argparse.Namespace) -> int:
    g = read_edge_list(args.input)
    for clique in maximal_cliques(g):
        print(" ".join(sorted(clique)))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = read_edge_list(args.input)
    up = _inclusion(_cliques(g))
    labels = g.vertices
    # the labels are sorted, so each intersection's labels come out sorted
    names = {o: tuple(labels[i] for i in bits(o)) for o in up}
    for name in sorted(names.values(), key=lambda name: (len(name), name)):
        print(",".join(name))
    if args.chains is not None:
        for chain in sorted(tuple(map(names.__getitem__, c)) for c in _chains(up, args.chains)):
            print(" < ".join(map(",".join, chain)))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    m = anti_matching(args.n)
    print(f"# anti-matching n={args.n}")
    for a, b in m.edges():
        print(f"{a} {b}")
    return EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    doc = read_document(args.decomposition)
    g = reconstruct_graph(doc)
    if graph_content_hash(g) != doc.source_hash:  # an edited level 1 rebuilds another graph than the one hashed
        print("error: the graph the document encodes does not match its source_hash", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleanfactor",
        description="Biclique factorisation series on multipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decompose = sub.add_parser("decompose", help="run a factorisation series on an edge list")
    decompose.add_argument("--operator", required=True, choices=[op.value for op in OperatorKind])
    decompose.add_argument("--input", required=True, help="edge-list file")
    decompose.add_argument("--output", required=True, help="decomposition JSON file to write")
    decompose.add_argument("--max-levels", type=_positive_int, default=None)
    decompose.add_argument("--dot", default=None, help="also write a DOT rendering here")
    decompose.set_defaults(run=_cmd_decompose)

    verify = sub.add_parser("verify", help="verify a decomposition against its input graph")
    verify.add_argument("--decomposition", required=True)
    verify.add_argument("--input", required=True)
    verify.set_defaults(run=_cmd_verify)

    cliques = sub.add_parser("cliques", help="print the maximal cliques of an edge list")
    cliques.add_argument("--input", required=True)
    cliques.set_defaults(run=_cmd_cliques)

    oracle = sub.add_parser("oracle", help="print non-simple clique intersections (and chains)")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--chains", type=_positive_int, default=None, help="also list chains of this many elements")
    oracle.set_defaults(run=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate instance families")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    am = gen_sub.add_parser("anti-matching", help="edge list of the anti-matching on 2n vertices")
    am.add_argument("n", type=int)
    am.set_defaults(run=_cmd_gen)

    reconstruct = sub.add_parser("reconstruct", help="recover the edge list encoded by a decomposition")
    reconstruct.add_argument("--decomposition", required=True)
    reconstruct.set_defaults(run=_cmd_reconstruct)

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except (InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    # labels and edge lists are UTF-8 whatever the locale, on stdout and in error lines alike
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
