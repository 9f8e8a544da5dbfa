"""Command-line surface: analyze, reduce, perturb, mc, gen, verify.

Exit codes: 0 success, 1 usage, 2 unreadable or malformed input,
3 violated precondition, 4 counterexample or broken guarantee.
All output is machine readable (JSON, DOT, or edge lists) and
byte-identical across runs with equal inputs and seeds.
"""

import argparse
import json
import sys

from .errors import (
    EdgeListParseError,
    PreconditionError,
    TheoremViolationError,
)

# Each handler imports the modules it runs, so a command loads only
# those.  The parser therefore lists the gen kinds and the verify suites
# itself; a test checks _SUITES against nullcore.verify.SUITES.
_GEN_KINDS = ("cycle", "path", "star", "bipartite", "graph", "tree",
              "unicyclic")
_SUITES = ("trees", "bipartite", "subdivisions", "perturbations",
           "unicyclic")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _load(path: str):
    from .graphs import parse_edge_list

    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_analyze(args) -> int:
    from .analysis import analyze, report_to_json
    from .graphs import to_dot

    report = analyze(_load(args.path))
    if args.dot:
        sys.stdout.write(to_dot(report.graph, report.partition))
    else:
        _emit(report_to_json(report))
    return 0


def _cmd_reduce(args) -> int:
    g = _load(args.path)
    if args.pendant:
        from .trees import pendant_reduction

        _emit(pendant_reduction(g).to_json())
        return 0
    from .analysis import slim_reduce

    reduced, prov = slim_reduce(g)
    _emit(
        {
            "n": reduced.n,
            "edges": [list(e) for e in reduced.edges()],
            "vertex_map": [prov.source_vertex(v) for v in range(reduced.n)],
        }
    )
    return 0


_PRESERVE_ALIASES = {"nullity": "nullity", "cv": "cv_set",
                     "nullspace": "nullspace"}


def _cmd_perturb(args) -> int:
    from .analysis import classify_vertices, require_independent_cv
    from .perturb import greedy_densify, safe_additions

    g = _load(args.path)
    part = classify_vertices(g)
    require_independent_cv(g, part)
    preserve = _PRESERVE_ALIASES[args.preserve]
    if args.densify:
        final, added = greedy_densify(g, preserve, part)
        _emit(
            {
                "preserve": args.preserve,
                "added": [list(e) for e in added],
                "n": final.n,
                "edges": [list(e) for e in final.edges()],
            }
        )
    else:
        safe = safe_additions(g, preserve, part)
        _emit(
            {
                "preserve": args.preserve,
                "safe": [[c.u, c.w] for c in safe],
                "types": [c.type_pair for c in safe],
            }
        )
    return 0


def _cmd_mc(args) -> int:
    from .minimal import is_minimal_configuration

    _emit(is_minimal_configuration(_load(args.path)).to_json())
    return 0


def _cmd_gen(args) -> int:
    from . import graphs

    if args.kind == "graph":
        g = graphs.gen_random_graph(args.n, 1, 2, args.seed)
    elif args.kind in ("cycle", "path", "star"):
        g = getattr(graphs, "gen_" + args.kind)(args.n)
    else:
        g = getattr(graphs, "gen_random_" + args.kind)(args.n, args.seed)
    sys.stdout.write(graphs.serialize_edge_list(g))
    return 0


def _cmd_verify(args) -> int:
    from .graphs import serialize_edge_list
    from .verify import VerifySuiteConfig, run_suite

    config = VerifySuiteConfig(args.suite, args.max_n, args.trials, args.seed)
    result = run_suite(config)
    for line in result.summary_lines():
        print(line)
    for idx, (check, graph) in enumerate(result.counterexamples):
        name = "counterexample-%s-%03d.g" % (check.replace("/", "-"), idx)
        with open(name, "w", encoding="utf-8") as handle:
            handle.write("# failed check: %s\n" % check)
            handle.write(serialize_edge_list(graph))
        print("wrote %s" % name)
    print("result: %s" % ("pass" if result.ok else "FAIL"))
    return 0 if result.ok else 4


def _build_parser() -> _Parser:
    parser = _Parser(prog="nullcore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify vertices and check the "
                       "block identities of one graph")
    p.add_argument("path", help="edge-list file ('n m' header)")
    p.add_argument("--dot", action="store_true",
                   help="emit DOT with class colours instead of JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reduce", help="remove remote vertices (--slim) or "
                       "run the pendant reduction (--pendant)")
    p.add_argument("path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--slim", action="store_true")
    mode.add_argument("--pendant", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("perturb", help="list property-preserving edge "
                       "additions or densify greedily")
    p.add_argument("path")
    p.add_argument("--preserve", choices=sorted(_PRESERVE_ALIASES),
                   required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--densify", action="store_true")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("mc", help="minimal-configuration report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("kind", choices=_GEN_KINDS)
    p.add_argument("n", type=int)
    p.add_argument("seed", type=int, nargs="?", default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a randomized guarantee suite; "
                       "failing graphs are written next to the summary")
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 3
    except TheoremViolationError as exc:
        print("guarantee violated: %s" % exc, file=sys.stderr)
        if exc.report is not None:
            print(json.dumps(exc.report), file=sys.stderr)
        return 4
    except ValueError as exc:
        print("invalid request: %s" % exc, file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
