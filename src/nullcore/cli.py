"""Command-line surface: analyze, reduce, perturb, mc, gen, verify.

Exit codes: 0 success, 1 usage, 2 unreadable or malformed input,
3 violated precondition, 4 counterexample or broken guarantee.
All output is machine readable (JSON, DOT, or edge lists) and
byte-identical across runs with equal inputs and seeds.
"""

import sys

from .errors import (
    EdgeListParseError,
    PreconditionError,
    TheoremViolationError,
)

# Each handler imports the modules it runs, so a command loads only
# those.  The command table therefore lists the gen kinds and the verify
# suites itself; a test checks _SUITES against nullcore.verify.SUITES.
_GEN_KINDS = ("cycle", "path", "star", "bipartite", "graph", "tree",
              "unicyclic")
_SUITES = ("trees", "bipartite", "subdivisions", "perturbations",
           "unicyclic")


class _UnreadableInput(Exception):
    """The input file could not be opened or read; carries the OSError."""


def _load(path: str):
    from .graphs import parse_edge_list

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        # only this OSError is an input error; one from writing the
        # output leaves main
        raise _UnreadableInput(exc) from exc
    return parse_edge_list(text)


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text \
            and "\\" not in text:
        return '"' + text + '"'
    # escapes are rare in this program's output, so json is loaded only
    # for them
    import json

    return json.dumps(text)


def _json_parts(value, indent: str, out: list):
    """Appends value to out as json.dumps(value, indent=2) writes it,
    with indent before each of its inner lines."""
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(item) is int for item in value):
            # a row of ints (not bools, which print as true/false) in
            # one join
            out.append("[\n" + inner
                       + (",\n" + inner).join(map(int.__repr__, value))
                       + "\n" + indent + "]")
            return
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _json_parts(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            out.append(separator + _json_string(key) + ": ")
            _json_parts(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2) plus a newline, for payloads of
    str, int, bool, None, lists, tuples and dicts with str keys;
    anything else, floats included, raises TypeError.  Importing json
    and building its encoder would cost every command that prints JSON
    milliseconds."""
    out = []
    _json_parts(payload, "", out)
    out.append("\n")
    return "".join(out)


def _emit(payload):
    sys.stdout.write(_json_text(payload))


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
    from .analysis import _classified, require_independent_cv
    from .perturb import greedy_densify, safe_additions

    g = _load(args.path)
    reduced = _classified(g)
    require_independent_cv(g, reduced[0])
    preserve = _PRESERVE_ALIASES[args.preserve]
    if args.densify:
        final, added = greedy_densify(g, preserve, reduced)
        _emit(
            {
                "preserve": args.preserve,
                "added": [list(e) for e in added],
                "n": final.n,
                "edges": [list(e) for e in final.edges()],
            }
        )
    else:
        safe = safe_additions(g, preserve, reduced)
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


_PATH = ("path", str, None, "edge-list file ('n m' header)")

# The command table drives both parsers, the usage errors and the help:
# _plain reads an argument list in the plain spelling without importing
# argparse, and _argparse builds argparse's parser from the table for
# every other list, with the table's usage and help.  Each command maps to (handler, summary, arguments, either_or).  An
# argument is (name, kind, default, help): a name that starts with "--"
# is an option, any other a positional, in the order given.  kind is
# str, int, bool (a switch, False unless given) or a tuple of choices;
# a default of None makes the argument required.  either_or names two
# switches of which exactly one must be given.
_COMMANDS = {
    "analyze": (
        _cmd_analyze,
        "classify vertices and check the block identities of one graph",
        (_PATH,
         ("--dot", bool, False,
          "emit DOT with class colours instead of JSON")),
        (),
    ),
    "reduce": (
        _cmd_reduce,
        "remove remote vertices (--slim) or run the pendant reduction "
        "(--pendant)",
        (_PATH,
         ("--slim", bool, False, "slim graph and its vertex map"),
         ("--pendant", bool, False, "pendant elimination trace")),
        ("--slim", "--pendant"),
    ),
    "perturb": (
        _cmd_perturb,
        "list property-preserving edge additions or densify greedily",
        (_PATH,
         ("--preserve", tuple(sorted(_PRESERVE_ALIASES)), None,
          "the property every added edge keeps"),
         ("--list", bool, False, "list the safe single-edge additions"),
         ("--densify", bool, False, "add safe edges until none is left")),
        ("--list", "--densify"),
    ),
    "mc": (_cmd_mc, "minimal-configuration report", (_PATH,), ()),
    "gen": (
        _cmd_gen,
        "write a generated graph as an edge list",
        (("kind", _GEN_KINDS, None, "graph family"),
         ("n", int, None, "number of vertices"),
         ("seed", int, 0, "seed of the random kinds")),
        (),
    ),
    "verify": (
        _cmd_verify,
        "run a randomized guarantee suite; failing graphs are written "
        "next to the summary",
        (("--suite", _SUITES + ("all",), "all", "suite to run"),
         ("--max-n", int, 10, "largest graph order drawn"),
         ("--trials", int, 100, "trials per suite"),
         ("--seed", int, 0, "master seed")),
        (),
    ),
}


class _Args:
    """Parsed arguments as attributes: --max-n is read as args.max_n."""

    def __init__(self, values):
        self.__dict__.update(values)


def _shown(name: str, kind) -> str:
    """An argument as usage and help write it: --dot, path, {a,b} or
    --max-n MAX_N."""
    if kind is bool:
        return name
    if isinstance(kind, tuple):
        metavar = "{%s}" % ",".join(kind)
    elif name[:1] == "-":
        metavar = name.lstrip("-").replace("-", "_").upper()
    else:
        return name
    return metavar if name[:1] != "-" else name + " " + metavar


def _usage(command=None) -> str:
    if command is None:
        return "nullcore [-h] {%s} ..." % ",".join(_COMMANDS)
    _, _, arguments, pair = _COMMANDS[command]
    parts = ["nullcore", command, "[-h]"]
    positionals = []
    for name, kind, default, _ in arguments:
        shown = _shown(name, kind)
        if default is not None:
            shown = "[%s]" % shown
        if name[:1] != "-":
            positionals.append(shown)
        elif name not in pair:
            parts.append(shown)
    if pair:
        parts.append("(%s | %s)" % pair)
    return " ".join(parts + positionals)


def _help(command=None) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        head = [__doc__.strip(), "", "commands:"]
        rows += [(name, entry[1]) for name, entry in _COMMANDS.items()]
    else:
        _, summary, arguments, _ = _COMMANDS[command]
        head = [summary, "", "arguments:"]
        rows += [(_shown(name, kind), text)
                 for name, kind, _, text in arguments]
    lines = ["usage: " + _usage(command), ""] + head
    for left, text in rows:
        if len(left) > 20:
            lines += ["  " + left, " " * 24 + text]
        else:
            lines.append("  %-20s  %s" % (left, text))
    return "\n".join(lines) + "\n"


def _fail(command, message):
    sys.stderr.write("usage: %s\nnullcore: error: %s\n"
                     % (_usage(command), message))
    sys.exit(1)


def _plain(arguments, pair, tokens):
    """The values of tokens, by attribute name, when they use the plain
    spelling: every option spelt in full, a value in the token after its
    option, and no value that starts with "-".  None for every other
    list, and for a plain one with a usage error; argparse reads those."""
    kinds = {name: kind for name, kind, _, _ in arguments}
    positionals = [name for name in kinds if name[:1] != "-"][::-1]
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        name = token
        if token[:1] != "-":
            if not positionals:
                return None
            name = positionals.pop()
        elif token not in kinds:
            return None
        elif kinds[name] is bool:
            given[name] = True
            continue
        else:
            token = next(tokens, "-")
            if token[:1] == "-":
                return None
        kind = kinds[name]
        if kind is int:
            try:
                token = int(token)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and token not in kind:
            return None
        given[name] = token
    if pair and (pair[0] in given) == (pair[1] in given):
        return None
    values = {}
    for name, _, default, _ in arguments:
        values[name.lstrip("-").replace("-", "_")] = given.get(name, default)
    return None if None in values.values() else values


def _argparse(command, tokens):
    """The values of tokens, by attribute name, as argparse reads them
    for command; exits 0 after printing the help and 1 on a usage error,
    with the usage and help of the command table.  With command None it
    reads the command itself, and exits unless none is given."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            _fail(command, message)

        def format_help(self):
            return _help(command)

    parser = Parser(prog="nullcore", usage=_usage(command))
    if command is None:
        parser.add_argument("command", nargs="?", choices=tuple(_COMMANDS))
        return vars(parser.parse_args(tokens))
    _, _, arguments, pair = _COMMANDS[command]
    group = parser.add_mutually_exclusive_group(required=bool(pair))
    for name, kind, default, _ in arguments:
        add = group.add_argument if name in pair else parser.add_argument
        if kind is bool:
            add(name, action="store_true")
            continue
        extra = {"default": default}
        if kind is int:
            extra["type"] = int
        elif kind is not str:
            extra["choices"] = kind
        if name[:1] == "-":
            extra["required"] = default is None
        elif default is not None:
            extra["nargs"] = "?"
        add(name, **extra)
    return vars(parser.parse_args(tokens))


def _parse(argv):
    """(handler, args) for argv; exits 0 after printing help and 1 on a
    usage error."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        _argparse(None, argv[:1])
        _fail(None, "the following arguments are required: command")
    handler, _, arguments, pair = _COMMANDS[command]
    values = _plain(arguments, pair, argv[1:])
    if values is None:
        values = _argparse(command, argv[1:])
    return handler, _Args(values)


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except (EdgeListParseError, _UnreadableInput) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 3
    except TheoremViolationError as exc:
        print("guarantee violated: %s" % exc, file=sys.stderr)
        if exc.report is not None:
            import json

            print(json.dumps(exc.report), file=sys.stderr)
        return 4
    except ValueError as exc:
        print("invalid request: %s" % exc, file=sys.stderr)
        return 1


def entry():
    """The nullcore script: main(), then the end of the process.

    Interpreter teardown frees every module loaded at start-up, about
    10 ms that no command needs.  So this runs the exit handlers and
    flushes the output, in the order shutdown would, and ends with
    os._exit.  If a flush fails, the normal shutdown takes over, to
    report the failure and exit 120 as it always has.  main maps only
    the input's OSError to exit 2, so an OSError out of main is a failed
    write of the output, which ends the same way: reported on stderr in
    the shutdown's form, exit 120.
    """
    import atexit
    import os

    try:
        code = main()
    except OSError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        code = 120
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
