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

# The command table drives the parsing, the usage errors and the help.
# Each command maps to (handler, summary, arguments, either_or).  An
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
        for name, value in values.items():
            setattr(self, name.lstrip("-").replace("-", "_"), value)


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


def _show_help(command=None):
    sys.stdout.write(_help(command))
    sys.exit(0)


def _convert(command, name, kind, token):
    if kind is int:
        try:
            return int(token)
        except ValueError:
            _fail(command, "argument %s: invalid int value: %r"
                  % (name, token))
    if isinstance(kind, tuple) and token not in kind:
        _fail(command, "argument %s: invalid choice: %r (choose from %s)"
              % (name, token, ", ".join(repr(c) for c in kind)))
    return token


def _option(command, token, options):
    """What argparse reads token as: None for a value; for an option,
    the full name of the option (or of --help) that the token names, or
    the token itself when it names none.  A token names --help when it
    starts with -h, and an option when its part before any "=" is that
    option or abbreviates it.  Exits when it abbreviates more than one
    option, naming the whole token and the options in parser order, as
    argparse does."""
    flag = token.partition("=")[0]
    names = ("--help", *options)
    if token[:2] == "-h" or flag in names:
        return "--help" if token[:2] == "-h" else flag
    long = flag[:2] == "--" and token != "--"
    hits = [name for name in names if long and name.startswith(flag)]
    if len(hits) > 1:
        _fail(command, "ambiguous option: %s could match %s"
              % (token, ", ".join(hits)))
    # of the other tokens, "-" alone, negative numbers (-1, -1.5 and -.5,
    # not -1.) and tokens with a space are values
    whole, dot, frac = token[1:].partition(".")
    number = (whole.isdecimal() or dot and not whole) and (
        frac.isdecimal() or not dot)
    value = token[:1] != "-" or token == "-" or number or " " in token
    return hits[0] if hits else (None if value else token)


def _help_option(command, token):
    """Show the help for a token that _option reads as --help, or exit
    as argparse does when the token gives it an argument: after "="
    (--help=x, -h=x, and the empty one in -h=), or straight after -h
    (-hx), where each h that follows is -h again (-hh is -h)."""
    flag, eq, value = token.partition("=")
    if token[:2] == "-h" and token != "-h=":
        eq = value = token[2 + (flag == "-h"):].lstrip("h")
    if eq:
        _fail(command, "argument -h/--help: ignored explicit argument %r"
              % value)
    _show_help(command)


def _parse(argv):
    """(handler, args) for argv; exits 0 after printing help and 1 on a
    usage error."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    name = _option(None, command, ())
    if name == "--help":
        _help_option(None, command)
    if name:
        _fail(None, "unrecognized arguments: %s" % command)
    _convert(None, "command", tuple(_COMMANDS), command)
    handler, _, arguments, pair = _COMMANDS[command]
    options = {name: kind for name, kind, _, _ in arguments
               if name[:1] == "-"}
    positionals = [a for a in arguments if a[0][:1] != "-"]
    # argparse reads every token before "--" first, so an ambiguous
    # abbreviation is the error even where a value is due
    names = {token: _option(command, token, options)
             for token in argv[1:argv.index("--") if "--" in argv else None]}
    values = {}
    # (argv index, token) of the values and of the unknown options, which
    # argparse reports with the surplus values, in argv order, last
    given = []
    unknown = []
    tokens = enumerate(argv[1:])
    for i, token in tokens:
        name = names.get(token)
        if token == "--":
            given.extend(tokens)
        elif name is None:
            given.append((i, token))
        elif name == "--help":
            _help_option(command, token)
        elif name not in options:
            unknown.append((i, token))
        else:
            _, eq, value = token.partition("=")
            kind = options[name]
            if kind is bool:
                if eq:
                    _fail(command, "argument %s: ignored explicit argument %r"
                          % (name, value))
                value = True
            else:
                if not eq:
                    value = next(tokens, (i, None))[1]
                    if value is None or _option(command, value, options):
                        _fail(command,
                              "argument %s: expected one argument" % name)
                value = _convert(command, name, kind, value)
            values[name] = value
    for (name, kind, _, _), (_, token) in zip(positionals, given):
        values[name] = _convert(command, name, kind, token)
    missing = [name for name, _, default, _ in arguments
               if default is None and name not in values]
    if missing:
        _fail(command, "the following arguments are required: %s"
              % ", ".join(missing))
    if pair and pair[0] in values and pair[1] in values:
        _fail(command, "argument %s: not allowed with argument %s"
              % (pair[1], pair[0]))
    if pair and pair[0] not in values and pair[1] not in values:
        _fail(command, "one of the arguments %s %s is required" % pair)
    extras = sorted(unknown + given[len(positionals):])
    if extras:
        _fail(command, "unrecognized arguments: %s"
              % " ".join(token for _, token in extras))
    for name, _, default, _ in arguments:
        values.setdefault(name, default)
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
