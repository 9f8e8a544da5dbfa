"""Package-level properties: version, import cost, and the result records."""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nullcore
from nullcore.analysis import VertexPartition, classify_vertices
from nullcore.cli import main
from nullcore.graphs import VertexProvenance, gen_path
from nullcore.linalg import KernelBasis
from nullcore.perturb import EdgeCandidate
from nullcore.verify import VerifySuiteConfig

ROOT = Path(__file__).resolve().parent.parent


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert nullcore.__version__ == project["version"]


def test_cli_import_skips_heavy_stdlib_modules():
    # Every CLI command pays for these at start-up; -S keeps site's own
    # imports out of the picture.
    code = (
        "import sys; sys.path.insert(0, %r); import nullcore.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast') "
        "if m in sys.modules))" % str(ROOT / "src")
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def _child_modules(tmp_path, statements):
    """Every module loaded by a fresh interpreter that runs the given
    statements; their stdout is discarded."""
    code = (
        "import sys; sys.path.insert(0, %r)\n%s\n"
        "sys.stdout = sys.__stdout__\n"
        "print(' '.join(sorted(sys.modules)))"
        % (str(ROOT / "src"), statements)
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=tmp_path,
        capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_cli_start_up_skips_argparse_and_json(tmp_path):
    # argparse (with gettext and locale) and json cost every command
    # milliseconds of start-up; json is loaded only to print JSON
    startup = {"argparse", "gettext", "locale", "json"}
    loaded = _child_modules(tmp_path, "import nullcore.cli")
    assert not loaded & startup
    loaded = _child_modules(
        tmp_path,
        "import io; sys.stdout = io.StringIO()\n"
        "from nullcore.cli import main\n"
        "assert main(['verify', '--suite', 'trees', '--trials', '2', "
        "'--max-n', '6', '--seed', '3']) == 0",
    )
    assert "nullcore.verify" in loaded
    assert not loaded & startup
    # every command form of the benchmark takes the plain path, and the
    # JSON commands write their output without json; no record is built
    # through typing.NamedTuple
    (tmp_path / "p7.g").write_text(
        "7 6\n" + "".join("%d %d\n" % (i, i + 1) for i in range(6)))
    loaded = _child_modules(
        tmp_path,
        "import io; sys.stdout = io.StringIO()\n"
        "from nullcore.cli import main\n"
        "for argv in (['analyze', 'p7.g'], ['analyze', 'p7.g', '--dot'],\n"
        "             ['reduce', 'p7.g', '--slim'],\n"
        "             ['reduce', 'p7.g', '--pendant'], ['mc', 'p7.g'],\n"
        "             ['perturb', 'p7.g', '--preserve', 'cv', '--list'],\n"
        "             ['perturb', 'p7.g', '--preserve', 'nullspace',\n"
        "              '--densify'],\n"
        "             ['gen', 'tree', '8', '3']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert sys.stdout.getvalue().count('{') >= 5",
    )
    assert {"nullcore.perturb", "nullcore.trees", "nullcore.minimal"} \
        <= loaded
    assert not loaded & (startup | {"typing"})
    loaded = _child_modules(
        tmp_path, "import nullcore\n"
        "for name in sorted(nullcore._SUBMODULES):\n"
        "    getattr(nullcore, name)")
    assert "nullcore.verify" in loaded and "typing" not in loaded


def test_command_modules_skip_future_heapq_and_rng(tmp_path):
    # only the generators need heapq and the rng, and no module needs
    # __future__; each would cost every command start-up time
    loaded = _child_modules(
        tmp_path, "import nullcore.cli, nullcore.analysis, nullcore.perturb")
    assert "nullcore.perturb" in loaded
    assert not loaded & {"__future__", "heapq", "nullcore.rng"}


def test_verify_suites_load_only_the_modules_they_run(tmp_path):
    # each trial imports the modules of its own checks, and the tree
    # generator needs no heap
    def suite_modules(suite):
        return _child_modules(
            tmp_path,
            "import io; sys.stdout = io.StringIO()\n"
            "from nullcore.cli import main\n"
            "assert main(['verify', '--suite', %r, '--trials', '4', "
            "'--max-n', '8']) == 0" % suite,
        )

    loaded = suite_modules("perturbations")
    assert "nullcore.perturb" in loaded
    assert not loaded & {"nullcore.trees", "nullcore.minimal", "heapq"}
    loaded = suite_modules("unicyclic")
    assert "nullcore.verify" in loaded
    assert not loaded & {"nullcore.perturb", "nullcore.trees",
                         "nullcore.minimal"}


def test_package_import_loads_no_submodule(tmp_path):
    loaded = _child_modules(tmp_path, "import nullcore")
    assert {m for m in loaded if m.split(".")[0] == "nullcore"} == {
        "nullcore"}


def test_analyze_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "p7.g").write_text(
        "7 6\n" + "".join("%d %d\n" % (i, i + 1) for i in range(6)))
    loaded = _child_modules(
        tmp_path,
        "import io; sys.stdout = io.StringIO()\n"
        "from nullcore.cli import main\n"
        "assert main(['analyze', 'p7.g']) == 0",
    )
    assert "nullcore.analysis" in loaded
    for name in ("verify", "perturb", "trees", "minimal"):
        assert "nullcore." + name not in loaded


def test_pendant_reduction_skips_minimal(tmp_path):
    # only is_mc_tree decides a minimal configuration, and it imports
    # nullcore.minimal itself
    (tmp_path / "p7.g").write_text(
        "7 6\n" + "".join("%d %d\n" % (i, i + 1) for i in range(6)))
    loaded = _child_modules(
        tmp_path,
        "import io; sys.stdout = io.StringIO()\n"
        "from nullcore.cli import main\n"
        "assert main(['reduce', 'p7.g', '--pendant']) == 0",
    )
    assert "nullcore.trees" in loaded
    assert "nullcore.minimal" not in loaded


def test_lazy_package_attributes():
    assert set(nullcore.__all__) <= set(dir(nullcore))
    assert {"linalg", "verify", "cli"} <= set(dir(nullcore))
    namespace = {}
    exec("from nullcore import *", namespace)
    for name in nullcore.__all__:
        assert namespace[name] is getattr(nullcore, name)
    assert nullcore.rank is nullcore.linalg.rank
    assert nullcore.SUITES is nullcore.verify.SUITES
    assert nullcore.cli.main is main
    for gone in ("cv_by_deletion", "is_nonsingular", "matching_number",
                 "symmetric_kernel", "SymmetricKernel"):
        assert gone not in nullcore.__all__
        with pytest.raises(AttributeError):
            getattr(nullcore, gone)


def test_vertex_partition_compares_as_a_tuple():
    # every field is a function of the graph, even when a basis is
    # claimed, so the records' plain tuple equality covers the kernel;
    # the route-dependent d and T of the reduction are no fields
    assert VertexPartition._fields == (
        "nullity", "class_of", "cv_set", "ncv_set", "cfvr_set",
        "independent_cv", "kernel")
    for name in ("__eq__", "__ne__", "__hash__"):
        assert name not in VertexPartition.__dict__
    part = classify_vertices(gen_path(5))
    claimed = classify_vertices(gen_path(5),
                                KernelBasis(5, ((-3, 0, 3, 0, -3),)))
    assert claimed == part and not claimed != part
    assert claimed.kernel.vectors == ((1, 0, -1, 0, 1),)
    assert hash(claimed) == hash(part) == hash(tuple(part))
    for field, value in (
        ("nullity", 2),
        ("kernel", KernelBasis(5, ((1, 0, 0, 0, 0),))),
        ("cv_set", (0, 2)),
        ("independent_cv", False),
    ):
        changed = part._replace(**{field: value})
        assert part != changed and not part == changed
    assert len({part, part._replace(cv_set=(0, 2))}) == 2


def _defines_make(node) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name == "_make"
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return node.id == "_make"
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr == "_make"
    return False


def test_library_has_no_assert_statement():
    # python -O strips assert, so every runtime guarantee must raise;
    # and only linalg.Record defines _make, so no record class can build
    # itself past its __new__
    found = []
    for path in sorted((ROOT / "src" / "nullcore").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {
            id(statement): (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for statement in node.body
        }
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or (
                _defines_make(node)
                and owner.get(id(node)) != ("linalg.py", "Record"))
        ]
    assert found == []


def _unused_imports(path) -> list:
    """file:line name for every name the module at path imports and
    never reads.  A name is read when it is loaded anywhere in the
    module, in any scope; an __all__ of string constants reads its
    names too."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # an import nothing reads costs the module's load and hides what
    # the module really needs
    found = []
    for top in ("src/nullcore", "tests", "tools"):
        for path in sorted((ROOT / top).glob("*.py")):
            found += _unused_imports(path)
    assert found == []


def test_guards_raise_under_python_O():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from nullcore.analysis import classify_vertices\n"
        "from nullcore.errors import TheoremViolationError\n"
        "from nullcore.graphs import Graph, gen_cycle, gen_path\n"
        "from nullcore.linalg import IntMatrix, KernelBasis\n"
        "print(__debug__)\n"
        "for g, claim in (\n"
        "        (gen_path(3), KernelBasis(5, ((1, 0, -1, 0, 1),))),\n"
        "        (gen_path(3), KernelBasis(3, ((0, 1, 0),))),\n"
        "        (Graph(1), KernelBasis(1, ())),\n"
        "        (gen_path(3), KernelBasis(3, ((1, 0, 5),))),\n"
        "        (gen_cycle(4), KernelBasis(4, ((1, 1, -1, -1),\n"
        "                                       (2, 2, -2, -2))))):\n"
        "    try:\n"
        "        classify_vertices(g, claim)\n"
        "    except TheoremViolationError as error:\n"
        "        print(error, Graph(error.report['n'],\n"
        "                           error.report['edges']) == g)\n"
        "try:\n"
        "    IntMatrix([[0.5]])\n"
        "except TypeError:\n"
        "    print('TypeError')\n" % str(ROOT / "src")
    )
    out = subprocess.run(
        [sys.executable, "-O", "-S", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "False",
        "basis of ambient dimension 5 does not fit 3 vertices True",
        "basis does not span the kernel True",
        "basis of dimension 0 contradicts nullity 1 True",
        "basis does not span the kernel True",
        "basis does not span the kernel True",
        "TypeError",
    ]


def test_vertex_provenance_rejects_non_injective_map():
    ok = VertexProvenance((("vertex", 2), ("edge", (0, 2)), ("vertex", 0)))
    assert ok.vertex_map() == {0: 2, 2: 0}
    with pytest.raises(ValueError, match="not injective"):
        VertexProvenance((("vertex", 1), ("edge", (0, 1)), ("vertex", 1)))
    with pytest.raises(ValueError, match="not injective"):
        ok._replace(to_source=(("vertex", 3), ("vertex", 3)))
    with pytest.raises(ValueError, match="not injective"):
        VertexProvenance._make(((("vertex", 3), ("vertex", 3)),))


def test_verify_config_replace_still_validates():
    config = VerifySuiteConfig("trees", 5, 5, 0)
    assert config._replace(seed=7).seed == 7
    with pytest.raises(ValueError, match="trials must be at least 1"):
        config._replace(trials=0)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        VerifySuiteConfig._make(("trees", 5, 0, 0))


def test_records_reject_assignment():
    part = classify_vertices(gen_path(3))
    records = (
        (part, "nullity"),
        (part.kernel, "vectors"),
        (VertexProvenance((("vertex", 0),)), "to_source"),
        (VerifySuiteConfig("trees", 5, 5, 0), "seed"),
        (EdgeCandidate(0, 2, "CV-CV"), "u"),
    )
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_record_repr_names_fields():
    assert repr(EdgeCandidate(0, 2, "NCV-NCV")) == (
        "EdgeCandidate(u=0, w=2, type_pair='NCV-NCV')"
    )
    assert repr(VerifySuiteConfig("trees", 5, 1, 0)) == (
        "VerifySuiteConfig(suite='trees', max_n=5, trials=1, seed=0)"
    )


def test_record_construction_by_position_and_keyword():
    by_position = EdgeCandidate(0, 2, "NCV-NCV")
    assert by_position == EdgeCandidate(u=0, w=2, type_pair="NCV-NCV")
    assert by_position == EdgeCandidate(0, type_pair="NCV-NCV", w=2)
    assert by_position == EdgeCandidate._make([0, 2, "NCV-NCV"])
    assert (by_position.u, by_position.w, by_position.type_pair) == (
        0, 2, "NCV-NCV")
    assert KernelBasis(ambient=1, vectors=()) == KernelBasis(1, ())
    missing = "EdgeCandidate is missing the fields type_pair"
    twice = "EdgeCandidate got multiple values for field 'u'"
    for args, kwargs, message in (
        ((0, 2), {}, missing),
        ((0, 2, "NCV-NCV", 5), {},
         "EdgeCandidate takes 3 fields but 4 were given"),
        ((), {"u": 0, "w": 2}, missing),
        ((), {"u": 0, "w": 2, "type_pair": "x", "v": 1},
         "EdgeCandidate got an unexpected field 'v'"),
        ((), {"u": 0, "w": 2, "kind": "x"},
         "EdgeCandidate got an unexpected field 'kind'"),
        ((0, 2, "x"), {"u": 0}, twice),
        # the first offending keyword names the error
        ((0,), {"u": 1, "kind": 2}, twice),
        ((0,), {"kind": 2, "u": 1},
         "EdgeCandidate got an unexpected field 'kind'"),
    ):
        with pytest.raises(TypeError) as raised:
            EdgeCandidate(*args, **kwargs)
        assert str(raised.value) == message
    with pytest.raises(TypeError):
        EdgeCandidate._make([0, 2])
    with pytest.raises(TypeError):
        VerifySuiteConfig("trees", 5, 5)


def test_record_replace_asdict_and_fields():
    edge = EdgeCandidate(0, 2, "NCV-NCV")
    assert EdgeCandidate._fields == ("u", "w", "type_pair")
    assert EdgeCandidate.__match_args__ == EdgeCandidate._fields
    assert edge._replace(w=3) == EdgeCandidate(0, 3, "NCV-NCV")
    assert edge._replace() == edge
    with pytest.raises(ValueError, match="unexpected field names"):
        edge._replace(v=3)
    assert edge._asdict() == {"u": 0, "w": 2, "type_pair": "NCV-NCV"}
    assert list(edge._asdict()) == list(EdgeCandidate._fields)


def test_record_class_pattern():
    match EdgeCandidate(1, 4, "CV-NCV"):
        case EdgeCandidate(u, w, "CV-NCV"):
            matched = (u, w)
        case _:
            matched = None
    assert matched == (1, 4)
    match VerifySuiteConfig("trees", 5, 1, 0):
        case VerifySuiteConfig(suite, max_n=max_n):
            assert (suite, max_n) == ("trees", 5)


def test_record_equals_and_hashes_as_a_tuple():
    edge = EdgeCandidate(0, 2, "NCV-NCV")
    assert edge == (0, 2, "NCV-NCV") and (0, 2, "NCV-NCV") == edge
    assert hash(edge) == hash((0, 2, "NCV-NCV"))
    assert {edge, (0, 2, "NCV-NCV")} == {edge}
    assert edge != (0, 2) and edge < (0, 3)
    assert isinstance(edge, tuple) and len(edge) == 3


def test_records_round_trip_through_pickle_and_deepcopy():
    part = classify_vertices(gen_path(5))
    records = (
        part,
        VertexProvenance((("vertex", 2), ("edge", (0, 2)))),
        VerifySuiteConfig("trees", 5, 1, 0),
        EdgeCandidate(0, 2, "NCV-NCV"),
    )
    for record in records:
        for clone in (pickle.loads(pickle.dumps(record)),
                      copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert tuple(clone) == tuple(record)
    # a partition holds nothing but its fields, so a round trip keeps
    # every one of them, the kernel basis included
    assert pickle.loads(pickle.dumps(part))._asdict() == part._asdict()


def test_unpickling_and_deepcopy_still_validate():
    # records built around their checks: the copies must not get past them
    forged = (
        tuple.__new__(VerifySuiteConfig, ("trees", 5, 0, 0)),
        tuple.__new__(VertexProvenance,
                      ((("vertex", 1), ("vertex", 1)),)),
    )
    for record in forged:
        data = pickle.dumps(record)
        with pytest.raises(ValueError):
            pickle.loads(data)
        with pytest.raises(ValueError):
            copy.deepcopy(record)


def test_record_fields_take_no_defaults():
    from nullcore.linalg import Record

    with pytest.raises(TypeError, match="no default"):
        class Defaulted(Record):
            x: int
            y: int = 0
