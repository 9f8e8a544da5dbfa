"""Package-level properties: version, import cost, and the result records."""

import subprocess
import sys
from pathlib import Path

import pytest

import nullcore
from nullcore.analysis import classify_vertices
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
    loaded = _child_modules(tmp_path, "import nullcore.cli")
    assert not loaded & {"argparse", "gettext", "locale", "json"}
    loaded = _child_modules(
        tmp_path,
        "import io; sys.stdout = io.StringIO()\n"
        "from nullcore.cli import main\n"
        "assert main(['verify', '--suite', 'trees', '--trials', '2', "
        "'--max-n', '6']) == 0",
    )
    assert "nullcore.verify" in loaded
    assert "json" not in loaded


def test_command_modules_skip_future_heapq_and_rng(tmp_path):
    # only the generators need heapq and the rng, and no module needs
    # __future__; each would cost every command start-up time
    loaded = _child_modules(
        tmp_path, "import nullcore.cli, nullcore.analysis, nullcore.perturb")
    assert "nullcore.perturb" in loaded
    assert not loaded & {"__future__", "heapq", "nullcore.rng"}


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


def test_vertex_partition_equality_ignores_kernel():
    part = classify_vertices(gen_path(5))
    assert part.kernel is not None
    # nor the rest of the reduction the partition keeps
    bare = part._replace(kernel=None, d=None, y_block=None)
    other = part._replace(kernel=KernelBasis(5, ((1, 0, 0, 0, 0),)), d=7,
                          y_block=(None,) * 5)
    for a in (part, bare, other):
        for b in (part, bare, other):
            assert a == b
            assert not a != b
            assert hash(a) == hash(b)
    assert len({part, bare, other}) == 1
    changed = part._replace(nullity=2)
    assert part != changed
    assert not part == changed


def test_vertex_provenance_rejects_non_injective_map():
    ok = VertexProvenance((("vertex", 2), ("edge", (0, 2)), ("vertex", 0)))
    assert ok.vertex_map() == {0: 2, 2: 0}
    with pytest.raises(ValueError, match="not injective"):
        VertexProvenance((("vertex", 1), ("edge", (0, 1)), ("vertex", 1)))
    with pytest.raises(ValueError, match="not injective"):
        ok._replace(to_source=(("vertex", 3), ("vertex", 3)))


def test_verify_config_replace_still_validates():
    config = VerifySuiteConfig("trees", 5, 5, 0)
    assert config._replace(seed=7).seed == 7
    with pytest.raises(ValueError, match="trials must be at least 1"):
        config._replace(trials=0)


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
