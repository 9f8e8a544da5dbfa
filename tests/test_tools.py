"""Guard the fingerprint rows of tools/ab.py, the A/B check of two src
trees: a command, generator kind or --preserve alias that the command
line gains without a row would go unchecked by it."""

import importlib.util
from pathlib import Path

from nullcore import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def _rows():
    spec = importlib.util.spec_from_file_location("ab", _PATH)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return [argv for argv, _ in ab.plan()]


def test_fingerprint_rows_cover_the_command_line():
    rows = _rows()
    assert set(cli._COMMANDS) <= {argv[0] for argv in rows if argv}
    assert set(cli._GEN_KINDS) <= {argv[1] for argv in rows
                                   if argv[:1] == ("gen",) and len(argv) > 1}
    perturbs = {argv[3:] for argv in rows
                if argv[:1] == ("perturb",) and argv[2:3] == ("--preserve",)}
    for alias in cli._PRESERVE_ALIASES:
        assert {(alias, "--list"), (alias, "--densify")} <= perturbs
    assert any(argv[:3] == ("verify", "--suite", "all") for argv in rows)
