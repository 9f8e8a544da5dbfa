"""Guard tools/ab.py, the A/B check of two src trees: a command,
generator kind or --preserve alias that the command line gains without
a fingerprint row would go unchecked by it, and its library digest must
read what the reduction decides, not the reduction's own d and T."""

import importlib.util
import json
from pathlib import Path

import nullcore.analysis
from nullcore import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", _PATH)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_fingerprint_rows_cover_the_command_line():
    rows = [argv for argv, _ in _ab().plan()]
    assert set(cli._COMMANDS) <= {argv[0] for argv in rows if argv}
    assert set(cli._GEN_KINDS) <= {argv[1] for argv in rows
                                   if argv[:1] == ("gen",) and len(argv) > 1}
    perturbs = {argv[3:] for argv in rows
                if argv[:1] == ("perturb",) and argv[2:3] == ("--preserve",)}
    for alias in cli._PRESERVE_ALIASES:
        assert {(alias, "--list"), (alias, "--densify")} <= perturbs
    assert any(argv[:3] == ("verify", "--suite", "all") for argv in rows)


def test_digest_reads_what_d_and_t_decide(monkeypatch, capsys):
    ab = _ab()
    monkeypatch.setattr(ab, "_DIGEST_SIZES", tuple(range(2, 13)))
    monkeypatch.setattr(ab, "_SMALL_COUNT", 2)
    monkeypatch.setattr(ab, "_LARGE_COUNT", 1)
    monkeypatch.setattr(ab, "_MATRICES", 10)
    classified = nullcore.analysis._classified

    def digest(d_sign=None):
        """The digest, with T negated and d times d_sign when given."""
        def mutant(g):
            part, d, entry = classified(g)
            return part, d_sign * d, lambda u, w: -entry(u, w)

        with monkeypatch.context() as patch:
            if d_sign is not None:
                patch.setattr(nullcore.analysis, "_classified", mutant)
            ab._digest()
        return json.loads(capsys.readouterr().out)["digest"]

    head = digest()
    # (-d, -T) is another reduction of the same graph: T / d is unchanged
    assert digest(-1) == head
    # T alone negated flips T / d, and with it screen decisions
    assert digest(1) != head
