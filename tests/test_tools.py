"""Guard tools/ab.py, the A/B check of two src trees: a command,
generator kind or --preserve alias that the command line gains without
a fingerprint row would go unchecked by it, its library digest must
read what the reduction decides, not the reduction's own d and T, and
its verdict on a timed case must follow the 9-of-10 paired rule."""

import importlib.util
import json
from pathlib import Path

import pytest

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


# the parent's runs: median 145, quartiles 127.5 and 172.5, spread 45
_THEIRS = [100 + 10 * i for i in range(10)]


@pytest.mark.parametrize("shifts, wins, verdict", [
    ([-100] * 10, 10, "faster"),
    ([-100] * 9 + [50], 9, "faster"),
    # 9 wins, but the medians differ by 10, inside the spread
    ([-10] * 9 + [50], 9, "overlap"),
    ([-100] * 8 + [50] * 2, 8, "overlap"),
    # a tie is neither a loss nor a win
    ([-100] * 9 + [0], 9, "faster"),
    ([-100] * 8 + [0] * 2, 8, "overlap"),
    ([100] * 10, 0, "slower"),
    ([100] * 9 + [-50], 1, "slower"),
    ([10] * 9 + [-50], 1, "overlap"),
    ([100] * 8 + [-50] * 2, 2, "overlap"),
    ([100] * 9 + [0], 0, "slower"),
    ([100] * 8 + [0] * 2, 0, "overlap"),
])
def test_verdict_is_the_paired_nine_of_ten_rule(shifts, wins, verdict):
    ours = [t + shift for t, shift in zip(_THEIRS, shifts)]
    assert _ab()._verdict(ours, _THEIRS) == (wins, verdict)
