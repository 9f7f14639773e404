"""Malformed game files and source options: ``analyze`` exits with the
usage code and names the fault on stderr."""

import pytest

from simplegames.cli import EXIT_USAGE, main


@pytest.mark.parametrize("text, message", [
    ("sg 1\n", "missing game description after header"),
    ("sg 1\nhier disj n=2,5 k=2,5\nw 0\n", "unexpected content after hier line"),
    ("sg 1\nm 3\n", "expected 'n <players>'"),
    ("sg 1\nn x\n", "bad player count 'x'"),
    ("sg 1\nn 3\nw a\n", "bad player index in 'w a'"),
    ("sg 1\nn 0\n", "player count 0 outside 1..63"),
    ("sg 1\nhier disj n=2,x k=2,5\n", "bad n list '2,x'"),
])
def test_malformed_game_file_exits_usage(tmp_path, capsys, text, message):
    path = tmp_path / "bad.game"
    path.write_text(text)
    assert main(["analyze", "--game", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_os3_without_m_exits_usage(capsys):
    assert main(["analyze", "--os3", "k=2", "k=3"]) == EXIT_USAGE
    assert "--os3 needs both k= and m=" in capsys.readouterr().err
