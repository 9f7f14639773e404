import json
import shlex
from pathlib import Path

import pytest

from simplegames.cli import (
    _SCENARIOS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    dump_game,
    load_game,
    main,
)

UN_FILE = "\n".join(
    ["sg 1", "n 15"]
    + [
        "w " + " ".join(str(p) for p in list(range(5)) + list(extra))
        for extra in __import__("itertools").combinations(range(5, 15), 4)
    ]
) + "\n"


class TestGameFile:
    def test_round_trip(self, majority5):
        text = dump_game(majority5)
        game, _ = load_game(text)
        assert game == majority5
        assert dump_game(game) == text

    def test_hier_line(self, h_disj_25):
        game, desc = load_game("sg 1\nhier disj n=2,5 k=2,5\n")
        assert game == h_disj_25
        assert "disjunctive" in desc

    def test_formula_line(self, majority5):
        game, _ = load_game("sg 1\nformula WG(3; 1,1,1,1,1)\n")
        assert game == majority5

    def test_comments_and_blanks_ignored(self):
        game, _ = load_game("# a comment\nsg 1\n\nn 3\n# another\nw 0 1\n")
        assert [c.members for c in game.min_winning] == [(0, 1)]

    def test_empty_coalition_line(self):
        game, _ = load_game("sg 1\nn 3\nw\n")
        assert game.wins_mask(0)

    def test_parse_errors_carry_line_numbers(self):
        from simplegames.cli import GameFileError

        with pytest.raises(GameFileError, match="line 1"):
            load_game("sg 2\nn 3\n")
        with pytest.raises(GameFileError, match="line 3"):
            load_game("sg 1\nn 3\nv 0 1\n")
        with pytest.raises(GameFileError, match="player 9"):
            load_game("sg 1\nn 3\nw 9\n")
        with pytest.raises(GameFileError):
            load_game("")
        with pytest.raises(GameFileError, match="line 2: unknown hierarchy kind"):
            load_game("sg 1\nhier xor n=2,5 k=2,5\n")
        with pytest.raises(GameFileError, match="line 2: expected 'hier"):
            load_game("sg 1\nhier disj n=2,5\n")
        with pytest.raises(GameFileError, match="line 3: unexpected end of formula"):
            load_game("sg 1\n\nformula\n")


class TestAnalyzeCommand:
    def test_hier_report(self, capsys):
        assert main(["analyze", "--hier", "disj", "--n", "2,5", "--k", "2,5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "players: 7" in out
        assert "complete: yes" in out
        assert "minimal-winning-models: {1^2} {1,2^4} {2^5}" in out
        assert "weighted: no" in out

    def test_json_fields_stable(self, capsys):
        assert main(["analyze", "--hier", "disj", "--n", "2,5", "--k", "2,5", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["players"] == 7
        assert payload["complete"] is True
        assert payload["class_sizes"] == [2, 5]
        assert payload["minimal_winning_models"] == [[0, 5], [1, 4], [2, 0]]
        assert payload["weighted"] is None
        assert payload["roughly_weighted"] is None

    def test_weighted_game_file(self, tmp_path, capsys):
        path = tmp_path / "un.game"
        path.write_text(UN_FILE)
        assert main(["analyze", "--game", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "weighted: yes" in out
        assert "veto: 0,1,2,3,4" in out

    def test_certificates_flag(self, capsys):
        rc = main(
            ["analyze", "--hier", "disj", "--n", "2,4", "--k", "2,4", "--certificates"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "CERT j=2: WIN" in out

    def test_deterministic_output(self, capsys):
        args = ["analyze", "--hier", "conj", "--n", "3,3", "--k", "2,4"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_source_flag_required(self, capsys):
        assert main(["analyze"]) == EXIT_USAGE
        assert main(["analyze", "--hier", "disj"]) == EXIT_USAGE

    def test_kind_alias(self, capsys):
        assert main(["analyze", "--kind", "disj", "--n", "2,5", "--k", "2,5"]) == EXIT_OK
        assert "players: 7" in capsys.readouterr().out


class TestDimensionCommand:
    def test_exact_two(self, capsys):
        rc = main(["dimension", "--hier", "disj", "--n", "2,4", "--k", "2,4"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "exact: 2" in out
        assert "lower: 2" in out

    def test_exact_flag_is_gone(self, capsys):
        assert main(["dimension", "--hier", "disj", "--n", "2,4", "--k", "2,4", "--exact"]) == EXIT_USAGE

    def test_weighted_game_dimension_one(self, capsys):
        rc = main(["dimension", "--hier", "disj", "--n", "2,3", "--k", "2,3"])
        assert rc == EXIT_OK
        assert "exact: 1" in capsys.readouterr().out

    def test_budget_exceeded_exit_code(self, capsys):
        rc = main(["dimension", "--hier", "disj", "--n", "2,5", "--k", "2,5", "--budget", "5"])
        assert rc == EXIT_BUDGET
        out = capsys.readouterr().out
        assert "not determined" in out

    def test_negative_budget_exits_usage(self, capsys):
        rc = main(["dimension", "--hier", "disj", "--n", "2,4", "--k", "2,4", "--budget", "-3"])
        assert rc == EXIT_USAGE
        assert "budget max_lmax must be nonnegative" in capsys.readouterr().err

    def test_lower_only(self, capsys):
        rc = main(["dimension", "--os3", "k=2", "m=2", "--lower-only"])
        assert rc == EXIT_OK
        assert "lower: 2" in capsys.readouterr().out

    def test_json_report(self, capsys):
        rc = main(["dimension", "--hier", "disj", "--n", "2,4", "--k", "2,4", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == 2
        assert payload["maximal_losing"] == 16
        assert len(payload["parts"]) == 2
        for part in payload["parts"]:
            assert set(part) == {"quota", "weights"}

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("sg 1\nn 3\nw 0 1\nw 1 2\n"))
        assert main(["dimension", "--game", "-"]) == EXIT_OK
        assert "exact: 1" in capsys.readouterr().out


class TestReproCommand:
    def test_unknown_scenario(self, capsys):
        assert main(["repro", "nope"]) == EXIT_USAGE

    def test_delta1(self, capsys):
        assert main(["repro", "delta1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_sec4(self, capsys):
        assert main(["repro", "sec4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_scenario_passes(self, name, capsys):
        assert main(["repro", name]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def test_os3_source(capsys):
    assert main(["analyze", "--os3", "k=2", "m=2"]) == EXIT_OK
    assert "players: 6" in capsys.readouterr().out
    assert main(["analyze", "--os3", "k=2"]) == EXIT_USAGE
    assert main(["analyze", "--os3", "q=2", "m=3"]) == EXIT_USAGE


def test_formula_source(capsys):
    assert main(["analyze", "--formula", "WG(3; 1,1,1,1,1)"]) == EXIT_OK
    assert "weighted: yes" in capsys.readouterr().out
    assert main(["analyze", "--formula", "WG(3; "]) == EXIT_USAGE
    assert main(["analyze", "--formula", "WG(1/0; 1)"]) == EXIT_USAGE


def test_formula_above_table_gate_exits_usage(capsys):
    weights = ",".join(["1"] * 21)
    assert main(["analyze", "--formula", f"WG(1; {weights})"]) == EXIT_USAGE
    assert "gated" in capsys.readouterr().err


def test_bad_file_exits_usage(tmp_path, capsys):
    path = tmp_path / "bad.game"
    path.write_text("not a game\n")
    assert main(["analyze", "--game", str(path)]) == EXIT_USAGE
    assert main(["analyze", "--game", str(tmp_path / "missing.game")]) == EXIT_USAGE


def test_unreadable_game_file_exits_usage(tmp_path, capsys):
    binary = tmp_path / "binary.game"
    binary.write_bytes(b"sg 1\nn 2\nw \xff\xfe\n")
    assert main(["analyze", "--game", str(tmp_path)]) == EXIT_USAGE
    assert main(["analyze", "--game", str(binary)]) == EXIT_USAGE
    assert capsys.readouterr().err.count("cannot read game file") == 2


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every command in the README's "Command line" block exits 0; the
    block after it is the game file that one of them reads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands, game_file = section.split("```")[1::2][:2]  # the first two fenced blocks
    (tmp_path / "council.game").write_text(game_file.lstrip("\n"))
    monkeypatch.chdir(tmp_path)
    lines = commands.strip().splitlines()
    assert lines and all(line.startswith("simplegames ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == EXIT_OK, line


@pytest.mark.parametrize("game", [["--hier", "disj", "--n", "2,3", "--k", "2,3"],
                                  ["--hier", "disj", "--n", "2,4", "--k", "2,4"]])
def test_max_len_below_two_exits_usage_on_any_game(game, capsys):
    """The weighted game runs no search; it used to exit 0 here."""
    assert main(["analyze", *game, "--certificates", "--max-len", "1"]) == EXIT_USAGE
    assert "--max-len 1" in capsys.readouterr().err


def test_lower_only_checks_the_budget(capsys):
    args = ["dimension", "--hier", "disj", "--n", "2,4", "--k", "2,4", "--budget", "-3"]
    assert main(args + ["--lower-only"]) == EXIT_USAGE
    assert "budget max_lmax must be nonnegative" in capsys.readouterr().err


def test_lower_only_uses_the_budget_for_its_clique(capsys):
    """Above 200 vertices the clique was greedy whatever the budget."""
    args = ["dimension", "--hier", "conj", "--n", "4,4,4", "--k", "2,4,7", "--budget", "600"]
    assert main(args + ["--lower-only"]) == EXIT_OK
    witness = "witness-lower: {1,2,3,8,9,10,11},{3,4,5,6,7,8,9,10,11}"
    assert witness in capsys.readouterr().out.splitlines()
    assert main(args) == EXIT_OK
    assert witness in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flags", [["--n", "3"], ["--k", "2"], ["--n", "2,5", "--k", "2,5"]])
def test_class_lists_without_hier_exit_usage(flags, tmp_path, capsys):
    path = tmp_path / "un.game"
    path.write_text(UN_FILE)
    assert main(["analyze", "--game", str(path), *flags]) == EXIT_USAGE
    assert main(["dimension", "--os3", "k=2", "m=2", *flags]) == EXIT_USAGE
    assert "--n and --k need --hier" in capsys.readouterr().err
