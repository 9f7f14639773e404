"""Golden outputs of ``analyze`` and ``dimension``: each command's exit code
and the sha256 of its stdout, in text and in ``--json``.

The battery covers every branch of the two reports: complete weighted,
complete unweighted and non-complete games, with and without
``--certificates``; a game above the table gate; ``--os3``, ``--formula``
and ``--game`` sources; an exact dimension, one with a note, one over
budget, and ``--lower-only`` with and without a witness.  A change to any
byte of these reports fails here.
"""

import hashlib
import shlex

import pytest

from simplegames import cli
from simplegames.cli import main

GAME_FILES = {
    "veto.game": "sg 1\nn 4\nw 0 1\nw 0 2 3\n",
    "noncomplete.game": "sg 1\nn 4\nw 0 1\nw 2 3\n",
    "allwin.game": "sg 1\nn 3\nw\n",
    "big21.game": "sg 1\nn 21\nw 0 1\nw 2 3 4\nw 0 20\n",
}

COMMANDS = [
    "analyze --hier disj --n 2,3 --k 2,3",
    "analyze --game veto.game --certificates",
    "analyze --hier disj --n 2,4 --k 2,4 --certificates",
    "analyze --game noncomplete.game --certificates",
    "analyze --game big21.game --certificates",
    "analyze --game allwin.game",
    "analyze --os3 k=2 m=2",
    "analyze --formula 'OR(WG(2; 1,1,0,0), WG(2; 0,0,1,1))'",
    "dimension --hier disj --n 2,4 --k 2,4",
    "dimension --os3 k=3 m=2 --budget 100",
    "dimension --game noncomplete.game",
    "dimension --game big21.game",
    "dimension --game allwin.game",
    "dimension --hier disj --n 2,5 --k 2,5 --budget 5",
    "dimension --os3 k=2 m=2 --lower-only",
    "dimension --game allwin.game --lower-only",
    "dimension --hier conj --n 4,4,4 --k 2,4,7 --lower-only",
]

# "command" or "command --json" -> (exit code, sha256 of stdout)
GOLDEN = {
    "analyze --hier disj --n 2,3 --k 2,3": (0, "5cfc508f495bcfcbef7ab0878dfdca85304ea8839b94f9836baf2488d2573231"),
    "analyze --hier disj --n 2,3 --k 2,3 --json": (0, "6f31d659849b71af217d4bf1272e0b97c072e10f22acfc022b2ffc8ea1ac6496"),
    "analyze --game veto.game --certificates": (0, "ca9c5322de7add06448061119a90491a8e2580b2063e73e7799d5282d15d64e6"),
    "analyze --game veto.game --certificates --json": (0, "dab27770e6e31cf8abff07f79d0a95af648b7faf9c99832eafe20fa956e9cfb9"),
    "analyze --hier disj --n 2,4 --k 2,4 --certificates": (0, "bb7bff682f7cae69039d82203ed87666ac1ffbac919c88b729baecd255ec19cb"),
    "analyze --hier disj --n 2,4 --k 2,4 --certificates --json": (0, "c34596df269b890af10da2ea48cf8654ed8566926d846420ed7aec5430739f92"),
    "analyze --game noncomplete.game --certificates": (0, "239a592e5eb083725b9383ab1e8822a367f20210da20edf5df19448ad7f2ad02"),
    "analyze --game noncomplete.game --certificates --json": (0, "9a404ed9d55672bc1ad0983ae31dcc277deffa9cca071a0716c148f6f02ef0fe"),
    "analyze --game big21.game --certificates": (0, "e5c84e3902926620d93cb7226b966dd0e0f91341fedebafc1dbe865426ce1d6b"),
    "analyze --game big21.game --certificates --json": (0, "41bc2af39d00846ff99d9cf0b667a9a589c3e800835a39d55068973781f4ae13"),
    "analyze --game allwin.game": (0, "32ad0b41ab0933ffbc6c8bc4ebf2883d28a3895045c0790181a37181ff3ea05c"),
    "analyze --game allwin.game --json": (0, "36f03f523fa57d0a4badaf0303c27f2d4de82b96c313cda143a898e55ae33ba4"),
    "analyze --os3 k=2 m=2": (0, "7b16e77a6fce4549bb995ea0a99e687703625064bce1b711e5bb0c873c52c8d6"),
    "analyze --os3 k=2 m=2 --json": (0, "2612b5a1ad3ab87c0d51e0ae44b1ec099efae10e2f87364cd26fb35f0318c8d6"),
    "analyze --formula 'OR(WG(2; 1,1,0,0), WG(2; 0,0,1,1))'": (0, "133701a4a60d5edbf3da1acd3080dbbc4e1b9983e5e94bb1d8cc5b446283f1df"),
    "analyze --formula 'OR(WG(2; 1,1,0,0), WG(2; 0,0,1,1))' --json": (0, "5b535ef4729b024a14f9507e2b82f16501f93757d8cf4388742f4d9be2471142"),
    "dimension --hier disj --n 2,4 --k 2,4": (0, "1333384c15c985dac1cda2f3fffc5d46471b44a975d853cac304614ef05c49b6"),
    "dimension --hier disj --n 2,4 --k 2,4 --json": (0, "2fb042951b2fa3926ef926d81ee097c07eca92217c16703745109fd726cfeafb"),
    "dimension --os3 k=3 m=2 --budget 100": (0, "92ca1140960d476bbcb82d7416d96caa6b94f2f69da1e20f4986056b36939100"),
    "dimension --os3 k=3 m=2 --budget 100 --json": (0, "c41e106d81a92f64785c7785057627227687d79cf7fce98a92c994293c6d713e"),
    "dimension --game noncomplete.game": (0, "f2ecaaf6b261735c1fad6f583bef24b08b7c4fe5ae62f969ab0199398b27ebc3"),
    "dimension --game noncomplete.game --json": (0, "74385c4c34e51745555ead42defb9ae36555b57334af74d3b0cf83a040644208"),
    "dimension --game big21.game": (0, "c89d67b4a3c8ce7ab4d3ee1f1488382471a3230ad0fcccfe15552eb598bb1b57"),
    "dimension --game big21.game --json": (0, "17333addca5c0a27941c9ffe9ae689c6da72f04ea44884db60d7823098c09845"),
    "dimension --game allwin.game": (0, "cf63a96662510c9a422c118c54ab30c756d74336b80eebd98c6e09cb3dab2252"),
    "dimension --game allwin.game --json": (0, "1c8506f1f37a4c13bb3ff0311688e1b20e733db47ef0d34300bc802e4fe3fa7e"),
    "dimension --hier disj --n 2,5 --k 2,5 --budget 5": (2, "e7e75833e06544caf000e1dfa5317f60d1fd535f357a52f72d6218fa538bf8d2"),
    "dimension --hier disj --n 2,5 --k 2,5 --budget 5 --json": (2, "0ddc2a2f6799b31ae7fa1af18b4d9d7eda1f9fda0fb0d05bff528662f1d87c8a"),
    "dimension --os3 k=2 m=2 --lower-only": (0, "e9b21c38c12f3b6ebbe7eca80bda3ecd722d9266f042cd717939632b11965bfb"),
    "dimension --os3 k=2 m=2 --lower-only --json": (0, "0f75d77be4f5923ba555abbc501b5022a6bb1cf337c0ffd5a6d5e9186b138486"),
    "dimension --game allwin.game --lower-only": (0, "2a60007120bc8a94779b9ed2325a1c647306e92b1a10b3dafdb4334bad7f2b28"),
    "dimension --game allwin.game --lower-only --json": (0, "f44032c8bf863c1230a9e24069b93f02314188bdacd7a74a138ab861fcf035ab"),
    "dimension --hier conj --n 4,4,4 --k 2,4,7 --lower-only": (0, "09f56ae002c5ba995da9b3fb3274ec3a61ba9f3f8ee27ba1a38a5189de7a9aac"),
    "dimension --hier conj --n 4,4,4 --k 2,4,7 --lower-only --json": (0, "1ac4444ad2673bf9a3e84ce093fae4e58e2b6d99d42d16312fe2e6d2f3a89138"),
}

# Every game above has a length-2 certificate, so the "none found" line is
# reached by making the search come back empty.
NONE_FOUND = "analyze --hier disj --n 2,4 --k 2,4 --certificates --max-len 3"
GOLDEN_NONE_FOUND = {
    "analyze --hier disj --n 2,4 --k 2,4 --certificates --max-len 3": (0, "375e57a7863d8a96f2e9ed99f26455726633143804c870e3cbf681e2e994056b"),
    "analyze --hier disj --n 2,4 --k 2,4 --certificates --max-len 3 --json": (0, "46e4a53fcf44ce0aeddf3fa1767eef5786e60d74ded108628d88f2b3e0de6dc2"),
}


def _run(command: str, tmp_path, monkeypatch, capsys) -> tuple[int, str]:
    for name, text in GAME_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rc = main(shlex.split(command))
    return rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_golden(command, tmp_path, monkeypatch, capsys):
    assert _run(command, tmp_path, monkeypatch, capsys) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_NONE_FOUND))
def test_no_certificate_found_matches_golden(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.certificates, "find_certificate", lambda game, max_len: None)
    assert _run(command, tmp_path, monkeypatch, capsys) == GOLDEN_NONE_FOUND[command]


def test_battery_is_pinned_in_text_and_json():
    assert set(GOLDEN) == {c + j for c in COMMANDS for j in ("", " --json")}
    assert set(GOLDEN_NONE_FOUND) == {NONE_FOUND, NONE_FOUND + " --json"}
