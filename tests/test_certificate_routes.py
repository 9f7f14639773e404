"""The ``find_certificate`` route that small games never reach, its input
check, and an edge case of ``verify_certificate``."""

import pytest

from simplegames import (
    Coalition,
    InvalidGameError,
    TradingTransform,
    find_certificate,
    make_game_from_masks,
    verify_certificate,
)
from simplegames import certificates


def test_farkas_route_end_to_end(two_halves, monkeypatch):
    """The halves are 22 players apart, so the pair scan skips them and the
    certificate comes from the exact LP's Farkas multipliers."""
    calls = []
    farkas = certificates._certificate_from_farkas

    def counting(*args):
        calls.append(args)
        return farkas(*args)

    monkeypatch.setattr(certificates, "_certificate_from_farkas", counting)
    cert = find_certificate(two_halves, 4)
    assert len(calls) == 1
    assert cert is not None and cert.length == 3
    assert verify_certificate(two_halves, cert)
    low, high = list(range(11)), list(range(11, 22))
    assert cert.pre == (
        Coalition.of([1, 13], 22),
        Coalition.of([0] + list(range(2, 11)) + [12], 22),
        Coalition.of(list(range(12)) + list(range(14, 22)), 22),
    )
    assert cert.post == (Coalition.of(low, 22), Coalition.of(low, 22), Coalition.of(high, 22))
    assert find_certificate(two_halves, 2) is None


def test_balanced_transform_with_losing_pres_is_rejected():
    unanimity = make_game_from_masks(2, [0b11])
    one, two = Coalition.of([0], 2), Coalition.of([1], 2)
    assert verify_certificate(unanimity, TradingTransform((one, two), (one, two))) is False



@pytest.mark.parametrize("max_len", [2.5, "4", True])
def test_find_certificate_rejects_a_non_integer_length(max_len):
    with pytest.raises(InvalidGameError):
        find_certificate(make_game_from_masks(4, [0b0011, 0b1100]), max_len)
