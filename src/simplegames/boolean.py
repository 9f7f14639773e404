"""AND/OR formula representations over weighted games.

A formula tree with weighted-game leaves and only monotone connectives
denotes the game whose winning predicate is the formula evaluated on the
leaves' verdicts.  The leaf count of the smallest such formula is the
Boolean dimension; this module evaluates, extracts, sizes, dualises, and
verifies given formulas but does not minimise (that problem is NP-hard).

Text syntax used by the command line and game files::

    AND(WG(5; 4,11/10,1,1,1,1,1), WG(5; 11/10,4,1,1,1,1,1))

``WG(q; w1,...,wn)`` is a weighted game with exact fraction literals;
``AND``/``OR`` take one or more comma-separated children.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import and_, or_

from .core import Coalition, InvalidGameError, SimpleGame, maximal_losing_masks
from .core import _bits, _matches_antichains
from .lpsep import WeightedRep, _canonical_rep, _trivial_all_win_rep, threshold_table


@dataclass(frozen=True)
class Leaf:
    rep: WeightedRep


@dataclass(frozen=True)
class And:
    children: tuple["BoolFormula", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise InvalidGameError("AND needs at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple["BoolFormula", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise InvalidGameError("OR needs at least one child")


BoolFormula = Leaf | And | Or


def formula_players(f: BoolFormula) -> int:
    leaves = list(_leaves(f))
    n = leaves[0].n
    if any(rep.n != n for rep in leaves):
        raise InvalidGameError("formula leaves disagree on the player count")
    return n


def _leaves(f: BoolFormula):
    if isinstance(f, Leaf):
        yield f.rep
    else:
        for child in f.children:
            yield from _leaves(child)


def eval_formula(f: BoolFormula, x: Coalition) -> bool:
    """Monotone evaluation of the formula on one coalition."""
    if formula_players(f) != x.n:
        raise InvalidGameError("coalition and leaf player counts differ")
    return _holds(f, _bits(x.mask))


def _holds(f: BoolFormula, members: list[int]) -> bool:
    """The formula's verdict on the coalition of the players ``members``."""
    if isinstance(f, Leaf):
        return f.rep._wins(members)
    return (all if isinstance(f, And) else any)(_holds(c, members) for c in f.children)


def _formula_table(f: BoolFormula, n: int) -> int:
    if isinstance(f, Leaf):
        return threshold_table(f.rep.weights, f.rep.quota, n)
    return reduce(and_ if isinstance(f, And) else or_, (_formula_table(c, n) for c in f.children))


def formula_game(f: BoolFormula, n: int | None = None) -> SimpleGame:
    """The simple game denoted by the formula (monotone by construction)."""
    players = formula_players(f)
    if n is not None and n != players:
        raise InvalidGameError(f"formula is over {players} players, asked for {n}")
    return SimpleGame._from_table(players, _formula_table(f, players))


def formula_size(f: BoolFormula) -> int:
    """Number of leaf occurrences (repeated leaves count each time)."""
    return sum(1 for _ in _leaves(f))


def _dual_leaf(rep: WeightedRep) -> Leaf:
    """The leaf of the dual game.  X wins there iff its complement loses in
    ``rep``: iff ``w(X) > sum(w) - q``, that is ``w(X) >= sum(w) - q + 1``
    on the integer view.  Below one, that quota lets every coalition win."""
    *weights, q = rep._view[0]
    quota = sum(weights) - q + 1
    if quota < 1:
        return Leaf(_trivial_all_win_rep(rep.n))
    return Leaf(_canonical_rep(weights + [quota]))


def formula_dual(f: BoolFormula) -> BoolFormula:
    """De Morgan dual: swap the connectives, dualise every leaf.

    The denoted game of the result is the dual of the original's, and the
    formula size is unchanged.
    """
    if isinstance(f, Leaf):
        return _dual_leaf(f.rep)
    children = tuple(formula_dual(c) for c in f.children)
    return Or(children) if isinstance(f, And) else And(children)


def verify_boolean_rep(g: SimpleGame, f: BoolFormula) -> bool:
    """True iff the formula denotes exactly the given game, decided on the
    game's minimal winning and maximal losing coalitions at any player count."""
    if formula_players(f) != g.n:
        raise InvalidGameError("formula and game player counts differ")
    return _matches_antichains(partial(_holds, f), g.minwin_masks, maximal_losing_masks(g))


# -- text syntax ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(AND|OR|WG|\(|\)|;|,|-?\d+(?:/\d+)?)")


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def format_formula(f: BoolFormula) -> str:
    if isinstance(f, Leaf):
        weights = ",".join(format_fraction(w) for w in f.rep.weights)
        return f"WG({format_fraction(f.rep.quota)}; {weights})"
    name = "AND" if isinstance(f, And) else "OR"
    return f"{name}({', '.join(format_formula(c) for c in f.children)})"


class FormulaSyntaxError(ValueError):
    pass


def parse_formula(text: str) -> BoolFormula:
    tokens = _tokenize(text)
    formula, pos = _parse_node(tokens, 0)
    if pos != len(tokens):
        raise FormulaSyntaxError(f"trailing input after formula: {tokens[pos:]}")
    return formula


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaSyntaxError(f"bad token at: {text[pos:pos + 20]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _expect(tokens: list[str], pos: int, want: str) -> int:
    if pos >= len(tokens) or tokens[pos] != want:
        got = tokens[pos] if pos < len(tokens) else "end of input"
        raise FormulaSyntaxError(f"expected {want!r}, got {got!r}")
    return pos + 1


def _parse_node(tokens: list[str], pos: int) -> tuple[BoolFormula, int]:
    if pos >= len(tokens):
        raise FormulaSyntaxError("unexpected end of formula")
    head = tokens[pos]
    if head in ("AND", "OR"):
        children, pos = _parse_list(tokens, _expect(tokens, pos + 1, "("), _parse_node)
        return (And if head == "AND" else Or)(tuple(children)), pos
    if head == "WG":
        quota, pos = _parse_fraction(tokens, _expect(tokens, pos + 1, "("))
        weights, pos = _parse_list(tokens, _expect(tokens, pos, ";"), _parse_fraction)
        return Leaf(WeightedRep(tuple(weights), quota)), pos
    raise FormulaSyntaxError(f"expected AND, OR or WG, got {head!r}")


def _parse_list(tokens: list[str], pos: int, parse_item) -> tuple[list, int]:
    """``item (, item)* )``: the items and the position after the ``)``."""
    items = []
    while True:
        item, pos = parse_item(tokens, pos)
        items.append(item)
        if pos >= len(tokens) or tokens[pos] != ",":
            return items, _expect(tokens, pos, ")")
        pos += 1


def _parse_fraction(tokens: list[str], pos: int) -> tuple[Fraction, int]:
    tok = tokens[pos] if pos < len(tokens) else "end of input"
    try:
        return Fraction(tok), pos + 1
    except ValueError:
        raise FormulaSyntaxError(f"expected a number, got {tok!r}") from None
    except ZeroDivisionError:
        raise FormulaSyntaxError(f"zero denominator in {tok!r}") from None
