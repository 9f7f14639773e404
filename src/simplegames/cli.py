"""Command line front end: analyze games, compute dimension, run repro suites.

Game files are line-oriented text::

    sg 1
    n 6
    w 0 1
    w 2 3 4 5

The header names the format version.  Instead of ``n``/``w`` lines a file may
hold one ``hier <disj|conj> n=<list> k=<list>`` line or one
``formula <AND/OR/WG expression>`` line.  Blank lines and ``#`` comments are
ignored.  Exit codes: 0 success, 1 usage error or a game file that cannot be
read or parsed, 2 exact search gave up under budget, 3 assertion failure in a
repro scenario.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from . import boolean, certificates, desirability, dimension, hierarchical, lpsep
from .boolean import format_fraction
from .core import (
    Coalition,
    InvalidGameError,
    SimpleGame,
    TableSizeError,
    dual,
    dummy_players,
    make_game_from_masks,
    maximal_losing_masks,
    veto_players,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_ASSERTION = 3


class GameFileError(ValueError):
    pass


# -- game file format ----------------------------------------------------------


def load_game(text: str) -> tuple[SimpleGame, str]:
    """Parse a game file; returns the game and a short source description."""
    lines = [
        (no, line.strip())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise GameFileError("empty game file")
    no, header = lines[0]
    if header.split() != ["sg", "1"]:
        raise GameFileError(f"line {no}: expected header 'sg 1', got {header!r}")
    body = lines[1:]
    if not body:
        raise GameFileError("missing game description after header")
    first = body[0][1].split()
    if first[0] in ("hier", "formula"):
        if len(body) > 1:
            raise GameFileError(f"line {body[1][0]}: unexpected content after {first[0]} line")
        try:
            if first[0] == "formula":
                return _formula_game(body[0][1][len("formula") :])
            fields = dict(tok.partition("=")[::2] for tok in first[2:])
            if len(first) != 4 or set(fields) != {"n", "k"}:
                raise GameFileError("expected 'hier <disj|conj> n=<list> k=<list>'")
            return _hier_game(first[1], fields["n"], fields["k"])
        except GameFileError as exc:
            raise GameFileError(f"line {body[0][0]}: {exc}") from exc
    if first[0] != "n" or len(first) != 2:
        raise GameFileError(f"line {body[0][0]}: expected 'n <players>', got {body[0][1]!r}")
    try:
        n = int(first[1])
    except ValueError as exc:
        raise GameFileError(f"line {body[0][0]}: bad player count {first[1]!r}") from exc
    masks = []
    for no, line in body[1:]:
        parts = line.split()
        if parts[0] != "w":
            raise GameFileError(f"line {no}: expected 'w <players...>', got {line!r}")
        try:
            players = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise GameFileError(f"line {no}: bad player index in {line!r}") from exc
        mask = 0
        for p in players:
            if not 0 <= p < n:
                raise GameFileError(f"line {no}: player {p} outside 0..{n - 1}")
            mask |= 1 << p
        masks.append(mask)
    try:
        return make_game_from_masks(n, masks), f"{len(masks)} coalition lines"
    except InvalidGameError as exc:
        raise GameFileError(str(exc)) from exc


def dump_game(g: SimpleGame) -> str:
    lines = ["sg 1", f"n {g.n}"]
    for c in g.min_winning:
        lines.append("w " + " ".join(str(p) for p in c.members) if c.members else "w")
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise GameFileError(f"bad {what} list {text!r}") from exc


def _hier_game(kind: str, n: str, k: str) -> tuple[SimpleGame, str]:
    try:
        spec = hierarchical.HierarchicalSpec(
            _parse_kind(kind), _parse_int_list(n, "n"), _parse_int_list(k, "k")
        )
    except InvalidGameError as exc:
        raise GameFileError(str(exc)) from exc
    return hierarchical.build(spec), f"hier {spec.kind.value} n={spec.n_vec} k={spec.k_vec}"


def _formula_game(expr: str) -> tuple[SimpleGame, str]:
    try:
        return boolean.formula_game(boolean.parse_formula(expr)), "formula"
    except boolean.FormulaSyntaxError as exc:
        raise GameFileError(str(exc)) from exc


def _parse_kind(token: str) -> hierarchical.Kind:
    if token in ("disj", "disjunctive"):
        return hierarchical.Kind.DISJUNCTIVE
    if token in ("conj", "conjunctive"):
        return hierarchical.Kind.CONJUNCTIVE
    raise GameFileError(f"unknown hierarchy kind {token!r} (want disj or conj)")


# -- shared rendering ------------------------------------------------------------
#
# A report is one ordered list of fields ``(key, value, line)``: ``--json``
# prints the keyed values as one object, text prints the lines in order.  A
# text-only field has no key; a JSON-only field has no line.


def _field(key: str, value, text=None) -> tuple:
    """Field whose line is ``key: text`` (dashes for underscores); ``text``
    defaults to ``value``."""
    return key, value, f"{key.replace('_', '-')}: {value if text is None else text}"


def _print_report(fields: Sequence[tuple], as_json: bool) -> None:
    if as_json:
        print(json.dumps({key: value for key, value, _ in fields if key}, sort_keys=True))
    else:
        for _, _, line in fields:
            if line is not None:
                print(line)


def _rep(rep) -> tuple[dict, str]:
    """A representation's JSON object and its ``[quota; weights]`` text."""
    quota, weights = format_fraction(rep.quota), [format_fraction(w) for w in rep.weights]
    return {"quota": quota, "weights": weights}, f"[{quota}; {','.join(weights)}]"


def _rep_field(key: str, rep) -> tuple:
    if rep is None:
        return _field(key, None, "no")
    value, text = _rep(rep)
    return _field(key, value, "yes " + text)


def _models_field(key: str, models: Sequence[Sequence[int]]) -> tuple:
    return _field(key, [list(m) for m in models], " ".join(format_model(m) for m in reversed(models)))


def _players_field(key: str, players: Sequence[int]) -> tuple:
    return _field(key, list(players), ",".join(map(str, players)) or "-")


def _witness_field(witness: Sequence[Coalition], shown: bool = True) -> tuple:
    text = ",".join(format_coalition(c) for c in witness)
    key, value, line = _field("witness_lower", _member_lists(witness), text)
    return key, value, line if shown else None


def _member_lists(coalitions: Iterable[Coalition]) -> list[list[int]]:
    return [list(c.members) for c in coalitions]


def format_coalition(c: Coalition) -> str:
    return "{" + ",".join(str(p) for p in c.members) + "}"


def format_model(model: Iterable[int]) -> str:
    parts = []
    for cls, count in enumerate(model, start=1):
        if count == 1:
            parts.append(str(cls))
        elif count > 1:
            parts.append(f"{cls}^{count}")
    return "{" + ",".join(parts) + "}"


def format_certificate(tt: certificates.TradingTransform) -> str:
    wins = ",".join(format_coalition(c) for c in tt.pre)
    loses = ",".join(format_coalition(c) for c in tt.post)
    return f"CERT j={tt.length}: WIN {wins} | LOSE {loses}"


# -- game source from flags ------------------------------------------------------


def _add_source_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--game", metavar="FILE", help="game file path, or - for stdin")
    parser.add_argument(
        "--hier", "--kind", dest="hier", metavar="KIND", help="hierarchical game: disj or conj"
    )
    parser.add_argument("--n", metavar="LIST", help="class sizes, comma separated")
    parser.add_argument("--k", metavar="LIST", help="thresholds, comma separated")
    parser.add_argument(
        "--os3",
        nargs=2,
        metavar=("k=K", "m=M"),
        help="layered witness-family game, e.g. --os3 k=2 m=3",
    )
    parser.add_argument("--formula", metavar="EXPR", help="AND/OR/WG formula expression")


def _game_from_args(args) -> tuple[SimpleGame, str]:
    sources = [s for s in (args.game, args.hier, args.os3, args.formula) if s]
    if len(sources) != 1:
        raise GameFileError("exactly one of --game, --hier, --os3, --formula is required")
    if not args.hier and (args.n is not None or args.k is not None):
        raise GameFileError("--n and --k need --hier")
    if args.game:
        try:
            text = sys.stdin.read() if args.game == "-" else Path(args.game).read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise GameFileError(f"cannot read game file {args.game}: {exc}") from exc
        return load_game(text)
    if args.hier:
        if not args.n or not args.k:
            raise GameFileError("--hier needs --n and --k")
        return _hier_game(args.hier, args.n, args.k)
    if args.os3:
        params = {}
        for tok in args.os3:
            key, _, val = tok.partition("=")
            if key not in ("k", "m") or not val.isdigit():
                raise GameFileError(f"bad --os3 parameter {tok!r} (want k=K m=M)")
            params[key] = int(val)
        if set(params) != {"k", "m"}:
            raise GameFileError("--os3 needs both k= and m=")
        game, _ = hierarchical.losing_witness_family(params["k"], params["m"])
        return game, f"layered family k={params['k']} m={params['m']}"
    return _formula_game(args.formula)


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    if args.max_len < 2:
        raise GameFileError(f"--max-len {args.max_len}: certificates have length at least 2")
    game, source = _game_from_args(args)
    try:
        complete = desirability.is_complete(game)
        verdict = "yes" if complete else "no"
    except TableSizeError:  # structure analysis is table-gated
        complete, verdict = None, "not computed (player count above the table gate)"
    fields = [
        _field("source", source),
        _field("players", game.n),
        _field("minimal_winning", len(game.minwin_masks)),
        _field("maximal_losing", len(maximal_losing_masks(game))),
        _field("complete", complete, verdict),
    ]
    if complete:
        part = desirability.equivalence_classes(game)
        classes = " > ".join("{" + ",".join(map(str, c)) + "}" for c in part.classes)
        fields += [
            ("class_sizes", list(part.sizes), None),
            _field("classes", [list(c) for c in part.classes], classes),
            _models_field("minimal_winning_models", desirability.minimal_winning_models(game)),
            _models_field("shift_maximal_losing_models", desirability.shift_maximal_losing(game)),
        ]
    wrep = lpsep.is_weighted(game)
    fields += [
        _players_field("veto", veto_players(game)),
        _players_field("dummies", dummy_players(game)),
        _rep_field("weighted", wrep),
        _rep_field("roughly_weighted", lpsep.is_roughly_weighted(game)),
    ]
    if args.certificates and wrep is None:
        cert = certificates.find_certificate(game, max_len=args.max_len)
        value = cert and {"pre": _member_lists(cert.pre), "post": _member_lists(cert.post)}
        none = f"certificate: none found within length {args.max_len} (bound-relative)"
        fields.append(("certificate", value, format_certificate(cert) if cert else none))
    _print_report(fields, args.json)
    return EXIT_OK


# -- dimension ---------------------------------------------------------------


def cmd_dimension(args) -> int:
    budget = dimension.Budget(
        max_lmax=args.budget, clique_exact=max(args.budget, dimension.Budget.clique_exact)
    )
    game, source = _game_from_args(args)
    if args.lower_only:
        lower, witness = dimension.kurz_napel_lower(game, budget.clique_exact)
        fields = [_field("source", source), ("players", game.n, None), _field("lower", lower)]
        _print_report(fields + [_witness_field(witness)], args.json)
        return EXIT_OK
    report = dimension.exact_dimension(game, budget)
    exact = report.exact if report.exact is not None else "not determined (budget)"
    parts = [_rep(p) for p in report.witness_upper.parts] if report.witness_upper else None
    fields = [
        _field("source", source),
        _field("players", report.n),
        _field("maximal_losing", report.num_maximal_losing),
        _field("lower", report.lower),
        _field("upper", report.upper),
        _field("exact", report.exact, exact),
        _witness_field(report.witness_lower, shown=bool(report.witness_lower)),
        ("parts", [value for value, _ in parts] if parts else None, None),
        ("notes", list(report.notes), None),
    ]
    if parts and report.exact is not None:
        fields += [(None, None, f"part {i}: {text}") for i, (_, text) in enumerate(parts, start=1)]
    fields += [(None, None, f"note: {note}") for note in report.notes]
    _print_report(fields, args.json)
    return EXIT_OK if report.exact is not None else EXIT_BUDGET


# -- repro scenarios -----------------------------------------------------------


def _check(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append((name, bool(ok), detail))


def _pairwise_incompatible(game: SimpleGame, witnesses: Sequence[Coalition]) -> bool:
    oracle = dimension.PartOracle(game, "lose")
    return all(not oracle.pair_compatible(a.mask, b.mask) for a, b in combinations(witnesses, 2))


def _scenario_prop5(results) -> None:
    for d in (2, 3):
        game, witnesses = hierarchical.losing_witness_family(d, 2)
        _check(results, f"prop5 d={d} witnesses losing", all(not game.wins(w) for w in witnesses))
        _check(results, f"prop5 d={d} not weighted", lpsep.is_weighted(game) is None)
        cert = certificates.find_certificate(game, 2)
        _check(
            results,
            f"prop5 d={d} length-2 certificate",
            cert is not None and certificates.verify_certificate(game, cert),
        )
        rough = lpsep.is_roughly_weighted(game)
        _check(
            results,
            f"prop5 d={d} roughly weighted",
            rough is not None and lpsep.verify_representation(game, rough),
        )
        pairwise = _pairwise_incompatible(game, witnesses)
        _check(results, f"prop5 d={d} witnesses pairwise incompatible", pairwise)
        lower, _ = dimension.kurz_napel_lower(game)
        _check(results, f"prop5 d={d} clique lower bound >= {d}", lower >= d, f"lower={lower}")


def _scenario_os3(results) -> None:
    k, m = 2, 3
    game, witnesses = hierarchical.losing_witness_family(k, m)
    _check(results, "os3 witness family size k^(m-1)", len(witnesses) == k ** (m - 1))
    _check(results, "os3 witnesses losing", all(not game.wins(w) for w in witnesses))
    _check(results, "os3 witnesses pairwise incompatible", _pairwise_incompatible(game, witnesses))
    lower, _ = dimension.kurz_napel_lower(game)
    _check(results, "os3 clique lower bound >= 4", lower >= 4, f"lower={lower}")
    maxlose = maximal_losing_masks(game)
    shiftmax = desirability.shift_maximal_losing(game)
    shape_count = k ** m * (2 * k - 1) ** (m - 1)
    sizes = desirability.equivalence_classes(game).sizes
    count = sum(math.prod(map(math.comb, sizes, model)) for model in shiftmax)
    _check(
        results,
        "os3 shift-maximal losing count = k^m (2k-1)^(m-1)",
        count == shape_count,
        f"models={shiftmax} count={count} |L_max|={len(maxlose)}",
    )


def _scenario_osconj(results) -> None:
    spec = hierarchical.HierarchicalSpec(hierarchical.Kind.CONJUNCTIVE, (4, 4, 4), (2, 4, 7))
    game = hierarchical.build(spec)
    rep = dimension.conjunctive_intersection_rep(spec)
    _check(
        results,
        "osconj level-cut intersection equals the game",
        dimension.intersect_games(rep.parts, game.n) == game,
    )
    closed = hierarchical.shift_maximal_losing_models(spec)
    _check(
        results,
        "osconj closed-form shift-maximal models",
        closed == ((1, 4, 4), (3, 0, 4), (4, 2, 0)),
        f"got {closed}",
    )
    report = dimension.exact_dimension(game, dimension.Budget(max_lmax=700, clique_exact=700))
    _check(
        results,
        "osconj exact dimension within [2, 3]",
        report.exact is not None and 2 <= report.exact <= 3,
        f"exact={report.exact}",
    )


def _scenario_sec4(results) -> None:
    spec = hierarchical.HierarchicalSpec(hierarchical.Kind.DISJUNCTIVE, (2, 5), (2, 5))
    game = hierarchical.build(spec)
    g1 = lpsep.WeightedRep((4, Fraction(11, 10), 1, 1, 1, 1, 1), 5)
    g2 = lpsep.WeightedRep((Fraction(11, 10), 4, 1, 1, 1, 1, 1), 5)
    _check(
        results,
        "sec4 two-game representation equals the game",
        dimension.intersect_games((g1, g2), 7) == game,
    )
    parts = []
    for chosen in combinations(range(5), 3):
        weights = (3, 3) + tuple(2 if i in chosen else 0 for i in range(5))
        parts.append(lpsep.WeightedRep(weights, 6))
    _check(
        results,
        "sec4 ten-game representation equals the game",
        dimension.intersect_games(tuple(parts), 7) == game,
    )
    report = dimension.exact_dimension(game)
    _check(results, "sec4 exact dimension is 2", report.exact == 2, f"exact={report.exact}")


def _scenario_delta1(results) -> None:
    n, k = (2, 2, 2), (1, 2, 3)
    game = hierarchical.build_tripartite(n, k)
    leaves = []
    for level, threshold in enumerate(k):
        cutoff = sum(n[: level + 1])
        weights = tuple(1 if p < cutoff else 0 for p in range(sum(n)))
        leaves.append(boolean.Leaf(lpsep.WeightedRep(weights, threshold)))
    formula = boolean.Or((leaves[0], boolean.And((leaves[1], leaves[2]))))
    _check(results, "delta1 formula verifies", boolean.verify_boolean_rep(game, formula))
    _check(results, "delta1 formula size 3", boolean.formula_size(formula) == 3)
    dual_formula = boolean.formula_dual(formula)
    _check(
        results,
        "delta1 dual formula denotes the dual game",
        boolean.formula_game(dual_formula) == dual(game),
    )


def _all_monotone_games(n: int) -> list[SimpleGame]:
    tables = [0, 1]
    for bit in range(n):
        tables = [
            f0 | (f1 << (1 << bit))
            for f0 in tables
            for f1 in tables
            if f0 & ~f1 == 0
        ]
    return [SimpleGame._from_table(n, t) for t in tables]


def _scenario_codim(results) -> None:
    budget = dimension.Budget(max_lmax=40)
    for n in (3, 4):
        games = _all_monotone_games(n)
        involution = all(dual(dual(g)) == g for g in games)
        _check(results, f"codim n={n} dual is an involution ({len(games)} games)", involution)
        ok_direct = ok_identity = True
        for g in games:
            via_dual = dimension.codimension(g, budget).exact
            direct = dimension.codimension_direct(g, budget).exact
            if via_dual != direct:
                ok_direct = False
            if dimension.codimension(dual(g), budget).exact != dimension.exact_dimension(g, budget).exact:
                ok_identity = False
        _check(results, f"codim n={n} dual route equals direct union cover", ok_direct)
        _check(results, f"codim n={n} codim(dual) = dim holds", ok_identity)


_SCENARIOS = {
    "prop5": _scenario_prop5,
    "os3": _scenario_os3,
    "osconj": _scenario_osconj,
    "sec4": _scenario_sec4,
    "delta1": _scenario_delta1,
    "codim": _scenario_codim,
}


def cmd_repro(args) -> int:
    if args.name not in _SCENARIOS:
        print(f"unknown scenario {args.name!r}; choose from {', '.join(sorted(_SCENARIOS))}", file=sys.stderr)
        return EXIT_USAGE
    results: list[tuple[str, bool, str]] = []
    _SCENARIOS[args.name](results)
    failed = False
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag} {name}{suffix}")
        failed = failed or not ok
    return EXIT_ASSERTION if failed else EXIT_OK


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplegames",
        description="Simple games: weightedness, certificates, and dimension bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="structure and weightedness report")
    _add_source_options(p_analyze)
    p_analyze.add_argument("--certificates", action="store_true", help="search for a certificate")
    p_analyze.add_argument("--max-len", type=int, default=4, help="certificate length bound")
    p_analyze.add_argument("--json", action="store_true", help="machine-readable output")
    p_analyze.set_defaults(func=cmd_analyze)

    p_dim = sub.add_parser("dimension", help="dimension bounds and exact value")
    _add_source_options(p_dim)
    p_dim.add_argument("--budget", type=int, default=dimension.Budget.max_lmax, help="max |L_max| for the exact search")
    p_dim.add_argument("--lower-only", action="store_true", help="only the clique lower bound")
    p_dim.add_argument("--json", action="store_true", help="machine-readable output")
    p_dim.set_defaults(func=cmd_dimension)

    p_repro = sub.add_parser("repro", help="run a named acceptance scenario")
    p_repro.add_argument("name", help="one of: " + ", ".join(sorted(_SCENARIOS)))
    p_repro.set_defaults(func=cmd_repro)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GameFileError, InvalidGameError, TableSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
