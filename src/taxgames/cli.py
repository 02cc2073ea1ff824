"""Command line front end.

Exit codes: 0 for yes/ok, 2 for input problems, 3 for a negative answer
within the bound, 4 for a resource cap (including unknown-at-bound), 5 for
a witness that fails re-verification.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .arena import Game, grid_world_game
from .documents import (
    dump_yaml,
    game_to_yaml,
    load_game,
    load_grid,
    load_profile,
    load_tax,
    load_verdict,
    verdict_to_yaml,
)
from .equilibrium import evaluate, is_nash
from .errors import ResourceLimitError, TaxgamesError
from .implementation import a_nash_implement, e_nash_implement, verify_witness
from .ltl import parse_ltl
from .strategy import Profile, check_profile, run_at
from .taxation import (
    DynamicTax,
    StaticTax,
    check_tax,
    lift_static,
    tax_sequence,
    tax_state_trace,
    taxed_cost,
)

OK = 0
INPUT_ERROR = 2
NO_WITHIN_BOUND = 3
RESOURCE_CAP = 4
WITNESS_FAILURE = 5


def _rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value)
    return f"{value} (~{float(value):.6g})"


def _prepare_tax(game: Game, path: str | None) -> DynamicTax | None:
    if path is None:
        return None
    tax = load_tax(path)
    if isinstance(tax, StaticTax):
        tax = lift_static(tax, game.arena.n_letters)
    check_tax(game.arena, tax)
    return tax


def _load_profile_for(game: Game, path: str) -> Profile:
    profile = load_profile(path)
    check_profile(game.arena, profile)
    return profile


def _write_out(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text)


def _report_data(game: Game, profile: Profile, tax: DynamicTax | None) -> dict:
    arena = game.arena
    outcome = evaluate(game, profile, tax)
    run = outcome.run
    total = len(run.prefix) + len(run.cycle)
    wrap = len(run.prefix)

    if tax is not None:
        head_states, loop_states = tax_state_trace(run, tax)
        head_rates, loop_rates = tax_sequence(run, tax)
        states = list(head_states) + list(loop_states)
        rates = list(head_rates) + list(loop_rates)
        split = len(head_states)
        length = len(states)
    else:
        split = wrap
        length = total

    def step_data(k: int) -> dict:
        pos = k if k < total else wrap + (k - wrap) % (total - wrap)
        step = run_at(run, pos)
        data: dict[str, Any] = {
            "state": arena.states[step.state],
            "actions": list(arena.letter_names(step.letter)),
            "costs": [str(c) for c in step.costs],
        }
        if tax is not None:
            data["tax_state"] = states[k]
            data["rates"] = [str(r) for r in rates[k]]
        return data

    steps = [step_data(k) for k in range(length)]
    report: dict[str, Any] = {
        "goals": [
            {
                "agent": arena.agents[i],
                "goal": game.goal_texts[i],
                "met": i in outcome.winners,
            }
            for i in range(arena.n_agents)
        ],
        "costs": [
            {
                "agent": arena.agents[i],
                "untaxed": str(taxed_cost(run, None, i)),
            }
            for i in range(arena.n_agents)
        ],
        "run": {"prefix": steps[:split], "cycle": steps[split:]},
    }
    if tax is not None:
        for i, row in enumerate(report["costs"]):
            row["taxed"] = str(outcome.costs[i])
    return report


def _print_report(report: dict) -> None:
    print("run:")
    for part in ("prefix", "cycle"):
        steps = report["run"][part]
        print(f"  {part}:" + (" (empty)" if not steps else ""))
        for step in steps:
            line = (
                f"    {step['state']}  ({', '.join(step['actions'])})"
                f"  costs {', '.join(step['costs'])}"
            )
            if "tax_state" in step:
                line += (
                    f"  tax state {step['tax_state']}"
                    f" rates {', '.join(step['rates'])}"
                )
            print(line)
    print("goals:")
    for item in report["goals"]:
        verdict = "met" if item["met"] else "not met"
        print(f"  {item['agent']}: {item['goal']}  {verdict}")
    print("costs:")
    for item in report["costs"]:
        line = f"  {item['agent']}: untaxed {_rational(Fraction(item['untaxed']))}"
        if "taxed" in item:
            line += f", taxed {_rational(Fraction(item['taxed']))}"
        print(line)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    profile = _load_profile_for(game, args.profile)
    tax = _prepare_tax(game, args.tax)
    report = _report_data(game, profile, tax)
    _print_report(report)
    _write_out(args.out, dump_yaml({"report": report}))
    return OK


def _cmd_check(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    tax = _prepare_tax(game, args.tax)
    if args.problem == "ne":
        if args.profile is None:
            raise TaxgamesError("check ne needs --profile")
        profile = _load_profile_for(game, args.profile)
        if is_nash(game, profile, tax):
            print("equilibrium: yes")
            return OK
        print("equilibrium: no")
        return NO_WITHIN_BOUND

    if args.objective is None:
        raise TaxgamesError(f"check {args.problem} needs --objective")
    if args.bound < 1:
        raise TaxgamesError("--bound must be at least 1")
    objective = parse_ltl(args.objective, game.arena.vocabulary)
    # quote the objective as the user wrote it rather than in core form
    if args.problem == "enash":
        verdict = e_nash_implement(
            game,
            objective,
            args.bound,
            cap=args.cap_profiles,
            objective_text=args.objective,
        )
    else:
        verdict = a_nash_implement(
            game,
            objective,
            args.bound,
            cap=args.cap_profiles,
            state_cap=args.cap_states,
            objective_text=args.objective,
        )
    print(f"problem: {verdict.problem}")
    print(f"answer: {verdict.answer}")
    print(f"objective: {verdict.objective_text}")
    print(f"bound: {verdict.bound}")
    if verdict.witness_tax is not None:
        print(f"witness tax machine states: {verdict.witness_tax.n_states}")
    if verdict.witness_profile is not None:
        sizes = ", ".join(
            str(m.n_states) for m in verdict.witness_profile.machines
        )
        print(f"witness profile machine sizes: {sizes}")
    for line in verdict.diagnostics:
        print(f"note: {line}")
    _write_out(args.out, verdict_to_yaml(verdict))
    if verdict.answer == "yes":
        return OK
    if verdict.answer == "unknown-at-bound":
        return RESOURCE_CAP
    return NO_WITHIN_BOUND


def _cmd_gridworld(args: argparse.Namespace) -> int:
    spec = load_grid(args.grid)
    game = grid_world_game(spec)
    text = game_to_yaml(game)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_out(args.out, text)
        print(
            f"wrote {args.out}: {game.arena.n_states} states, "
            f"{game.arena.n_agents} robots, {game.arena.n_letters} joint actions"
        )
    return OK


def _cmd_verify(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    verdict = load_verdict(args.verdict)
    if (
        verdict.answer != "yes"
        or verdict.witness_tax is None
        or verdict.witness_profile is None
    ):
        raise TaxgamesError("verdict carries no witness to verify")
    objective = parse_ltl(verdict.objective_text, game.arena.vocabulary)
    check_profile(game.arena, verdict.witness_profile)
    check_tax(game.arena, verdict.witness_tax)
    failures = verify_witness(
        game,
        verdict.problem,
        objective,
        verdict.bound,
        verdict.witness_tax,
        verdict.witness_profile,
        cap=args.cap_profiles,
    )
    if failures:
        for line in failures:
            print(f"failure: {line}", file=sys.stderr)
        return WITNESS_FAILURE
    print("witness verified")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxgames",
        description=(
            "Evaluate strategy profiles on concurrent games with "
            "limit-average costs and synthesize taxation machines that "
            "steer equilibria toward a temporal objective."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser(
        "evaluate", help="run one profile and report goals, costs, and taxes"
    )
    evaluate.add_argument("--game", required=True)
    evaluate.add_argument("--profile", required=True)
    evaluate.add_argument("--tax")
    evaluate.add_argument("--out")
    evaluate.set_defaults(handler=_cmd_evaluate)

    check = sub.add_parser(
        "check", help="decide equilibrium and implementability questions"
    )
    check.add_argument(
        "problem", choices=["ne", "enash", "anash"],
        help="what to decide for the given game",
    )
    check.add_argument("--game", required=True)
    check.add_argument("--profile")
    check.add_argument("--tax")
    check.add_argument("--objective")
    check.add_argument("--bound", type=int, default=1)
    check.add_argument("--cap-profiles", type=int, default=10**7)
    check.add_argument("--cap-states", type=int, default=4096)
    check.add_argument("--out")
    check.set_defaults(handler=_cmd_check)

    gridworld = sub.add_parser(
        "gridworld", help="expand a grid document into a full game document"
    )
    gridworld.add_argument("--grid", required=True)
    gridworld.add_argument("--out")
    gridworld.set_defaults(handler=_cmd_gridworld)

    verify = sub.add_parser(
        "verify", help="re-check the witness stored in a verdict document"
    )
    verify.add_argument("--game", required=True)
    verify.add_argument("--verdict", required=True)
    verify.add_argument("--cap-profiles", type=int, default=10**7)
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return RESOURCE_CAP
    except TaxgamesError as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        print(
            "error: input nested too deeply for the recursion limit",
            file=sys.stderr,
        )
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
