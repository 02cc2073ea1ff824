"""YAML documents for games, profiles, taxes, grids, and verdicts.

Every document is a mapping with a single kind key (game, profile, tax,
grid, verdict).  Costs, tax rates and action costs are exact rationals,
written as integers or as strings holding an integer, "p/q" or a plain
decimal ("-2.5"); floats and exponent notation ("1e5") are rejected.
Transition and rate entries may use "*" wildcards, which expand on load; a
concrete entry beats a wildcard on the cells they share, entries of equal
specificity must agree, and dumps are always fully explicit, so
load(dump(x)) reproduces dump(x) byte for byte.  A tax or verdict loaded
against an arena must declare its shape as the arena's, checked before any
wildcard expands.  Strategy machines are canonicalized on load.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

import yaml

from .arena import (
    Arena,
    Game,
    GridSpec,
    make_arena,
    make_game,
    to_fraction,
)
from .errors import DocumentError
from .implementation import ImplementationVerdict
from .strategy import Profile, StrategyMachine, canonicalize_machine
from .taxation import DynamicTax, StaticTax, lift_static, static_tax

_ANSWERS = ("yes", "no-within-bound", "unknown-at-bound")

# libyaml's classes when PyYAML was built with it; both pairs write equal bytes
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# composers recurse once per nesting level (libyaml's overflows the C stack)
_MAX_NESTING = 100
_NESTING = {
    yaml.SequenceStartEvent: 1,
    yaml.MappingStartEvent: 1,
    yaml.SequenceEndEvent: -1,
    yaml.MappingEndEvent: -1,
}


def dump_yaml(data: dict) -> str:
    return yaml.dump(data, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def _load_yaml(text: str) -> Any:
    try:
        # both parsers are state machines: counting their events cannot overflow
        depth = 0
        for event in yaml.parse(text, Loader=_LOADER):
            depth += _NESTING.get(type(event), 0)
            if depth > _MAX_NESTING:
                raise DocumentError("invalid yaml: nested too deeply to load")
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as err:
        raise DocumentError(f"invalid yaml: {err}") from err


def _body(text: str, kind: str) -> dict:
    data = _load_yaml(text)
    if not isinstance(data, dict) or set(data) != {kind}:
        raise DocumentError(f"expected a mapping with the single key {kind!r}")
    body = data[kind]
    if not isinstance(body, dict):
        raise DocumentError(f"{kind} body must be a mapping")
    return body


def _need(body: dict, key: str, kind: str) -> Any:
    if key not in body:
        raise DocumentError(f"{kind} document is missing {key!r}")
    return body[key]


def _expect_keys(body: dict, allowed: Iterable[str], kind: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise DocumentError(f"unknown {kind} field(s): {', '.join(unknown)}")


def _str_list(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{where} must be a list of strings")
    return value


def _fraction(value: Any, where: str) -> Fraction:
    try:
        return to_fraction(value)
    except (TypeError, ValueError) as err:
        raise DocumentError(f"{where}: {err}") from err


def _fraction_vector(value: Any, arity: int, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be a list of rationals")
    vector = tuple(_fraction(x, f"{where}[{i}]") for i, x in enumerate(value))
    if len(vector) != arity:
        raise DocumentError(f"{where} has arity {len(vector)}, want {arity}")
    return vector


def _frac_out(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def _int_in_range(value: Any, bound: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{where} must be an integer")
    if not 0 <= value < bound:
        raise DocumentError(f"{where} is {value}, want 0..{bound - 1}")
    return value


# ---------------------------------------------------------------------------
# Wildcard tables

# A cell owner is (specificity, payload, entry index); higher specificity
# wins, ties must carry an equal payload.


def _claim(
    cells: dict,
    key: tuple,
    specificity: int,
    payload: Any,
    entry: int,
    conflicts: list[str],
) -> None:
    current = cells.get(key)
    if current is None or specificity > current[0]:
        cells[key] = (specificity, payload, entry)
    elif specificity == current[0] and payload != current[1]:
        conflicts.append(
            f"entries {current[2]} and {entry} disagree on cell {key}"
        )


# ---------------------------------------------------------------------------
# Games


def parse_game(text: str) -> Game:
    body = _body(text, "game")
    _expect_keys(
        body,
        (
            "states",
            "initial",
            "vocabulary",
            "labels",
            "agents",
            "transitions",
            "default_cost",
            "goals",
        ),
        "game",
    )
    states = _str_list(_need(body, "states", "game"), "game.states")
    initial = _need(body, "initial", "game")
    if not isinstance(initial, str):
        raise DocumentError("game.initial must be a state name")
    agents_raw = _need(body, "agents", "game")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise DocumentError("game.agents must be a non-empty list")
    agent_names: list[str] = []
    actions: dict[str, list[str]] = {}
    for i, item in enumerate(agents_raw):
        if not isinstance(item, dict) or set(item) != {"name", "actions"}:
            raise DocumentError(
                f"game.agents[{i}] must map exactly 'name' and 'actions'"
            )
        name = item["name"]
        if not isinstance(name, str):
            raise DocumentError(f"game.agents[{i}].name must be a string")
        agent_names.append(name)
        actions[name] = _str_list(item["actions"], f"game.agents[{i}].actions")

    labels_raw = body.get("labels", {})
    if not isinstance(labels_raw, dict):
        raise DocumentError("game.labels must be a mapping")
    labels = {
        state: _str_list(props, f"game.labels[{state}]")
        for state, props in labels_raw.items()
    }
    if "vocabulary" in body:
        vocabulary = _str_list(body["vocabulary"], "game.vocabulary")
    else:
        vocabulary = sorted({p for props in labels.values() for p in props})

    goals = _str_list(_need(body, "goals", "game"), "game.goals")
    n_agents = len(agent_names)
    default_cost = None
    if "default_cost" in body:
        default_cost = _fraction_vector(
            body["default_cost"], n_agents, "game.default_cost"
        )

    entries_raw = _need(body, "transitions", "game")
    if not isinstance(entries_raw, list):
        raise DocumentError("game.transitions must be a list")
    cells: dict[tuple[str, tuple[str, ...]], tuple] = {}
    conflicts: list[str] = []
    for i, entry in enumerate(entries_raw):
        where = f"game.transitions[{i}]"
        if not isinstance(entry, dict) or not {"from", "when", "to"} <= set(entry):
            raise DocumentError(f"{where} must map 'from', 'when', 'to'")
        extra = set(entry) - {"from", "when", "to", "cost"}
        if extra:
            raise DocumentError(f"{where} has unknown keys {sorted(extra)}")
        source = entry["from"]
        target = entry["to"]
        when = entry["when"]
        if not isinstance(source, str) or not isinstance(target, str):
            raise DocumentError(f"{where} 'from' and 'to' must be state names")
        if target == "*":
            raise DocumentError(f"{where} 'to' cannot be a wildcard")
        if not isinstance(when, list) or len(when) != n_agents:
            raise DocumentError(f"{where}.when needs one action per agent")
        cost = None
        if "cost" in entry:
            cost = _fraction_vector(entry["cost"], n_agents, f"{where}.cost")

        source_states = states if source == "*" else [source]
        if source != "*" and source not in states:
            raise DocumentError(f"{where} names unknown state {source!r}")
        if target not in states:
            raise DocumentError(f"{where} names unknown state {target!r}")
        per_agent: list[list[str]] = []
        for k, act in enumerate(when):
            options = actions[agent_names[k]]
            if act == "*":
                per_agent.append(list(options))
            elif isinstance(act, str) and act in options:
                per_agent.append([act])
            else:
                raise DocumentError(
                    f"{where}.when[{k}] names unknown action {act!r}"
                )
        specificity = (source != "*") + sum(a != "*" for a in when)
        combos: list[tuple[str, ...]] = [()]
        for options in per_agent:
            combos = [c + (a,) for c in combos for a in options]
        for state in source_states:
            for combo in combos:
                _claim(
                    cells,
                    (state, combo),
                    specificity,
                    (target, cost),
                    i,
                    conflicts,
                )
    if conflicts:
        raise DocumentError("conflicting transition entries", conflicts)

    transitions = {key: payload[1][0] for key, payload in cells.items()}
    costs = {
        key: payload[1][1]
        for key, payload in cells.items()
        if payload[1][1] is not None
    }
    try:
        arena = make_arena(
            states=states,
            vocabulary=vocabulary,
            agents=agent_names,
            actions=actions,
            labels=labels,
            transitions=transitions,
            costs=costs,
            initial=initial,
            default_cost=default_cost,
        )
        return make_game(arena, goals)
    except (ValueError, KeyError) as err:
        raise DocumentError(f"game: {err}") from err


def game_to_yaml(game: Game) -> str:
    arena = game.arena
    transitions = []
    for s, state in enumerate(arena.states):
        for letter in arena.letters():
            target = arena.transition[s][letter]
            cost = arena.cost[s][letter]
            transitions.append(
                {
                    "from": state,
                    "when": list(arena.letter_names(letter)),
                    "to": arena.states[target],
                    "cost": [_frac_out(x) for x in cost],
                }
            )
    data = {
        "game": {
            "states": list(arena.states),
            "initial": arena.states[arena.initial],
            "vocabulary": list(arena.vocabulary),
            "labels": {
                state: sorted(arena.labels[s])
                for s, state in enumerate(arena.states)
                if arena.labels[s]
            },
            "agents": [
                {"name": name, "actions": list(arena.actions[i])}
                for i, name in enumerate(arena.agents)
            ],
            "transitions": transitions,
            "goals": list(game.goal_texts),
        }
    }
    return dump_yaml(data)


# ---------------------------------------------------------------------------
# Profiles


def _parse_machine(item: Any, where: str) -> StrategyMachine:
    if not isinstance(item, dict) or set(item) != {"outputs", "transitions"}:
        raise DocumentError(f"{where} must map 'outputs' and 'transitions'")
    outputs = item["outputs"]
    rows = item["transitions"]
    if not isinstance(outputs, list) or not outputs:
        raise DocumentError(f"{where}.outputs must be a non-empty list")
    if not isinstance(rows, list) or len(rows) != len(outputs):
        raise DocumentError(f"{where}.transitions needs one row per state")
    n_states = len(outputs)
    width = None
    table = []
    for q, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise DocumentError(f"{where}.transitions[{q}] must be a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DocumentError(f"{where}.transitions[{q}] has ragged width")
        table.append(
            tuple(
                _int_in_range(x, n_states, f"{where}.transitions[{q}][{j}]")
                for j, x in enumerate(row)
            )
        )
    outs = []
    for q, x in enumerate(outputs):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise DocumentError(f"{where}.outputs[{q}] must be a non-negative int")
        outs.append(x)
    return canonicalize_machine(
        StrategyMachine(outputs=tuple(outs), transitions=tuple(table))
    )


def parse_profile(text: str) -> Profile:
    return _parse_profile_body(_body(text, "profile"), "profile")


def _parse_profile_body(body: dict, where: str) -> Profile:
    _expect_keys(body, ("machines",), where)
    machines_raw = _need(body, "machines", where)
    if not isinstance(machines_raw, list) or not machines_raw:
        raise DocumentError(f"{where}.machines must be a non-empty list")
    machines = tuple(
        _parse_machine(item, f"{where}.machines[{i}]")
        for i, item in enumerate(machines_raw)
    )
    widths = {len(m.transitions[0]) for m in machines}
    if len(widths) != 1:
        raise DocumentError(
            f"{where} machines disagree on the letter alphabet size"
        )
    return Profile(machines=machines)


def _profile_body(profile: Profile) -> dict:
    return {
        "machines": [
            {
                "outputs": list(m.outputs),
                "transitions": [list(row) for row in m.transitions],
            }
            for m in profile.machines
        ]
    }


def profile_to_yaml(profile: Profile) -> str:
    return dump_yaml({"profile": _profile_body(profile)})


# ---------------------------------------------------------------------------
# Taxes


def _parse_rate_entries(
    entries: Any,
    n_agents: int,
    arena_states: int | None,
    letters: int | None,
    where: str,
) -> StaticTax:
    if entries is None:
        return static_tax(n_agents, {})
    if not isinstance(entries, list):
        raise DocumentError(f"{where} must be a list")
    cells: dict[tuple[int, int], tuple] = {}
    conflicts: list[str] = []
    for i, entry in enumerate(entries):
        here = f"{where}[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"state", "letter", "rate"}:
            raise DocumentError(f"{here} must map 'state', 'letter', 'rate'")
        rate = _fraction_vector(entry["rate"], n_agents, f"{here}.rate")
        state = entry["state"]
        letter = entry["letter"]
        if state == "*":
            if arena_states is None:
                raise DocumentError(
                    f"{here} uses a state wildcard without 'arena_states'"
                )
            state_range: Iterable[int] = range(arena_states)
        else:
            bound = arena_states if arena_states is not None else 1 << 30
            state_range = [_int_in_range(state, bound, f"{here}.state")]
        if letter == "*":
            if letters is None:
                raise DocumentError(
                    f"{here} uses a letter wildcard without 'letters'"
                )
            letter_range: Iterable[int] = range(letters)
        else:
            bound = letters if letters is not None else 1 << 30
            letter_range = [_int_in_range(letter, bound, f"{here}.letter")]
        specificity = (state != "*") + (letter != "*")
        for s in state_range:
            for a in letter_range:
                _claim(cells, (s, a), specificity, rate, i, conflicts)
    if conflicts:
        raise DocumentError("conflicting rate entries", conflicts)
    try:
        return static_tax(
            n_agents, {key: payload[1] for key, payload in cells.items()}
        )
    except ValueError as err:
        raise DocumentError(f"{where}: {err}") from err


def parse_tax(text: str, arena: Arena | None = None) -> StaticTax | DynamicTax:
    """The tax of a document; when an arena is given, a declared
    'arena_states' or 'letters' must match it before any wildcard expands."""
    return _parse_tax_body(_body(text, "tax"), "tax", arena)


def _parse_tax_body(
    body: dict, where: str, arena: Arena | None
) -> StaticTax | DynamicTax:
    _expect_keys(
        body, ("agents", "arena_states", "letters", "rates", "machine"), where
    )
    n_agents = body.get("agents")
    if not isinstance(n_agents, int) or isinstance(n_agents, bool) or n_agents < 1:
        raise DocumentError(f"{where}.agents must be a positive integer")
    arena_states = body.get("arena_states")
    letters = body.get("letters")
    for key, value in (("arena_states", arena_states), ("letters", letters)):
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise DocumentError(f"{where}.{key} must be a positive integer")
    if arena is not None:
        for key, value, want in (
            ("arena_states", arena_states, arena.n_states),
            ("letters", letters, arena.n_letters),
        ):
            if value is not None and value != want:
                raise DocumentError(f"{where}.{key} is {value}, the game has {want}")
    if ("rates" in body) == ("machine" in body):
        raise DocumentError(f"{where} needs exactly one of 'rates' or 'machine'")
    if "rates" in body:
        return _parse_rate_entries(
            body["rates"], n_agents, arena_states, letters, f"{where}.rates"
        )
    machine = body["machine"]
    if not isinstance(machine, list) or not machine:
        raise DocumentError(f"{where}.machine must be a non-empty list")
    outputs = []
    rows = []
    width = letters
    for q, item in enumerate(machine):
        here = f"{where}.machine[{q}]"
        if not isinstance(item, dict) or set(item) != {"rates", "next"}:
            raise DocumentError(f"{here} must map 'rates' and 'next'")
        outputs.append(
            _parse_rate_entries(
                item["rates"], n_agents, arena_states, letters, f"{here}.rates"
            )
        )
        nxt = item["next"]
        if not isinstance(nxt, list) or not nxt:
            raise DocumentError(f"{here}.next must be a non-empty list")
        if width is None:
            width = len(nxt)
        elif len(nxt) != width:
            raise DocumentError(f"{here}.next has width {len(nxt)}, want {width}")
        rows.append(
            tuple(
                _int_in_range(x, len(machine), f"{here}.next[{j}]")
                for j, x in enumerate(nxt)
            )
        )
    return DynamicTax(outputs=tuple(outputs), transitions=tuple(rows))


def _rate_entries_out(tax: StaticTax) -> list[dict]:
    return [
        {
            "state": state,
            "letter": letter,
            "rate": [_frac_out(x) for x in vector],
        }
        for state, letter, vector in tax.entries
    ]


def _tax_body(tax: StaticTax | DynamicTax) -> dict:
    if isinstance(tax, StaticTax):
        return {"agents": tax.n_agents, "rates": _rate_entries_out(tax)}
    return {
        "agents": tax.n_agents,
        "machine": [
            {
                "rates": _rate_entries_out(tax.outputs[q]),
                "next": list(tax.transitions[q]),
            }
            for q in range(tax.n_states)
        ],
    }


def tax_to_yaml(tax: StaticTax | DynamicTax) -> str:
    return dump_yaml({"tax": _tax_body(tax)})


# ---------------------------------------------------------------------------
# Grids


def parse_grid(text: str) -> GridSpec:
    body = _body(text, "grid")
    _expect_keys(
        body,
        ("width", "height", "robots", "apples", "basket", "action_costs"),
        "grid",
    )

    def cell(value: Any, where: str) -> tuple[int, int]:
        if (
            not isinstance(value, list)
            or len(value) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
        ):
            raise DocumentError(f"{where} must be an [x, y] pair of integers")
        return (value[0], value[1])

    width = _need(body, "width", "grid")
    height = _need(body, "height", "grid")
    for key, value in (("width", width), ("height", height)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError(f"grid.{key} must be an integer")
    robots_raw = _need(body, "robots", "grid")
    if not isinstance(robots_raw, list):
        raise DocumentError("grid.robots must be a list")
    robots = tuple(
        cell(value, f"grid.robots[{i}]") for i, value in enumerate(robots_raw)
    )
    apples_raw = body.get("apples", [])
    if not isinstance(apples_raw, list):
        raise DocumentError("grid.apples must be a list")
    apples = tuple(
        cell(value, f"grid.apples[{i}]") for i, value in enumerate(apples_raw)
    )
    basket = None
    if body.get("basket") is not None:
        basket = cell(body["basket"], "grid.basket")
    costs_raw = body.get("action_costs", {})
    if not isinstance(costs_raw, dict):
        raise DocumentError("grid.action_costs must be a mapping")
    action_costs = tuple(
        (name, _fraction(value, f"grid.action_costs[{name}]"))
        for name, value in costs_raw.items()
    )
    try:
        return GridSpec(width, height, robots, apples, basket, action_costs)
    except ValueError as err:
        raise DocumentError(f"grid: {err}") from err


def grid_to_yaml(spec: GridSpec) -> str:
    body: dict[str, Any] = {
        "width": spec.width,
        "height": spec.height,
        "robots": [list(r) for r in spec.robots],
    }
    if spec.apples:
        body["apples"] = [list(a) for a in spec.apples]
    if spec.basket is not None:
        body["basket"] = list(spec.basket)
    if spec.action_costs:
        body["action_costs"] = {
            name: _frac_out(value) for name, value in spec.action_costs
        }
    return dump_yaml({"grid": body})


# ---------------------------------------------------------------------------
# Verdicts


def parse_verdict(text: str, arena: Arena | None = None) -> ImplementationVerdict:
    """The verdict of a document; the arena, when given, is checked against
    the witness tax as parse_tax does."""
    body = _body(text, "verdict")
    _expect_keys(
        body,
        (
            "problem",
            "answer",
            "bound",
            "objective",
            "diagnostics",
            "witness_tax",
            "witness_profile",
        ),
        "verdict",
    )
    problem = _need(body, "problem", "verdict")
    answer = _need(body, "answer", "verdict")
    bound = _need(body, "bound", "verdict")
    objective = _need(body, "objective", "verdict")
    if problem not in ("enash", "anash"):
        raise DocumentError("verdict.problem must be 'enash' or 'anash'")
    if answer not in _ANSWERS:
        raise DocumentError(
            "verdict.answer must be one of " + ", ".join(_ANSWERS)
        )
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise DocumentError("verdict.bound must be a positive integer")
    if not isinstance(objective, str):
        raise DocumentError("verdict.objective must be a string")
    diagnostics = body.get("diagnostics", [])
    diagnostics = tuple(_str_list(diagnostics, "verdict.diagnostics"))
    tax = None
    if body.get("witness_tax") is not None:
        raw = body["witness_tax"]
        if not isinstance(raw, dict):
            raise DocumentError("verdict.witness_tax must be a mapping")
        parsed = _parse_tax_body(raw, "verdict.witness_tax", arena)
        if isinstance(parsed, StaticTax):
            letters = raw.get("letters")
            if not isinstance(letters, int) or isinstance(letters, bool):
                raise DocumentError(
                    "a static verdict.witness_tax needs 'letters' to lift"
                )
            parsed = lift_static(parsed, letters)
        tax = parsed
    profile = None
    if body.get("witness_profile") is not None:
        raw = body["witness_profile"]
        if not isinstance(raw, dict) or "machines" not in raw:
            raise DocumentError("verdict.witness_profile must map 'machines'")
        profile = _parse_profile_body(raw, "verdict.witness_profile")
    return ImplementationVerdict(
        problem=problem,
        answer=answer,
        bound=bound,
        objective_text=objective,
        witness_tax=tax,
        witness_profile=profile,
        diagnostics=diagnostics,
    )


def verdict_to_yaml(verdict: ImplementationVerdict) -> str:
    body: dict[str, Any] = {
        "problem": verdict.problem,
        "answer": verdict.answer,
        "bound": verdict.bound,
        "objective": verdict.objective_text,
    }
    if verdict.diagnostics:
        body["diagnostics"] = list(verdict.diagnostics)
    if verdict.witness_tax is not None:
        body["witness_tax"] = _tax_body(verdict.witness_tax)
    if verdict.witness_profile is not None:
        body["witness_profile"] = _profile_body(verdict.witness_profile)
    return dump_yaml({"verdict": body})


# ---------------------------------------------------------------------------
# File wrappers


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err


def load_game(path: str | Path) -> Game:
    return parse_game(_read(path))


def load_profile(path: str | Path) -> Profile:
    return parse_profile(_read(path))


def load_tax(path: str | Path, arena: Arena | None = None) -> StaticTax | DynamicTax:
    return parse_tax(_read(path), arena)


def load_grid(path: str | Path) -> GridSpec:
    return parse_grid(_read(path))


def load_verdict(
    path: str | Path, arena: Arena | None = None
) -> ImplementationVerdict:
    return parse_verdict(_read(path), arena)
