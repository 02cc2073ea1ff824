"""The package's public surface and the hygiene of its modules."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import taxgames as tg

SOURCE = Path(tg.__file__).parent

PUBLIC = (
    "AlphabetMismatchError Arena BuchiAutomaton DocumentError "
    "DynamicTax FALSE Formula Game GridSpec ImplementationVerdict LabelTrace "
    "LassoRun LexValue LtlError LtlSyntaxError Next Not Or "
    "Outcome Profile ResourceLimitError RunStep SearchLimitError "
    "StaticInsufficiencyReport StaticInsufficiencyRow StaticTax "
    "StrategyMachine TRUE TaxgamesError TrueConst UnknownVariableError Until "
    "Var a_nash_implement add_static always and_ apply_static best_response "
    "canonicalize_machine check_eliminable "
    "check_profile check_run check_tax compose_tax dump_yaml e_nash_implement "
    "enumerate_machines enumerate_profiles eval_on_lasso evaluate eventually "
    "find_ne game_to_yaml generate_run grid_spec_diagnostics grid_to_yaml "
    "grid_world_game iff implies initial_deviation is_nash label_trace "
    "lasso_canonical lift_static load_game load_grid load_profile load_tax "
    "load_verdict make_arena make_game max_cost "
    "parse_game parse_grid parse_ltl parse_profile parse_tax parse_verdict "
    "prefers profile_to_yaml response_graph static_insufficiency_check "
    "static_tax subformulas synthesize_eliminating_tax tax_to_yaml taxed_cost "
    "to_buchi to_fraction to_text uniform_levelling_tax validate variables "
    "verdict_to_yaml verify_witness zero_cost_game zero_tax"
).split()


def test_public_surface_is_pinned():
    # a name enters or leaves the package only with this list
    names = sorted(
        name
        for name in dir(tg)
        if not name.startswith("_")
        and not isinstance(getattr(tg, name), types.ModuleType)
    )
    assert names == PUBLIC


def unused_imports(source: str) -> list[str]:
    """Names that the module's imports bind and its code never reads; a
    name read only inside a docstring or comment counts as unused."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_import_only_what_they_use():
    # __init__ imports names to re-export them, so it is left out
    found = {
        path.name: unused
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_unused_import_guard_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Any, Sequence\n"
        "def f(x: Any) -> None:\n"
        "    return j.dumps(x)\n"
    )
    assert unused_imports(source) == ["os", "Sequence"]
