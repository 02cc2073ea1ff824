"""Incentive design for concurrent games with limit-average costs.

Agents follow finite strategy machines, outcomes are lasso runs, and
preferences put temporal goals above costs.  Taxation machines observe the
played action profiles and add per-step surcharges; the implementation
drivers decide whether some tax makes a temporal objective hold in at least
one, or in every, bounded equilibrium.
"""

from .arena import (
    Arena,
    Game,
    GridSpec,
    grid_world_game,
    make_arena,
    make_game,
    max_cost,
    to_fraction,
    zero_cost_game,
)
from .documents import (
    dump_yaml,
    game_to_yaml,
    grid_to_yaml,
    load_game,
    load_grid,
    load_profile,
    load_tax,
    load_verdict,
    parse_game,
    parse_grid,
    parse_profile,
    parse_tax,
    parse_verdict,
    profile_to_yaml,
    tax_to_yaml,
    verdict_to_yaml,
)
from .equilibrium import (
    LexValue,
    Outcome,
    best_response,
    evaluate,
    find_ne,
    is_nash,
    prefers,
    response_graph,
    taxed_cost,
)
from .errors import (
    AlphabetMismatchError,
    DocumentError,
    ResourceLimitError,
    SearchLimitError,
    TaxgamesError,
)
from .implementation import (
    ImplementationVerdict,
    StaticInsufficiencyReport,
    StaticInsufficiencyRow,
    a_nash_implement,
    check_eliminable,
    e_nash_implement,
    initial_deviation,
    static_insufficiency_check,
    synthesize_eliminating_tax,
    verify_witness,
)
from .ltl import (
    FALSE,
    TRUE,
    BuchiAutomaton,
    Formula,
    LabelTrace,
    LtlError,
    LtlSyntaxError,
    Next,
    Not,
    Or,
    TrueConst,
    UnknownVariableError,
    Until,
    Var,
    always,
    and_,
    eval_on_lasso,
    eventually,
    iff,
    implies,
    parse_ltl,
    subformulas,
    to_buchi,
    to_text,
    variables,
)
from .strategy import (
    LassoRun,
    Profile,
    RunStep,
    StrategyMachine,
    canonicalize_machine,
    check_profile,
    check_run,
    enumerate_machines,
    enumerate_profiles,
    generate_run,
    label_trace,
    lasso_canonical,
)
from .taxation import (
    DynamicTax,
    StaticTax,
    add_static,
    apply_static,
    check_tax,
    compose_tax,
    lift_static,
    static_tax,
    uniform_levelling_tax,
    zero_tax,
)

__version__ = "0.1.0"
