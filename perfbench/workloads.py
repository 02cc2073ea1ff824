"""The two workloads and the checks on their answers.

sweep  calls the library in this process: e_nash_implement, a_nash_implement
       and find_ne under the anash witness tax on seeded random games, the
       junction and orchard fixture requests, and
       static_insufficiency_check on the junction fixture.
cli    runs one `launch.py` process per command on seeded game, profile and
       tax documents and on the junction fixtures.

Every workload walks a seeded list of requests in passes: cli repeats the
same list, sweep draws new isomorphic copies of its games for each pass.
Answers are checked after each request, outside its timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

import yaml

import inputs
import oracle

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

LIMIT_S = 60.0  # per-request time limit; a request over it is undecided
SWEEP_GAMES = 10  # corpus games per sweep pass
STATIC_EVERY = 5  # one static-insufficiency request after every 5 games
STATIC_TAXES = 4  # static taxes per static-insufficiency request
CLI_GAMES = 3  # corpus games per cli pass

try:
    _Loader = yaml.CSafeLoader
except AttributeError:  # PyYAML without libyaml
    _Loader = yaml.SafeLoader


def load_yaml(data: bytes | str):
    return yaml.load(data, Loader=_Loader)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class Timeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise Timeout in this thread once seconds of wall time have passed."""

    def expire(signum, frame):
        raise Timeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Request:
    key: str
    kind: str
    item: object = None


@dataclass
class Outcome:
    key: str
    seconds: float
    decided: bool
    answer: str
    problems: list[str] = field(default_factory=list)
    start_ms: float = 0.0  # traced commands: process start
    outside_ms: float = 0.0  # traced commands: time outside cli.main


class Stream:
    """Walks a workload's requests pass after pass; `source(k)` gives the
    requests of pass k.  Follow-up requests (verify after a yes) go right
    after the request that asked for them."""

    def __init__(self, source):
        self.source = source
        self.requests = source(0)
        self.position = 0
        self.passes = 0
        self.follow_ups: deque = deque()
        self.served = 0
        self.first_pass = None  # requests in the first pass, once known
        self.state: dict = {}
        self.answers: dict[str, str] = {}

    def next(self):
        if self.position == len(self.requests) and not self.follow_ups:
            self.passes += 1
            self.position = 0
            self.requests = self.source(self.passes)
            # a pass's verdicts serve only its own requests; kept, they
            # would make peak memory grow with the number of passes
            self.state.clear()
        self.served += 1
        if self.follow_ups:
            return self.follow_ups.popleft()
        self.position += 1
        return self.requests[self.position - 1]

    def pass_done(self) -> bool:
        done = self.position == len(self.requests) and not self.follow_ups
        if done and self.first_pass is None:
            self.first_pass = self.served
        return done

    def repeat_problem(self, outcome: Outcome) -> str | None:
        first = self.answers.setdefault(outcome.key, outcome.answer)
        if first != outcome.answer:
            return "answer differs from an earlier run of the same request"
        return None


def _expected_problems(key: str, answer: str, tax_states: int | None) -> list[str]:
    expected = EXPECTED.get(key)
    if expected is None:
        return []
    problems = []
    if answer != expected["answer"]:
        problems.append(f"answer {answer}, expected {expected['answer']}")
    want = expected.get("witness_tax_states")
    if want is not None and tax_states != want:
        problems.append(f"witness tax has {tax_states} states, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# sweep


# (fixture, problem, objective) of the sweep's fixture requests; their known
# answers are in expected.json.
FIXTURE_REQUESTS = (
    ("junction", "anash", "G (p <-> q)"),
    ("junction", "enash", "F G q"),
    ("orchard", "anash", "G !c"),
    ("orchard", "enash", "F (b_0 | b_1)"),
)


class Sweep:
    """The library in-process, no documents on the request path.  Pass k
    presents the corpus games as isomorphic copies drawn from (seed, k).
    The orchard game is built from the shipped grid in set-up."""

    name = "sweep"

    def __init__(self, tg, seed: int):
        self.tg = tg
        self.seed = seed
        self.tracer = None
        self.corpus = inputs.corpus(SWEEP_GAMES)
        fixtures = Path(tg.__file__).parent / "fixtures"
        self.junction = tg.load_game(fixtures / "junction.game")
        self.junction_arena = oracle.document_arena(
            load_yaml((fixtures / "junction.game").read_text())
        )
        orchard = tg.grid_world_game(tg.load_grid(fixtures / "orchard.grid"))
        # (game, oracle arena) of the fixtures the fixture requests name
        self.fixtures = {
            "junction": (self.junction, self.junction_arena),
            "orchard": (orchard, oracle.program_arena(orchard.arena)),
        }
        self.junction_tax = tg.load_tax(fixtures / "junction.tax")
        self.profiles = {
            name: tg.load_profile(fixtures / f"profile_{name}.profile")
            for name in ("ac", "ad", "bc", "bd")
        }
        self.games: dict[tuple[int, int], tuple] = {}
        self.statics: dict[tuple[int, int], list] = {}
        self.first = self._pass(0)

    def stream(self) -> Stream:
        return Stream(lambda k: self.first if k == 0 else self._pass(k))

    def _pass(self, k: int) -> list[Request]:
        """Build the games of pass k and return its requests.  Games of
        passes after the first are dropped when the next pass starts."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = False
        try:
            tg = self.tg
            rng = Random(f"{self.seed}/{k}")
            for old in (self.games, self.statics):
                for key in [key for key in old if key[0] != 0]:
                    del old[key]
            order = list(range(len(self.corpus)))
            rng.shuffle(order)
            requests = [
                Request(f"{fixture} {kind} {text}", kind, (fixture, text))
                for fixture, kind, text in FIXTURE_REQUESTS
            ] + [
                Request(f"junction ne profile_{name}", "ne", name)
                for name in self.profiles
            ]
            for position, i in enumerate(order):
                spec = inputs.present(self.corpus[i], rng)
                objective = tg.parse_ltl(inputs.render(spec["objective"]),
                                         inputs.VOCABULARY)
                self.games[(k, i)] = (
                    inputs.build_game(tg, spec), objective, spec["objective"],
                    oracle.spec_arena(spec),
                )
                for kind in ("enash", "anash", "find_ne"):
                    requests.append(Request(f"pass{k} game{i} {kind}", kind, (k, i)))
                if (position + 1) % STATIC_EVERY == 0:
                    slot = (k, position // STATIC_EVERY)
                    self.statics[slot] = [
                        tg.static_tax(2, {
                            (s, a): (rng.randint(0, 3), rng.randint(0, 3))
                            for s in range(4) for a in range(4)
                            if rng.random() < 0.5
                        })
                        for _ in range(STATIC_TAXES)
                    ]
                    requests.append(Request(f"pass{k} static{slot[1]}", "static", slot))
            return requests
        finally:
            if tracer is not None:
                tracer.enabled = True

    def _target(self, item):
        """(game, objective formula, objective tuple, oracle arena) of a
        corpus item (pass, game) or a fixture item (fixture, formula)."""
        if isinstance(item[0], str):
            game, arena = self.fixtures[item[0]]
            objective = self.tg.parse_ltl(item[1], game.arena.vocabulary)
            return game, objective, inputs.FIXTURE_FORMULAS[item[1]], arena
        return self.games[item]

    def _call(self, request: Request, stream: Stream):
        tg = self.tg
        kind, item = request.kind, request.item
        if kind in ("enash", "anash"):
            game, objective, _, _ = self._target(item)
            implement = tg.e_nash_implement if kind == "enash" else tg.a_nash_implement
            return implement(game, objective, 1)
        if kind == "find_ne":
            verdict = stream.state.get((item, "anash"))
            tax = verdict.witness_tax if verdict is not None else None
            return tg.find_ne(self.games[item][0], tax, 1)
        if kind == "ne":
            return tg.is_nash(self.junction, self.profiles[item], self.junction_tax)
        objective = tg.parse_ltl("G (p <-> q)", self.junction.arena.vocabulary)
        return tg.static_insufficiency_check(
            self.junction, objective, 2, self.statics[item]
        )

    def run(self, request: Request, stream: Stream, tracer, index: int) -> Outcome:
        if tracer is not None:
            tracer.request = index
        start = time.perf_counter()
        try:
            with time_limit(LIMIT_S):
                result = self._call(request, stream)
        except Timeout:
            result = None
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.stack.clear()
            tracer.enabled = False
            tracer.end_request()
        try:
            if result is None:
                outcome = Outcome(request.key, seconds, False, "timeout")
            else:
                outcome = self._check(request, stream, result, seconds)
        finally:
            if tracer is not None:
                tracer.enabled = True
        return outcome

    def _check(self, request, stream, result, seconds) -> Outcome:
        tg = self.tg
        kind, item = request.kind, request.item
        problems: list[str] = []
        decided = True
        if kind in ("enash", "anash"):
            verdict = result
            stream.state[(item, kind)] = verdict
            answer = verdict.answer
            decided = answer in ("yes", "no-within-bound")
            text = repr((answer, verdict.witness_tax, verdict.witness_profile,
                         verdict.diagnostics))
            tax_states = None
            if answer == "yes":
                game, _, formula, arena = self._target(item)
                profile, tax = verdict.witness_profile, verdict.witness_tax
                tax_states = tax.n_states
                machines = [(m.outputs, m.transitions) for m in profile.machines]
                if not oracle.run_satisfies(arena, machines, formula):
                    problems.append("witness run violates the objective")
                if not tg.is_nash(game, profile, tax):
                    problems.append("witness profile is not Nash under the witness tax")
            if kind == "anash":
                before = stream.state.get((item, "enash"))
                if before is not None and answer == "yes" and before.answer != "yes":
                    problems.append("anash yes but enash " + before.answer)
            problems += _expected_problems(request.key, answer, tax_states)
        elif kind == "find_ne":
            text = repr(result)
            verdict = stream.state.get((item, "anash"))
            if verdict is not None and verdict.answer == "yes":
                _, _, formula, arena = self.games[item]
                if not result:
                    problems.append("no equilibrium under the anash witness tax")
                for profile in result:
                    machines = [(m.outputs, m.transitions) for m in profile.machines]
                    if not oracle.run_satisfies(arena, machines, formula):
                        problems.append(
                            "an equilibrium under the anash witness tax "
                            "violates the objective"
                        )
                        break
        elif kind == "ne":
            answer = "yes" if result else "no"
            text = answer
            problems += _expected_problems(request.key, answer, None)
        else:
            text = repr([(r.tax, r.found, r.family, r.witness, r.note)
                         for r in result.rows])
            formula = inputs.FIXTURE_FORMULAS["G (p <-> q)"]
            for row in result.rows:
                if row.found:
                    machines = [(m.outputs, m.transitions)
                                for m in row.witness.machines]
                    if oracle.run_satisfies(self.junction_arena, machines, formula):
                        problems.append("static witness satisfies the objective")
        outcome = Outcome(request.key, seconds, decided, digest(request.key, text),
                          problems)
        repeat = stream.repeat_problem(outcome)
        if repeat:
            outcome.problems.append(repeat)
        return outcome


# ---------------------------------------------------------------------------
# cli


@dataclass
class Command:
    """One taxgames command.  game names a document in the work directory;
    formula is the objective in the benchmark's own form."""

    key: str
    kind: str  # check | ne | evaluate | verify
    argv: list[str]
    game: str = ""
    formula: tuple | None = None
    out: str | None = None
    profile: str | None = None
    tax: str | None = None


def _check_argv(problem, game, objective, out=None):
    argv = ["check", problem, "--game", game, "--objective", objective]
    return argv + (["--out", out] if out else [])


class Commands:
    """cli: one launcher process per command, one at a time."""

    def __init__(self, tg, seed: int, workdir: Path, env: dict):
        self.dir = workdir
        self.env = env
        self.launcher = str(HERE / "launch.py")
        self.tracer = None
        self.goals: dict[str, list] = {}
        self._arenas: dict = {}
        fixtures = Path(tg.__file__).parent / "fixtures"
        self.requests = self._prepare_cli(tg, seed, fixtures)

    def _prepare_cli(self, tg, seed: int, fixtures: Path) -> list[Command]:
        rng = Random(seed)
        for doc in ("junction.game", "junction.tax"):
            shutil.copy(fixtures / doc, self.dir / doc)
        self.goals["junction.game"] = [inputs.FIXTURE_FORMULAS["G F p"]] * 2
        requests = [
            Command("junction anash G (p <-> q)", "check",
                    _check_argv("anash", "junction.game", "G (p <-> q)",
                                "junction-anash.yaml"),
                    game="junction.game",
                    formula=inputs.FIXTURE_FORMULAS["G (p <-> q)"],
                    out="junction-anash.yaml"),
            Command("junction enash F G q", "check",
                    _check_argv("enash", "junction.game", "F G q",
                                "junction-enash.yaml"),
                    game="junction.game",
                    formula=inputs.FIXTURE_FORMULAS["F G q"],
                    out="junction-enash.yaml"),
        ]
        for name in ("ac", "ad", "bc", "bd"):
            profile = f"profile_{name}.profile"
            shutil.copy(fixtures / profile, self.dir / profile)
            requests.append(Command(
                f"junction ne profile_{name}", "ne",
                ["check", "ne", "--game", "junction.game", "--tax", "junction.tax",
                 "--profile", profile]))
        for i, base in enumerate(inputs.corpus(CLI_GAMES)):
            spec = inputs.present(base, rng)
            game = inputs.build_game(tg, spec)
            arena = game.arena
            name = f"game{i}.game"
            (self.dir / name).write_text(tg.game_to_yaml(game))
            self.goals[name] = list(spec["goals"])
            tax = inputs.random_dynamic_tax(
                tg, rng, 2 + i % 2, arena.n_states, arena.n_letters
            )
            (self.dir / f"game{i}.tax").write_text(tg.tax_to_yaml(tax))
            objective = inputs.render(spec["objective"])
            requests += [
                Command(f"game{i} {problem}", "check",
                        _check_argv(problem, name, objective,
                                    f"game{i}-{problem}.yaml"),
                        game=name, formula=spec["objective"],
                        out=f"game{i}-{problem}.yaml")
                for problem in ("enash", "anash")
            ]
            targets = [
                (f"game{i}", name, f"game{i}.tax",
                 [len(a) for a in arena.actions], arena.n_letters),
                (f"junction{i}", "junction.game", "junction.tax", [2, 2], 4),
            ]
            for label, game_doc, tax_doc, actions, n_letters in targets:
                # machine sizes 1-3 cycle with the game, so every seed
                # checks the same mix of sizes
                machines = [
                    inputs.random_machine(rng, 1 + (i + agent) % 3, n, n_letters)
                    for agent, n in enumerate(actions)
                ]
                profile = f"{label}.profile"
                (self.dir / profile).write_text(tg.profile_to_yaml(tg.Profile(tuple(
                    tg.StrategyMachine(tuple(o), tuple(map(tuple, t)))
                    for o, t in machines
                ))))
                common = ["--game", game_doc, "--tax", tax_doc, "--profile", profile]
                requests += [
                    Command(f"{label} ne", "ne", ["check", "ne"] + common),
                    Command(f"{label} evaluate", "evaluate",
                            ["evaluate"] + common + ["--out", f"{label}-report.yaml"],
                            game=game_doc, out=f"{label}-report.yaml",
                            profile=profile, tax=tax_doc),
                ]
        return requests

    def stream(self) -> Stream:
        return Stream(lambda k: self.requests)

    def _arena(self, name: str) -> oracle.Arena:
        data = (self.dir / name).read_bytes()
        key = (name, hashlib.sha256(data).digest())
        if key not in self._arenas:
            self._arenas[key] = oracle.document_arena(load_yaml(data))
        return self._arenas[key]

    def _spawn(self, argv: list[str], trace_path: Path | None):
        """Run the launcher to completion or the time limit; returns the
        exit code (None on timeout), the wall time in seconds and the
        moment it ended."""
        options = []
        spawned = time.perf_counter_ns()
        if trace_path is not None:
            options = ["--trace", str(trace_path), str(spawned)]
        with open(self.dir / ".stdout", "wb") as out, \
                open(self.dir / ".stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, self.launcher, *options, "--", *argv],
                cwd=self.dir, env=self.env, stdout=out, stderr=err,
            )
            try:
                with time_limit(LIMIT_S):
                    _, status = os.waitpid(proc.pid, 0)
                code = os.waitstatus_to_exitcode(status)
            except Timeout:
                proc.kill()
                os.waitpid(proc.pid, 0)
                code = None
            proc.returncode = code if code is not None else -9
        ended = time.perf_counter_ns()
        return code, (ended - spawned) / 1e9, ended

    def run(self, request: Command, stream: Stream, tracer, index: int) -> Outcome:
        trace_path = self.dir / ".spans.json" if tracer is not None else None
        if request.out is not None:
            (self.dir / request.out).unlink(missing_ok=True)
        code, seconds, ended_ns = self._spawn(request.argv, trace_path)
        start_ms = outside_ms = 0.0
        if tracer is not None and code is not None:
            start_ms, returned_ns = tracer.merge(trace_path, index)
            outside_ms = start_ms + (ended_ns - returned_ns) / 1e6
        stdout = (self.dir / ".stdout").read_bytes()
        out = b""
        if request.out is not None and (self.dir / request.out).exists():
            out = (self.dir / request.out).read_bytes()
        if tracer is not None:
            tracer.enabled = False
        try:
            outcome = self._check(request, stream, code, stdout, out, seconds)
        finally:
            if tracer is not None:
                tracer.enabled = True
        outcome.start_ms = start_ms
        outcome.outside_ms = outside_ms
        return outcome

    def _check(self, request, stream, code, stdout, out, seconds) -> Outcome:
        answer = digest(request.key, code, stdout, out)
        if code is None:
            return Outcome(request.key, seconds, False, "timeout")
        text = stdout.decode()
        problems: list[str] = []
        kind = request.kind
        valid = {"check": (0, 3, 4), "ne": (0, 3)}.get(kind, (0,))
        if code not in valid:
            stderr = (self.dir / ".stderr").read_text()[-300:]
            problems.append(f"exit {code}: {stderr.strip()}")
        elif kind == "check":
            problems += self._check_verdict(request, stream, code, text, out)
        elif kind == "ne":
            answer_word = "yes" if code == 0 else "no"
            if f"equilibrium: {answer_word}" not in text:
                problems.append("stdout disagrees with the exit code")
            problems += _expected_problems(request.key, answer_word, None)
        elif kind == "evaluate":
            problems += self._check_report(request, out)
        elif kind == "verify":
            if "witness verified" not in text:
                problems.append("verify did not print 'witness verified'")
        outcome = Outcome(request.key, seconds, code in (0, 3), answer, problems)
        repeat = stream.repeat_problem(outcome)
        if repeat:
            outcome.problems.append(repeat)
        return outcome

    def _check_verdict(self, request, stream, code, text, out) -> list[str]:
        problems = []
        said = "yes" if code == 0 else (
            "no-within-bound" if code == 3 else "unknown-at-bound"
        )
        if f"answer: {said}\n" not in text:
            problems.append(f"stdout does not say answer: {said}")
        tax_states = None
        if request.out is not None:
            verdict = load_yaml(out)["verdict"]
            if verdict["answer"] != said:
                problems.append(f"--out says {verdict['answer']}, exit says {said}")
            if said == "yes":
                tax_states = len(verdict["witness_tax"]["machine"])
                machines = oracle.profile_machines(verdict["witness_profile"])
                if not oracle.run_satisfies(
                    self._arena(request.game), machines, request.formula
                ):
                    problems.append("witness run violates the objective")
                stream.follow_ups.append(Command(
                    f"{request.key} verify", "verify",
                    ["verify", "--game", request.game, "--verdict", request.out],
                ))
        problems += _expected_problems(request.key, said, tax_states)
        return problems

    def _check_report(self, request, out) -> list[str]:
        """Goals met and limit-average costs of an evaluate report against
        the benchmark's own simulation of the profile and tax."""
        report = load_yaml(out)["report"]
        arena = self._arena(request.game)
        machines = oracle.profile_machines(
            load_yaml((self.dir / request.profile).read_bytes())["profile"]
        )
        tax = oracle.document_tax(
            load_yaml((self.dir / request.tax).read_bytes()), arena
        )
        problems = []
        for i, goal in enumerate(self.goals[request.game]):
            if report["goals"][i]["met"] != oracle.run_satisfies(arena, machines, goal):
                problems.append(f"goal of agent {i} misjudged")
            costs = report["costs"][i]
            if Fraction(costs["untaxed"]) != oracle.limit_average(
                arena, machines, i
            ):
                problems.append(f"untaxed cost of agent {i} wrong")
            if Fraction(costs["taxed"]) != oracle.limit_average(
                arena, machines, i, tax
            ):
                problems.append(f"taxed cost of agent {i} wrong")
        return problems
