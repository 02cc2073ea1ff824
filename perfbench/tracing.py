"""Tracing from outside the program: wrap every public taxgames function.

`Tracer.install` replaces each public top-level function of every taxgames
module with a wrapper, at every module attribute that binds it, so calls
between modules and inside a module both pass through the wrappers.  A
wrapper records a span (name, start, end, parent span, request id) in
memory; generator functions get one span per item they yield.  A few
wrappers also note an argument or result (bytes parsed, product-graph
size, distinct-call keys); `Tracer.end_request` folds those notes into
counters and drops the objects they reference.

`summarize` turns spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_REQUEST = range(5)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _length(text: str) -> int:
    return len(text.encode())


def _witness_entries(verdict) -> int:
    tax = verdict.witness_tax
    if tax is None:
        return 0
    return sum(len(out.entries) for out in tax.outputs)


# name -> (note, function(args, kwargs, result) -> value).  Notes whose name
# ends in ".key" count distinct values per request; the rest are summed, or
# kept as a maximum by `summarize`.
_NOTES = {
    "ltl.eval_on_lasso": ("ltl.eval_on_lasso.key", lambda a, k, r: (
        _arg(a, k, 0, "formula"), _arg(a, k, 1, "trace"))),
    "strategy.generate_run": ("strategy.generate_run.key", lambda a, k, r: (
        _arg(a, k, 0, "arena"), _arg(a, k, 1, "profile"))),
    "equilibrium.best_response": ("equilibrium.best_response.key", lambda a, k, r: (
        _arg(a, k, 0, "game"), _arg(a, k, 1, "profile"),
        _arg(a, k, 2, "agent"), _arg(a, k, 3, "tax"))),
    "equilibrium.response_graph": (
        "equilibrium.product_vertices", lambda a, k, r: len(r.vertices)),
    "implementation.synthesize_eliminating_tax": (
        "implementation.classifier_states", lambda a, k, r: r.n_states),
    "implementation.build_deviation_graph": (
        "implementation.deviation_graph_nodes", lambda a, k, r: r.n_nodes),
    "implementation.e_nash_implement": (
        "taxation.witness_tax_entries", lambda a, k, r: _witness_entries(r)),
    "implementation.a_nash_implement": (
        "taxation.witness_tax_entries", lambda a, k, r: _witness_entries(r)),
}


def _document_note(name: str):
    short = name.split(".", 1)[1]
    if short.startswith("parse_"):
        return ("documents.bytes_read", lambda a, k, r: _length(_arg(a, k, 0, "text")))
    if short.endswith("_to_yaml") or short == "dump_yaml":
        return ("documents.bytes_written", lambda a, k, r: _length(r))
    return None


_IMPLEMENT = ("implementation.e_nash_implement", "implementation.a_nash_implement")


def _is_document(name: str) -> bool:
    return name.startswith("documents.")


def _is_parse(name: str) -> bool:
    return name.startswith("documents.parse_")


class Tracer:
    """Spans and notes of one process, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.notes: list[tuple[int, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.enabled = True
        self.bindings: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][SPAN_END] = time.perf_counter_ns()
        self.stack.pop()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        note = _NOTES.get(name) or (
            _document_note(name) if name.startswith("documents.") else None
        )

        if inspect.isgeneratorfunction(fn):
            items_name = name + ".items"

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                if not tracer.enabled:
                    return inner

                def traced():
                    while True:
                        index = tracer.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(index)
                        tracer.counters[items_name] += 1
                        yield item

                return traced()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if note is not None:
                tracer.notes.append((index, note[0], note[1](args, kwargs, result)))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every taxgames module, at every
        module attribute of the package that binds it."""
        package = importlib.import_module("taxgames")
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, "taxgames.")
        ]
        originals: dict[int, object] = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1].lstrip("_")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self.bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back where `install` found it."""
        for module, attr, value in self.bindings:
            setattr(module, attr, value)
        self.bindings.clear()

    # -- requests ----------------------------------------------------------

    def end_request(self) -> None:
        """Fold the notes of the finished request into counters.  Distinct
        keys are compared by content, with each game, arena and tax reduced
        to its tables once per request."""
        fingerprints: dict[int, object] = {}

        def content(obj):
            if obj is None:
                return None
            found = fingerprints.get(id(obj))
            if found is None:
                arena = getattr(obj, "arena", obj)
                if hasattr(arena, "transition"):
                    found = (arena.transition, arena.cost, arena.labels,
                             arena.initial, getattr(obj, "goals", None))
                else:
                    found = obj
                fingerprints[id(obj)] = found
            return found

        distinct: dict[str, set] = defaultdict(set)
        for index, note, value in self.notes:
            if note == "taxation.witness_tax_entries":
                if not self.nested_in(index, _IMPLEMENT.__contains__):
                    self.counters[note] += value
            elif note == "documents.bytes_read":
                if not self.nested_in(index, _is_parse):
                    self.counters[note] += value
            elif note == "documents.bytes_written":
                if not self.nested_in(index, _is_document):
                    self.counters[note] += value
            elif note == "equilibrium.best_response.key":
                game, profile, agent, tax = value
                others = tuple(
                    m for i, m in enumerate(profile.machines) if i != agent
                )
                distinct[note].add((content(game), agent, others, content(tax)))
            elif note.endswith(".key"):
                first, second = value
                distinct[note].add((content(first), second))
            else:
                self.counters[note + "_total"] += value
                self.maxima[note + "_max"] = max(self.maxima[note + "_max"], value)
        for note, keys in distinct.items():
            self.counters[note[: -len(".key")] + ".distinct"] += len(keys)
        self.notes.clear()

    def nested_in(self, index: int, matches) -> bool:
        """Whether some enclosing span's name satisfies matches(name)."""
        parent = self.spans[index][SPAN_PARENT]
        while parent >= 0:
            if matches(self.spans[parent][SPAN_NAME]):
                return True
            parent = self.spans[parent][SPAN_PARENT]
        return False

    # -- persistence -------------------------------------------------------

    def dump(self, path, start_ms: float, returned_ns: int) -> None:
        """Write spans, counters and the process start time of a child,
        and when its command returned."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "maxima": dict(self.maxima),
                    "start_ms": start_ms,
                    "returned_ns": returned_ns,
                },
                handle,
            )

    def merge(self, path, request) -> tuple[float, int]:
        """Append a child's spans under the given request id and add its
        counters.  Returns the child's process start time in ms and the
        moment its command returned."""
        with open(path) as handle:
            data = json.load(handle)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, request]
            )
        for key, value in data["counters"].items():
            self.counters[key] += value
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        return data["start_ms"], data["returned_ns"]

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(tracer: Tracer, request_ms: dict, start_ms: dict,
              outside_ms: dict) -> dict:
    """Per-layer metrics of a traced run.

    request_ms maps request id to its wall time.  For cli requests,
    start_ms maps it to the process start, and outside_ms to all of its time
    outside `cli.main`: process start, writing the spans, interpreter exit.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    response_graph_ns = [0] * len(spans)
    for span in spans:
        parent = span[SPAN_PARENT]
        if parent >= 0:
            duration = span[SPAN_END] - span[SPAN_START]
            child_ns[parent] += duration
            if span[SPAN_NAME] == "equilibrium.response_graph":
                response_graph_ns[parent] += duration

    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    root_ns: dict[object, int] = defaultdict(int)
    document_ns = {"load": 0, "dump": 0}
    best_response_own_ns = 0
    for index, span in enumerate(spans):
        name = span[SPAN_NAME]
        duration = span[SPAN_END] - span[SPAN_START]
        layer = name.split(".", 1)[0]
        self_ns[layer] += duration - child_ns[index]
        total_ns[name] += duration
        calls[name] += 1
        if span[SPAN_PARENT] < 0:
            root_ns[span[SPAN_REQUEST]] += duration
        if name == "equilibrium.best_response":
            best_response_own_ns += duration - response_graph_ns[index]
        if layer == "documents" and not tracer.nested_in(index, _is_document):
            short = name.split(".", 1)[1]
            if short.startswith(("load_", "parse_")):
                document_ns["load"] += duration
            elif short.endswith("_to_yaml") or short == "dump_yaml":
                document_ns["dump"] += duration

    def ms(ns: float) -> float:
        return ns / 1e6

    def per_call_us(name: str, ns: float) -> float:
        return ns / 1e3 / calls[name] if calls[name] else 0.0

    counters = tracer.counters
    unattributed = sum(
        wall - outside_ms.get(request, 0.0) - ms(root_ns.get(request, 0))
        for request, wall in request_ms.items()
    )
    return {
        "documents.load_ms": ms(document_ns["load"]),
        "documents.dump_ms": ms(document_ns["dump"]),
        "documents.bytes_read": counters["documents.bytes_read"],
        "documents.bytes_written": counters["documents.bytes_written"],
        "arena.self_ms": ms(self_ns["arena"]),
        "arena.grid_world_game_ms": ms(total_ns["arena.grid_world_game"]),
        "ltl.self_ms": ms(self_ns["ltl"]),
        "ltl.eval_on_lasso_calls": calls["ltl.eval_on_lasso"],
        "ltl.eval_on_lasso_distinct": counters["ltl.eval_on_lasso.distinct"],
        "ltl.to_buchi_calls": calls["ltl.to_buchi"],
        "ltl.to_buchi_ms": ms(total_ns["ltl.to_buchi"]),
        "strategy.self_ms": ms(self_ns["strategy"]),
        "strategy.profiles_enumerated": counters["strategy.enumerate_profiles.items"],
        "strategy.generate_run_calls": calls["strategy.generate_run"],
        "strategy.distinct_runs": counters["strategy.generate_run.distinct"],
        "taxation.self_ms": ms(self_ns["taxation"]),
        "taxation.taxed_cost_calls": calls["taxation.taxed_cost"],
        "taxation.taxed_cost_us": per_call_us(
            "taxation.taxed_cost", total_ns["taxation.taxed_cost"]),
        "taxation.witness_tax_entries": counters["taxation.witness_tax_entries"],
        "equilibrium.self_ms": ms(self_ns["equilibrium"]),
        "equilibrium.best_response_calls": calls["equilibrium.best_response"],
        "equilibrium.best_response_distinct":
            counters["equilibrium.best_response.distinct"],
        "equilibrium.best_response_self_us": per_call_us(
            "equilibrium.best_response", best_response_own_ns),
        "equilibrium.response_graph_us": per_call_us(
            "equilibrium.response_graph", total_ns["equilibrium.response_graph"]),
        "equilibrium.product_vertices_total":
            counters["equilibrium.product_vertices_total"],
        "equilibrium.product_vertices_max":
            tracer.maxima["equilibrium.product_vertices_max"],
        "graphs.scc_ms": ms(total_ns["graphs.strongly_connected_components"]),
        "implementation.self_ms": ms(self_ns["implementation"]),
        "implementation.check_eliminable_ms": ms(
            total_ns["implementation.check_eliminable"]),
        "implementation.synthesize_ms": ms(
            total_ns["implementation.synthesize_eliminating_tax"]),
        "implementation.classifier_states_max":
            tracer.maxima["implementation.classifier_states_max"],
        "implementation.deviation_graph_nodes":
            counters["implementation.deviation_graph_nodes_total"],
        "cli.self_ms": ms(self_ns["cli"]),
        "cli.process_start_ms": (
            sum(start_ms.values()) / len(start_ms) if start_ms else 0.0
        ),
        "trace.unattributed_ms": unattributed,
    }


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_share"):
        return "share"
    if ".bytes_" in metric:
        return "bytes"
    return "count"
