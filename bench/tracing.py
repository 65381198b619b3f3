"""Outside-in tracing: spans and counters recorded around calls into the
public functions of each covmatroid module, installed by patching module
attributes from the benchmark's own code and removed again afterwards.

Layer-boundary calls become spans (id, parent id, operation id, name,
start ns, end ns) kept in memory.  The independence and rank callables of
every matroid handle a construction returns are wrapped too, but as
aggregated counters and times only: they run millions of times.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter_ns

MAX_SPANS = 200_000


def instance_class(n: int, m: int) -> str:
    if m <= 6:
        return "few_blocks"
    return "many_blocks_small_n" if n <= 16 else "many_blocks_large_n"


CLASSES = ("few_blocks", "many_blocks_small_n", "many_blocks_large_n")

# How each construction reveals (n, number of blocks) from its arguments.
_BUILD_SHAPES = {
    "covering_matroid": lambda c: (c.ground.n, c.m),
    "transversal_matroid": lambda f: (f.ground.n, len(f.members)),
    "partition_matroid": lambda p: (p.covering.ground.n, len(p.blocks)),
    "partition_circuit_matroid": lambda p: (p.covering.ground.n, len(p.blocks)),
    "k_rank_matroid": lambda ground, block, k: (ground.n, 1),
}


class Tracer:
    """Spans, counters and times of one traced round; ``install`` patches
    the wrappers in and ``uninstall`` puts the originals back."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._active: dict[str, int] = {}
        self._next_id = 0
        self._undo: list[tuple] = []

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, within=(), on_result=None):
        """Wrap ``fn`` in a span.  A call made while a span of the same name
        is open passes straight through, so nested entry points (a parse
        inside a parse, a build inside a build) count once.  ``within``
        lists counters whose growth during the span is charged to it."""
        active = self._active
        stack = self._stack

        def wrapper(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            before = [self.count(k) for k in within]
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            active[name] = 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                active[name] = 0
                d = t1 - t0
                self.bump(name + ".calls")
                self.ns[name] = self.ns.get(name, 0) + d
                self.self_ns[name] = self.self_ns.get(name, 0) + d - frame[1]
                if parent is not None:
                    parent[1] += d
                for k, b in zip(within, before):
                    self.bump(f"{name}>{k}", self.count(k) - b)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (sid, parent[0] if parent else -1, self.op, name, t0, t1)
                    )
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def leaf(self, kind: str, cls: str, fn):
        """Counting, timing wrapper for a handle's indep/rank callable."""
        calls = f"constructions.{kind}_calls.{cls}"
        total = f"constructions.{kind}_ns.{cls}"
        counts = self.counts
        ns = self.ns
        stack = self._stack
        counts.setdefault(calls, 0)
        ns.setdefault(total, 0)

        def wrapper(bits):
            t0 = perf_counter_ns()
            r = fn(bits)
            d = perf_counter_ns() - t0
            counts[calls] += 1
            counts["leaf.queries"] += 1
            ns[total] += d
            if stack:
                stack[-1][1] += d
            return r

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch_function(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        # importlib, because the package rebinds the name ``classify`` to
        # the function of that name.
        classify, cli, constructions, io, oracle, rough = (
            importlib.import_module("covmatroid." + name)
            for name in ("classify", "cli", "constructions", "io", "oracle", "rough"))
        Matroid = importlib.import_module("covmatroid.matroid").Matroid

        self.counts["leaf.queries"] = 0
        modules = [m for k, m in sys.modules.items()
                   if k == "covmatroid" or k.startswith("covmatroid.")]
        spans = {
            "io.parse": [io.parse_file, io.parse_document],
            "io.render": [io.render_covering_document, io.render_family_document],
            "cli.main": [cli.main],
            "constructions.slice": [constructions.covering_matroid_slice],
            "classify.report": [classify.classify],
            "rough.findings": [rough.approximation_findings],
            "oracle.union": [oracle.bf_union_independent],
            "oracle.matching": [oracle.bf_matching],
            "oracle.rank": [oracle.bf_rank],
            "oracle.dual": [oracle.bf_dual_family],
        }
        within = {
            "classify.report": ("matroid.circuits.invocations",
                                "matroid.independent_family.invocations"),
            "rough.findings": ("constructions.slice.calls",),
        }
        for name, fns in spans.items():
            for fn in fns:
                self._patch_function(
                    modules, fn, self.span(name, fn, within.get(name, ())))

        for fname, shape in _BUILD_SHAPES.items():
            fn = getattr(constructions, fname)
            self._patch_function(
                modules, fn,
                self.span("constructions.build", fn,
                          on_result=self._handle_hook(shape)))

        for meth in ("independent_family", "circuits", "bases", "closure", "dual"):
            self._wrap_method(Matroid, meth)

    def _handle_hook(self, shape):
        def hook(args, m):
            cls = instance_class(*shape(*args))
            m.indep_bits = self.leaf("indep", cls, m.indep_bits)
            if m.rank_hint is not None:
                m.rank_hint = self.leaf("rank", cls, m.rank_hint)
        return hook

    def _wrap_method(self, cls, meth: str) -> None:
        original = cls.__dict__[meth]
        name = "matroid." + meth
        direct = self.span(name, original, within=("leaf.queries",),
                           on_result=self._count_found if meth == "circuits" else None)
        on_dual = self.span("matroid.dual", original)

        def method(handle, *args, **kwargs):
            self.bump(name + ".invocations")  # on primal and dual handles
            # Enumerations over a dual handle are charged to matroid.dual.
            if meth != "dual" and handle.provenance.startswith("dual("):
                return on_dual(handle, *args, **kwargs)
            return direct(handle, *args, **kwargs)

        setattr(cls, meth, method)
        self._undo.append((cls, meth, original))

    def _count_found(self, args, circuits) -> None:
        self.bump("matroid.circuits.found", len(circuits))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def layer_metrics(rounds: list[tuple[Tracer, int]]) -> tuple[dict, dict]:
    """Per-layer figures from the traced rounds, each given as (tracer,
    stdout bytes), as two maps of name to (value, unit).

    Times: a layer's total per round is the median over the rounds, and a
    time per call pools the calls of every round.  Counts and ratios are
    those of the first round; they repeat exactly for a seed."""
    def ms(key: str, self_time: bool = False) -> tuple:
        per_round = [(t.self_ns if self_time else t.ns).get(key, 0) for t, _ in rounds]
        return (statistics.median(per_round) / 1e6, "ms")

    def us_per_call(ns_key: str, calls_key: str) -> tuple:
        total = sum(t.ns.get(ns_key, 0) for t, _ in rounds)
        calls = sum(t.count(calls_key) for t, _ in rounds)
        return (total / 1e3 / calls if calls else 0.0, "us")

    times = {
        "io.parse_ms": ms("io.parse"),
        "io.render_ms": ms("io.render"),
        "cli.self_ms": ms("cli.main", self_time=True),
        "constructions.build_ms": ms("constructions.build"),
        "matroid.independent_family_ms": ms("matroid.independent_family"),
        "matroid.circuits_ms": ms("matroid.circuits"),
        "matroid.bases_ms": ms("matroid.bases"),
        "matroid.dual_ms": ms("matroid.dual"),
        "matroid.closure_ms": ms("matroid.closure"),
        "classify.self_ms": ms("classify.report", self_time=True),
        "rough.findings_ms": ms("rough.findings"),
        "oracle.rank_ms": ms("oracle.rank"),
        "oracle.dual_ms": ms("oracle.dual"),
        "oracle.union_us": us_per_call("oracle.union", "oracle.union.calls"),
    }
    for kind in ("indep", "rank"):
        for cls in CLASSES:
            times[f"constructions.{kind}_us.{cls}"] = us_per_call(
                f"constructions.{kind}_ns.{cls}", f"constructions.{kind}_calls.{cls}")

    first, stdout_bytes = rounds[0]
    c = first.count

    def ratio(num: int, den: int) -> tuple:
        return (num / den if den else 0.0, "ratio")

    counts = {
        "io.parse_calls": (c("io.parse.calls"), "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "constructions.build_calls": (c("constructions.build.calls"), "count"),
        "matroid.circuits_per_indep_call": ratio(
            c("matroid.circuits.found"), c("matroid.circuits>leaf.queries")),
        "matroid.rank_calls_per_closure": ratio(
            c("matroid.closure>leaf.queries"), c("matroid.closure.calls")),
        "classify.circuits_calls_per_report": ratio(
            c("classify.report>matroid.circuits.invocations"),
            c("classify.report.calls")),
        "classify.families_per_report": ratio(
            c("classify.report>matroid.independent_family.invocations"),
            c("classify.report.calls")),
        "rough.slice_builds_per_call": ratio(
            c("rough.findings>constructions.slice.calls"), c("rough.findings.calls")),
        "oracle.union_calls": (c("oracle.union.calls"), "count"),
    }
    for kind in ("indep", "rank"):
        for cls in CLASSES:
            counts[f"constructions.{kind}_calls.{cls}"] = (
                c(f"constructions.{kind}_calls.{cls}"), "count")
    return times, counts
