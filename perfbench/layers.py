"""Layer spans recorded from the benchmark, around the program's entry points.

A traced run patches each layer's public entry point (the table
:data:`ENTRY_POINTS`) with a wrapper that records one span per call:
its name, host start and end (``perf_counter_ns``), its parent span and
the id of the benchmark operation it ran in.  The program itself is not
changed and carries no tracing of its own here; the wrappers are removed
when the run ends.  Spans are kept in memory and written out at the end.

A span's *self time* is its duration minus the time its child spans
cover.  Because the wrapped calls nest strictly (one thread, no
callbacks escaping a call), the children of a span never overlap, so
self time is the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer entry points: ``(layer, module, class or None, attributes)``.
#: ``"*"`` wraps every public function the module defines.  Functions
#: are patched where their callers look them up: the engine calls the
#: parser and planner through ``repro.db.engine``'s globals, the
#: campaign executor calls ``execute_point`` and ``merge_outcomes``
#: through ``repro.parallel.executor``'s.  ``DatabaseSystem.execute`` is
#: abstract, so its MiniDB implementation is the one wrapped.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("systems", "repro.db.systems", "MiniDBSystem", ("execute",)),
    ("engine", "repro.db.engine", "Engine", ("execute",)),
    ("parser", "repro.db.engine", None, ("parse_select",)),
    ("optimizer", "repro.db.engine", None, ("plan_statement",)),
    ("operators", "repro.db.plan", "PlanNode", ("execute",)),
    ("kernels", "repro.db.kernels", None, ("*",)),
    ("zonemaps", "repro.db.zonemaps", None, ("*",)),
    ("buffer", "repro.db.buffer", "BufferPool",
     ("read_table", "read_pages_random")),
    ("client", "repro.db.client", "Client", ("run",)),
    ("measurement", "repro.measurement.protocol", "RunProtocol",
     ("execute",)),
    ("parallel", "repro.parallel.executor", None,
     ("run_campaign", "execute_point", "merge_outcomes")),
    ("obs", "repro.obs.tracer", "Tracer", ("start_span", "end_span")),
    ("core", "repro.core.replication", None, ("analyze_replicated",)),
    ("core", "repro.core.variation", None,
     ("allocate_variation_replicated",)),
    ("speedup", "repro.measurement.speedup", None,
     ("bootstrap_speedup_ci",)),
    ("workloads", "repro.workloads.tpch", None, ("generate_tpch",)),
)

#: Kernel-module functions the benchmark itself calls to read counters;
#: they are introspection, not execution, so they get no span.
_NOT_WRAPPED = frozenset({"expression_cache_info", "expression_cache_clear"})

#: Classes whose spans are named after the receiver's own type: every
#: operator inherits ``PlanNode.execute``.
_PER_RECEIVER = {"PlanNode": lambda node: "operators." + type(node).__name__}


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_ns")

    def __init__(self, name: str, start: int, parent: int,
                 op: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_ns = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class LayerTracer:
    """Records layer spans while :meth:`installed`.

    Operations and windows are the benchmark's own units:
    :meth:`op` labels the spans of one operation, and :meth:`window`
    marks an interval whose uncovered share the trace reports (one
    statement, or one whole campaign with its analysis).
    """

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self.windows: List[Tuple[int, int]] = []
        #: Counters the wrappers harvest from public accessors.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-statement median q-errors (``PlanActuals.median_qerror``).
        self.qerrors: List[float] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._origin = time.perf_counter_ns()

    # -- operations and windows --------------------------------------------

    @contextmanager
    def op(self, label: str) -> Iterator[None]:
        """Attribute the spans opened inside to operation *label*."""
        outer, self._op = self._op, label
        try:
            yield
        finally:
            self._op = outer

    @contextmanager
    def window(self) -> Iterator[None]:
        """Time an interval whose layer coverage the trace grades."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.windows.append((start, time.perf_counter_ns()))

    @property
    def in_op(self) -> bool:
        return self._op is not None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        span = _Span(name, time.perf_counter_ns(), parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.end - span.start

    def _wrap(self, name: str, fn: Callable,
              name_of: Optional[Callable[[Any], str]] = None,
              after: Optional[Callable[..., None]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(name if name_of is None
                                else name_of(args[0]))
            try:
                result = fn(*args, **kwargs)
                if after is not None and tracer.in_op:
                    after(args, result)
                return result
            finally:
                tracer._close(span)

        return traced

    # -- counters harvested inside the wrapped calls ---------------------------

    def _after_operator(self, args: Tuple, batch: Any) -> None:
        node = args[0]
        self.counts["rows_out"] += node.rows_out or 0
        blocks = node.span_extras.get("blocks")
        if blocks is not None:
            self.counts["zone_blocks"] += blocks
            self.counts["zone_blocks_pruned"] += \
                node.span_extras.get("blocks_pruned", 0)

    def _after_plan(self, args: Tuple, plan: Any) -> None:
        info = getattr(plan, "optimizer_info", None)
        if info:
            self.counts["plans_considered"] += info["plans_considered"]

    def _after_start_span(self, args: Tuple, span: Any) -> None:
        self.counts["program_spans"] += 1

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every entry point for the ``with`` block, then restore."""
        patches: List[Tuple[Any, str, Any]] = []
        hooks = {
            ("PlanNode", "execute"): self._after_operator,
            (None, "plan_statement"): self._after_plan,
            ("Tracer", "start_span"): self._after_start_span,
        }
        try:
            for layer, module_name, owner_name, attrs in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None \
                    else getattr(module, owner_name)
                if attrs == ("*",):
                    attrs = tuple(
                        name for name, fn in vars(module).items()
                        if inspect.isfunction(fn)
                        and fn.__module__ == module_name
                        and not name.startswith("_")
                        and name not in _NOT_WRAPPED)
                for attr in attrs:
                    original = vars(owner)[attr]
                    name = layer if layer not in ("kernels", "zonemaps") \
                        else f"{layer}.{attr}"
                    wrapper = self._wrap(
                        name, original, _PER_RECEIVER.get(owner_name),
                        hooks.get((owner_name, attr)))
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            self._patch_profile(patches)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch_profile(self, patches: List[Tuple[Any, str, Any]]) -> None:
        """Harvest per-statement counters from ``Engine.profile``.

        ``Engine.execute`` discards the :class:`ProfileReport`; this
        capture-only wrapper (no span) reads its simulated phase times,
        the statement's q-error and the buffer-pool traffic it caused.
        """
        from repro.db.engine import Engine

        original = vars(Engine)["profile"]
        tracer = self

        @functools.wraps(original)
        def profile(engine: Any, sql: str) -> Any:
            pool = engine.buffer_pool
            before = (pool.hits, pool.misses, pool.evictions,
                      engine.counters.read("io_reads"))
            result, report = original(engine, sql)
            if tracer.in_op:
                counts = tracer.counts
                for phase in ("parse", "optimize", "execute"):
                    counts[f"sim_{phase}_ms"] += report.phase_ms[phase]
                after = (pool.hits, pool.misses, pool.evictions,
                         engine.counters.read("io_reads"))
                for key, old, new in zip(
                        ("buffer_hits", "buffer_misses", "buffer_evictions",
                         "buffer_pages_read"), before, after):
                    counts[key] += new - old
                tracer.qerrors.append(engine.last_actuals().median_qerror())
            return result, report

        patches.append((Engine, "profile", original))
        Engine.profile = profile

    # -- summaries ----------------------------------------------------------

    def op_spans(self) -> List[_Span]:
        return [s for s in self.spans if s.op is not None]

    def self_ms_by(self, key: Callable[[_Span], str]) -> Dict[str, float]:
        """Total self time (ms) of the spans inside operations, grouped."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.op_spans():
            totals[key(span)] += span.self_ns / 1e6
        return dict(totals)

    def calls_by(self, key: Callable[[_Span], str]) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.op_spans():
            totals[key(span)] += 1
        return dict(totals)

    def uncovered_share(self) -> float:
        """Share of window time that no top-level layer span covers."""
        window_ns = sum(end - start for start, end in self.windows)
        if window_ns == 0:
            return 0.0
        # Windows and top-level spans are both in start order and do
        # not overlap among themselves, so one merge pass suffices.
        tops = [s for s in self.spans if s.parent < 0]
        covered = 0
        k = 0
        for start, end in self.windows:
            while k < len(tops) and tops[k].start < start:
                k += 1
            while k < len(tops) and tops[k].start < end:
                covered += min(tops[k].end, end) - tops[k].start
                k += 1
        return max(0.0, (window_ns - covered) / window_ns)

    def write(self, directory: Path, ops: int) -> Path:
        """Write the spans (gzipped JSONL, one span per line) and the
        per-layer table into *directory*; return it."""
        directory.mkdir(parents=True, exist_ok=True)
        with gzip.open(directory / "spans.jsonl.gz", "wt",
                       encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "start_ns": span.start - self._origin,
                    "end_ns": span.end - self._origin,
                    "parent": span.parent if span.parent >= 0 else None,
                    "op": span.op}) + "\n")
        (directory / "layers.txt").write_text(self.layer_table(ops),
                                              encoding="utf-8")
        return directory

    def layer_table(self, ops: int) -> str:
        """Self time per layer and per span name, largest first."""
        window_ms = sum(end - start for start, end in self.windows) / 1e6
        lines = [f"{ops} ops, {window_ms:.1f} ms in op windows, "
                 f"uncovered share {self.uncovered_share():.4f}", "",
                 f"{'layer / span':<32}{'calls':>10}{'self ms':>12}"
                 f"{'share':>8}"]
        for title, key in (("layers", lambda s: s.layer),
                           ("spans", lambda s: s.name)):
            self_ms = self.self_ms_by(key)
            calls = self.calls_by(key)
            lines.append(f"-- {title}")
            for name in sorted(self_ms, key=lambda n: -self_ms[n]):
                share = self_ms[name] / window_ms if window_ms else 0.0
                lines.append(f"{name:<32}{calls[name]:>10}"
                             f"{self_ms[name]:>12.2f}{share:>8.1%}")
        return "\n".join(lines) + "\n"
