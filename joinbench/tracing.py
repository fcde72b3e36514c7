"""Layer spans for the traced benchmark run, installed from outside ``src/``.

Nothing in the engine knows about this module.  :func:`install` wraps the
public functions of each layer where their callers look the names up (a
module that did ``from .shuffle import regular_shuffle`` holds its own
binding, so every ``repro.*`` module namespace that binds the original
object is patched, plus the class attribute for methods) and returns an
undo callable.  The untraced run never installs anything.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to its parent's child time, and its *self* time
(duration minus the time covered by its children) is added to its layer.
Per-layer seconds are sums of self times, so within one query they add up
to the duration of the query's root spans (:meth:`Tracer.conservation`).
Most layers are also kept as span records (name, start, end, parent span,
query id) for export; the catalog statistics methods run about a million
times during a cold Q4 plan, so they are aggregated without a record.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

from repro.engine import hash_join, kernels, local, runtime, shuffle
from repro.engine.cluster import Cluster
from repro.engine.frame import Frame
from repro.engine.scheduler import PlanExecution
from repro.engine.service import QueryService
from repro.hypercube import config
from repro.planner import api, decompose, optimizer, physical
from repro.query import parser
from repro.query.catalog import Catalog

#: the Catalog statistics methods behind ``query.catalog`` (aggregated)
CATALOG_METHODS = (
    "cardinality",
    "atom_cardinalities",
    "distinct_prefix",
    "distinct_values",
    "atom_prefix_count",
    "atom_prefix_count_positions",
    "atom_distinct_values",
    "atom_cardinality",
    "atom_group_counts",
    "atom_max_group",
    "join_group_product",
    "empty_atoms",
)


class Tracer:
    """In-memory span recorder; one per traced run (or forked query)."""

    def __init__(self) -> None:
        #: the query id new frames are attributed to (set by the workload)
        self.query: Optional[int] = None
        #: recorded spans: (id, name, start, end, self, parent id, query)
        self.spans: list[tuple] = []
        #: (query, layer) -> summed self seconds
        self.self_seconds: dict[tuple, float] = defaultdict(float)
        #: layer -> summed inclusive seconds
        self.inclusive: dict[str, float] = defaultdict(float)
        #: query -> summed duration of its root spans, less the parts of
        #: them that nested spans of other queries cover
        self.root_seconds: dict[Optional[int], float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: PlanExecution identity -> service query id (serving attribution)
        self.execution_query: dict[int, int] = {}
        #: service query id -> perf_counter at admission
        self.admitted_at: dict[int, float] = {}
        self.gc_seconds = 0.0
        self._gc_started = 0.0
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded, in place (installed wrappers keep
        their reference); a forked query process starts from here."""
        self.spans.clear()
        self.self_seconds.clear()
        self.inclusive.clear()
        self.root_seconds.clear()
        self.counts.clear()
        self.execution_query.clear()
        self.admitted_at.clear()
        self.gc_seconds = 0.0
        self._stack.clear()
        self._next_id = 0

    # -- frames ----------------------------------------------------------

    def _open(self, record: bool) -> list:
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_record = parent[4] if parent is not None else None
        # frame: start, child seconds, query, parent record id, own record id
        frame = [
            time.perf_counter(), 0.0, self.query, parent_record,
            span_id if record else parent_record,
        ]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, record: bool) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        start, children, query = frame[0], frame[1], frame[2]
        duration = end - start
        own = duration - children
        self.self_seconds[(query, name)] += own
        self.inclusive[name] += duration
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if parent is None or parent[2] != query:
            self.root_seconds[query] += duration
        if parent is not None and parent[2] != query:
            # time handed to another query is not the parent query's own
            self.root_seconds[parent[2]] -= duration
        if record:
            self.spans.append((frame[4], name, start, end, own, frame[3], query))

    def timed(
        self,
        name: Callable[[object], str] | str,
        function: Callable,
        record: bool = True,
        query_of: Optional[Callable[..., Optional[int]]] = None,
    ) -> Callable:
        """Wrap ``function`` in a frame of layer ``name``.

        ``name`` may be a callable of the return value (the optimizer's
        hit/miss split).  ``query_of(*args)`` re-attributes the call and
        everything under it to another query id (serving interleaves
        queries inside one ``step()``).
        """
        tracer = self

        def traced(*args, **kwargs):
            saved = tracer.query
            if query_of is not None:
                query = query_of(*args)
                if query is not None:
                    tracer.query = query
            frame = tracer._open(record)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                label = name if isinstance(name, str) else name(result)
                tracer._close(label, frame, record)
                tracer.query = saved

        traced.__wrapped__ = function
        return traced

    def counted(
        self, counter: str, function: Callable,
        amount: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """Wrap ``function`` to count calls (or ``amount(result)``)."""
        tracer = self

        def counting(*args, **kwargs):
            result = function(*args, **kwargs)
            tracer.counts[counter] += 1 if amount is None else amount(result)
            return result

        counting.__wrapped__ = function
        return counting

    # -- garbage collector -----------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: pause time and full collections."""
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.counts["python.gc_gen2"] += 1

    # -- results ---------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        """Self seconds of one layer summed over every query."""
        return sum(
            seconds for (_, name), seconds in self.self_seconds.items()
            if name == layer
        )

    def conservation(self) -> dict[Optional[int], tuple[float, float]]:
        """Per query: (sum of self seconds, root-span seconds it owns)."""
        totals: dict[Optional[int], float] = defaultdict(float)
        for (query, _), seconds in self.self_seconds.items():
            totals[query] += seconds
        return {
            query: (totals[query], self.root_seconds.get(query, 0.0))
            for query in set(totals) | set(self.root_seconds)
        }

    def absorb(self, other: dict) -> None:
        """Merge the :meth:`export_state` of a tracer from a forked child."""
        for (query, name), seconds in other["self_seconds"]:
            self.self_seconds[(query, name)] += seconds
        for name, seconds in other["inclusive"]:
            self.inclusive[name] += seconds
        for query, seconds in other["root_seconds"]:
            self.root_seconds[query] += seconds
        self.counts.update(dict(other["counts"]))
        self.gc_seconds += other["gc_seconds"]
        offset = self._next_id
        for span in other["spans"]:
            span_id, name, start, end, own, parent, query = span
            self.spans.append((
                span_id + offset, name, start, end, own,
                None if parent is None else parent + offset, query,
            ))
        self._next_id += other["next_id"]

    def export_state(self) -> dict:
        """A picklable snapshot for :meth:`absorb` in the parent."""
        return {
            "self_seconds": list(self.self_seconds.items()),
            "inclusive": list(self.inclusive.items()),
            "root_seconds": list(self.root_seconds.items()),
            "counts": list(self.counts.items()),
            "gc_seconds": self.gc_seconds,
            "spans": self.spans,
            "next_id": self._next_id,
        }

    def write(self, stem: Path) -> None:
        """Write spans as JSON lines and as Chrome trace-event JSON."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{stem}.spans.jsonl", "w") as lines:
            for span_id, name, start, end, own, parent, query in self.spans:
                lines.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "self": own, "parent": parent, "query": query,
                }) + "\n")
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "query": query},
            }
            for span_id, name, start, end, _, parent, query in self.spans
        ]
        with open(f"{stem}.trace.json", "w") as trace:
            json.dump({"traceEvents": events}, trace)


def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every ``repro.*`` module binding of ``original`` at the wrapper."""
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "") or ""
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                undo.append((module, attribute, original))


def _wrap_method(cls: type, method: str, make: Callable, undo: list) -> None:
    original = cls.__dict__[method]
    setattr(cls, method, make(original))
    undo.append((cls, method, original))


def _shipped_rows(item) -> int:
    """Rows in one runtime payload item, before or after shm encoding."""
    if isinstance(item, runtime.SharedRows):
        return item.count
    if isinstance(item, runtime._SharedFrame):
        return item.shared.count
    if isinstance(item, Frame):
        return len(item.rows)
    if isinstance(item, list):
        return len(item)
    return 0


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every measured layer; return a callable that undoes it all."""
    undo: list = []
    timed = tracer.timed

    def functions(layer: str, module, *names: str) -> None:
        for name in names:
            original = getattr(module, name)
            _rebind(original, timed(layer, original), undo)

    functions("query.parse", parser, "parse_query")
    functions("query.cache_key", optimizer, "normalize_query")
    functions("planner.estimate_costs", optimizer, "estimate_costs")
    functions(
        "planner.decompose", decompose,
        "estimate_intermediate", "default_decomposition", "lower_hybrid",
    )
    functions("planner.lower", physical, "lower")
    functions("engine.cluster", api, "make_cluster")
    functions(
        "engine.exchange", shuffle,
        "regular_shuffle", "broadcast", "hypercube_shuffle",
    )
    functions(
        "kernels.partition", kernels, "shuffle_partition", "hypercube_partition"
    )
    functions("kernels.sort", kernels, "sort_projected")
    functions("kernels.hash_join", kernels, "hash_join_rows")
    functions("kernels.filter", kernels, "filter_atom_rows")
    functions("engine.local_join", local, "local_tributary_join")
    functions("engine.local_join", hash_join, "symmetric_hash_join")

    shapes = decompose.enumerate_decompositions
    _rebind(shapes, timed("planner.decompose", tracer.counted(
        "planner.hybrid_shapes", shapes, amount=len,
    )), undo)
    configure = config.optimize_config
    _rebind(configure, timed("hypercube.config", tracer.counted(
        "hypercube.config_calls", configure,
    )), undo)
    workload = config.workload
    _rebind(workload, tracer.counted("hypercube.workload_calls", workload), undo)
    optimize = optimizer.optimize
    _rebind(optimize, timed(
        lambda plan: "planner.optimize_hit"
        if plan is not None and plan.cache_hit else "planner.optimize",
        optimize,
    ), undo)

    _wrap_method(
        Catalog, "__init__", lambda f: timed("query.catalog", f), undo
    )
    for method in CATALOG_METHODS:
        _wrap_method(
            Catalog, method,
            lambda f: timed("query.catalog", f, record=False), undo,
        )
    _wrap_method(
        Catalog, "fingerprint", lambda f: timed("query.cache_key", f), undo
    )
    for method in ("load", "view"):
        _wrap_method(
            Cluster, method, lambda f: timed("engine.cluster", f), undo
        )

    def execution_query(execution, *_):
        return tracer.execution_query.get(id(execution))

    _wrap_method(PlanExecution, "step", lambda f: tracer.counted(
        "engine.rounds",
        timed("engine.round", f, query_of=execution_query),
    ), undo)
    _wrap_method(
        PlanExecution, "finalize",
        lambda f: timed("engine.finalize", f, query_of=execution_query), undo,
    )

    for cls in (runtime.WorkerRuntime, runtime.SerialRuntime,
                runtime.ParallelRuntime, runtime.ProcessRuntime):
        for method in ("map_local", "map_workers"):
            if method in cls.__dict__:
                _wrap_method(
                    cls, method,
                    lambda f: timed("runtime.local_phase", f), undo,
                )
    for cls in (runtime.WorkerRuntime, runtime.ProcessRuntime):
        for method in ("open_session", "close_session"):
            _wrap_method(
                cls, method, lambda f: timed("runtime.session", f), undo
            )

    encode, decode = runtime._encode_payload, runtime._decode_payload

    def encode_payload(item):
        shipped = encode(item)
        rows = _shipped_rows(item)
        tracer.counts["runtime.rows_shipped"] += rows
        if shipped is not item:
            tracer.counts["runtime.rows_shm"] += rows
        return shipped

    def decode_payload(item):
        rows = _shipped_rows(item)
        tracer.counts["runtime.rows_shipped"] += rows
        if isinstance(item, (runtime.SharedRows, runtime._SharedFrame)):
            tracer.counts["runtime.rows_shm"] += rows
        return decode(item)

    _rebind(encode, encode_payload, undo)
    _rebind(decode, decode_payload, undo)

    _wrap_method(
        QueryService, "step", lambda f: timed("service.step", f), undo
    )

    def admitting(start):
        def admit(service, pending):
            active = start(service, pending)
            tracer.admitted_at[active.query_id] = time.perf_counter()
            tracer.execution_query[id(active.execution)] = active.query_id
            return active
        return admit

    _wrap_method(QueryService, "_start", admitting, undo)

    gc.callbacks.append(tracer.on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
