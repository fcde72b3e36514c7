"""The benchmark's three workloads and the metrics they report.

Each workload consumes a fixed, seeded sequence of whole queries — a set
number of passes over its query list for ``adhoc`` and ``warm``, a set
number of arrivals for ``serve`` — so every run serves the same mix.
The seed drives only the order of queries within a pass, the order of the
serving trace and its arrival times; datasets are the registry's, so the
committed row counts and digests (``expected.json``) hold for every seed.

Every completed query's rows are checked.  End-to-end metrics come from an
untraced window; the traced run replays the same window with the layer
wrappers of :mod:`tracing` installed and reports per-layer metrics, the
tracing overhead, and a check that counted metrics did not change.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import multiprocessing
import random
import resource
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.engine.runtime import resolve_runtime
from repro.engine.service import QueryRequest, QueryService, ServiceStats
from repro.planner.api import run_query
from repro.planner.optimizer import GLOBAL_PLAN_CACHE, PlanCache, optimize
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.workloads.registry import WORKLOADS
from repro.workloads.traffic import percentile, zipf_weights

import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


class InvalidRun(RuntimeError):
    """The run broke a validity rule (cold/warm cache); it reports nothing."""


# ----------------------------------------------------------------------
# Queries, datasets and row checks
# ----------------------------------------------------------------------


def query_text(name: str) -> str:
    """The registry query as the rule text a user would submit."""
    return repr(WORKLOADS[name].query) + "."


def datasets(names, scale: str) -> dict:
    """Registry datasets per query; queries of one dataset share it."""
    built: dict = {}
    databases = {}
    for name in names:
        workload = WORKLOADS[name]
        make = workload.unit_dataset if scale == "unit" else workload.bench_dataset
        if make not in built:
            built[make] = workload.dataset(scale)
        databases[name] = built[make]
    return databases


def digest(rows) -> str:
    """Order-independent digest of a result: sha256 of the sorted rows."""
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()[:16]


def rows_match(scale: str, name: str, rows, expected=None) -> bool:
    """Whether ``rows`` has the committed count and digest."""
    reference = (expected or EXPECTED)[scale][name]
    return len(rows) == reference["rows"] and digest(rows) == reference["digest"]


def counted(stats) -> tuple:
    """Counted metrics of one query (tuples, wall units, peak, skew)."""
    return (
        stats.tuples_shuffled,
        stats.wall_clock,
        max(stats.peak_memory.values(), default=0),
        max((record.consumer_skew for record in stats.shuffles), default=0.0),
    )


@dataclass
class Sample:
    """One attempted query of a measured window."""

    name: str
    ok: bool
    #: rows present but wrong (counts against ``correct`` as well)
    wrong: bool = False
    latency: float = 0.0
    counted: tuple = ()
    #: the workload's query id (tracing attribution)
    query: int = 0
    #: serving, traced runs only: seconds from the due time to admission
    admitted: float = float("nan")


@dataclass
class Window:
    """One measured sequence of queries."""

    samples: list[Sample] = field(default_factory=list)
    #: seconds the system spent on the queries (open-loop throughput
    #: denominator; tracing overhead)
    busy: float = 0.0
    #: plan-cache lookups and hits inside the window
    lookups: int = 0
    hits: int = 0
    #: closed loop: every query type weighs the same in the latency
    #: quantiles; open loop: every query does
    closed: bool = True
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def pass_orders(names, seed: int, passes: int) -> list[list[str]]:
    """Seeded query order of each of ``passes`` whole passes."""
    rng = random.Random(seed)
    return [rng.sample(list(names), len(names)) for _ in range(passes)]


def set_up(build: Callable[[], object], repeats: int) -> tuple[object, list[float]]:
    """Run the set-up ``repeats`` times; keep the last state and all times."""
    times = []
    state = None
    for _ in range(repeats):
        state = None  # let the previous set-up go before building the next
        started = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - started)
    return state, times


def _die_with_parent() -> None:
    """Ask Linux to kill this forked query process if the benchmark dies."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # not Linux: the pipe EOF still ends it
        pass


def _cold_query(connection, name, scale, database, workers, tracer, query_id):
    """Body of one forked ``adhoc`` query: plan cold, run, report back."""
    _die_with_parent()
    report: dict = {"name": name}
    try:
        if tracer is not None:
            tracer.reset()
            tracer.query = query_id
        hits, misses = GLOBAL_PLAN_CACHE.hits, GLOBAL_PLAN_CACHE.misses
        started = time.perf_counter()
        result = run_query(
            query_text(name), database, strategy="auto", workers=workers,
            runtime="serial",
        )
        report["latency"] = time.perf_counter() - started
        report["failed"] = result.failed
        report["match"] = rows_match(scale, name, result.rows)
        report["counted"] = counted(result.stats)
        report["hits"] = GLOBAL_PLAN_CACHE.hits - hits
        report["lookups"] = report["hits"] + GLOBAL_PLAN_CACHE.misses - misses
        if tracer is not None:
            report["trace"] = tracer.export_state()
    except Exception as error:
        report["error"] = repr(error)
    connection.send(report)
    connection.close()


def adhoc(seed: int, traced: bool, spec: dict) -> dict:
    """Cold ad-hoc analyst queries: every query plans from nothing.

    Each query runs in a process forked from the state after set-up, so it
    starts with an empty plan cache, a fresh ``Catalog`` and no memo from
    an earlier query.  Fork keeps the generated datasets without copying
    them; the parent runs no threads, so forking it is safe.
    """
    names = spec["queries"]
    databases, setup_times = set_up(
        lambda: datasets(names, spec["scale"]), spec["setup_repeats"]
    )
    orders = pass_orders(names, seed, spec["passes"])
    context = multiprocessing.get_context("fork")

    def window(tracer: Optional[tracing.Tracer]) -> Window:
        measured = Window()
        for name in (name for order in orders for name in order):
            query_id = len(measured.samples)
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_cold_query,
                args=(sender, name, spec["scale"], databases[name],
                      spec["workers"], tracer, query_id),
            )
            child.start()
            sender.close()
            report = {"error": "timed out"}
            try:
                if receiver.poll(spec["query_timeout_s"]):
                    report = receiver.recv()
            except EOFError:
                report = {"error": f"query process exited {child.exitcode}"}
            finally:
                receiver.close()
                child.join(5)
                if child.is_alive():
                    child.kill()
                    child.join()
            sample = Sample(name, ok=False, query=query_id)
            measured.samples.append(sample)
            if "error" in report or report["failed"]:
                continue
            if report["lookups"] != 1 or report["hits"] != 0:
                raise InvalidRun(f"adhoc {name}: the plan cache was not cold")
            sample.ok = report["match"]
            sample.wrong = not report["match"]
            sample.latency = report["latency"]
            sample.counted = tuple(report["counted"])
            measured.busy += report["latency"]
            measured.lookups += report["lookups"]
            measured.hits += report["hits"]
            if tracer is not None:
                tracer.absorb(report["trace"])
        return measured

    return measure(window, setup_times, traced)


def warm(seed: int, traced: bool, spec: dict) -> dict:
    """Known queries repeated on a filled plan cache, on worker processes."""
    names = spec["queries"]
    workers = spec["workers"]

    def build() -> dict:
        databases = datasets(names, spec["scale"])
        GLOBAL_PLAN_CACHE.clear()
        for name in names:
            optimize(
                parse_query(query_text(name)), Catalog(databases[name]),
                workers=workers,
            )
        return databases

    databases, setup_times = set_up(build, spec["setup_repeats"])
    orders = pass_orders(names, seed, spec["passes"])
    runtime = resolve_runtime(spec["runtime"])

    def window(tracer: Optional[tracing.Tracer]) -> Window:
        measured = Window()
        hits, misses = GLOBAL_PLAN_CACHE.hits, GLOBAL_PLAN_CACHE.misses
        for name in (name for order in orders for name in order):
            sample = Sample(name, ok=False, query=len(measured.samples))
            measured.samples.append(sample)
            if tracer is not None:
                tracer.query = sample.query
            started = time.perf_counter()
            result = run_query(
                query_text(name), databases[name], strategy="auto",
                workers=workers, runtime=runtime,
            )
            latency = time.perf_counter() - started
            if tracer is not None:
                tracer.query = None
            measured.busy += latency
            if result.failed:
                continue
            sample.wrong = not rows_match(spec["scale"], name, result.rows)
            sample.ok = not sample.wrong
            sample.latency = latency
            sample.counted = counted(result.stats)
        measured.hits = GLOBAL_PLAN_CACHE.hits - hits
        measured.lookups = measured.hits + GLOBAL_PLAN_CACHE.misses - misses
        if measured.hits != measured.lookups:
            raise InvalidRun("warm: a plan-cache lookup missed in the window")
        return measured

    return measure(window, setup_times, traced)


def arrivals(names, seed: int, spec: dict) -> list[tuple]:
    """The serving trace: ``(due seconds, query name)`` in arrival order.

    The mix is the Zipf popularity apportioned exactly over the trace
    (largest remainder), so every seed serves the same mix; the seed
    shuffles its order and places one arrival uniformly at random in each
    ``1 / rate`` slot.  The offered rate is exact, and arrivals are less
    bursty than Poisson: with Poisson arrivals and a 100-query trace, the
    p90 latency moved by half its value from seed to seed.
    """
    count = spec["arrivals"]
    weights = zipf_weights(len(names), spec["zipf"])
    shares = [count * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(names)), key=lambda index: counts[index] - shares[index]
    )
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    mix = [name for name, times in zip(names, counts) for _ in range(times)]
    rng = random.Random(seed)
    rng.shuffle(mix)
    slot = 1.0 / spec["rate_qps"]
    return [((index + rng.random()) * slot, name) for index, name in enumerate(mix)]


def serve(seed: int, traced: bool, spec: dict) -> dict:
    """Many users, open loop, through one ``QueryService``."""
    names = spec["queries"]
    scale = spec["scale"]

    def request(name: str, databases: dict) -> QueryRequest:
        return QueryRequest(
            query=query_text(name), database=databases[name],
            workers=spec["workers"], label=name,
        )

    def build() -> tuple:
        databases = datasets(names, scale)
        cache = PlanCache()
        service = QueryService(
            runtime=spec["runtime"], max_inflight=spec["max_inflight"],
            plan_cache=cache,
        )
        for name in names:
            service.submit(request(name, databases))
        service.run_until_complete()
        return databases, cache, service

    (databases, cache, service), setup_times = set_up(
        build, spec["setup_repeats"]
    )
    trace = arrivals(names, seed, spec)

    def window(tracer: Optional[tracing.Tracer]) -> Window:
        measured = Window(closed=False)
        service.stats = ServiceStats()
        misses = cache.misses
        due: dict[int, tuple] = {}
        finished_at: dict[int, float] = {}
        lags = []
        seen = set(service.outcomes)
        pending = list(reversed(trace))
        service.open()
        origin = time.perf_counter()
        try:
            while pending or service.inflight or service.queued:
                now = time.perf_counter() - origin
                while pending and pending[-1][0] <= now:
                    offset, name = pending.pop()
                    query_id = service.submit(request(name, databases))
                    lags.append(time.perf_counter() - origin - offset)
                    due[query_id] = (name, origin + offset)
                if not (service.inflight or service.queued):
                    time.sleep(max(0.0, pending[-1][0] - now))
                    continue
                started = time.perf_counter()
                service.step()
                finished = time.perf_counter()
                measured.busy += finished - started
                for query_id in service.outcomes.keys() - seen:
                    seen.add(query_id)
                    finished_at[query_id] = finished
        finally:
            service.close()
        # rows are checked after the window, so checking delays no query
        for query_id in sorted(finished_at):
            measured.samples.append(_served(
                service.outcomes.pop(query_id), due[query_id],
                finished_at[query_id], scale, tracer,
            ))
        measured.lookups = service.stats.cache_hits + service.stats.cache_misses
        measured.hits = service.stats.cache_hits
        if service.stats.cache_misses or cache.misses != misses:
            raise InvalidRun("serve: a plan-cache lookup missed in the window")
        measured.extra["lags"] = lags
        measured.extra["service"] = service.stats
        return measured

    return measure(window, setup_times, traced)


def _served(outcome, due: tuple, finished: float, scale: str, tracer) -> Sample:
    """Turn one service outcome into a sample timed from its due time."""
    name, due_at = due
    sample = Sample(name, ok=False, query=outcome.query_id)
    if tracer is not None and outcome.query_id in tracer.admitted_at:
        sample.admitted = tracer.admitted_at[outcome.query_id] - due_at
    if not outcome.ok:
        return sample
    sample.wrong = not rows_match(scale, name, outcome.rows)
    sample.ok = not sample.wrong
    sample.latency = finished - due_at
    sample.counted = counted(outcome.stats)
    return sample


WORKLOAD_DRIVERS = {"adhoc": adhoc, "warm": warm, "serve": serve}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def measure(
    window: Callable[[Optional[tracing.Tracer]], Window],
    setup_times: list[float],
    traced: bool,
) -> dict:
    """Run the untraced window, and with ``traced`` replay it traced."""
    untraced = window(None)
    if not traced:
        return result(untraced, end_to_end(untraced, setup_times))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        replay = window(tracer)
    finally:
        uninstall()
    same = [s.counted for s in untraced.samples] == [
        s.counted for s in replay.samples
    ]
    if not same:
        raise InvalidRun("counted metrics differ between traced and untraced runs")
    both = Window(samples=untraced.samples + replay.samples)
    return result(both, per_layer(replay, tracer, untraced), tracer=tracer)


def result(window: Window, metrics: dict, tracer=None) -> dict:
    """The benchmark's result object (metrics as ``{name: (value, unit)}``)."""
    return {
        "correct": not any(sample.wrong for sample in window.samples),
        "attempted": len(window.samples),
        "failed": sum(not sample.ok for sample in window.samples),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "tracer": tracer,
    }


def _ok(window: Window) -> list[Sample]:
    ok = [sample for sample in window.samples if sample.ok]
    if not ok:
        raise InvalidRun("no query completed correctly")
    return ok


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(window: Window, setup_times: list[float]) -> dict:
    """Every end-to-end metric of one untraced window.

    In a closed loop every query type runs once per pass, and a type's
    latency is its fastest in the run: on a machine shared with other
    tenants, contention only ever slows a query down, so the minimum over
    passes is the estimate it disturbs least.  Throughput is one pass at
    those latencies, and the latency quantiles are taken over the types.
    In the open loop a type's latency is its median, the quantiles are
    taken over all queries, and throughput is queries per busy second.
    """
    ok = _ok(window)
    by_name = defaultdict(list)
    for sample in ok:
        by_name[sample.name].append(sample.latency)
    if window.closed:
        per_type = [min(values) for values in by_name.values()]
        latencies = per_type
        throughput = len(per_type) / sum(per_type)
    else:
        per_type = [statistics.median(values) for values in by_name.values()]
        latencies = [sample.latency for sample in ok]
        throughput = len(ok) / window.busy
    return {
        "throughput_qps": (throughput, "q/s"),
        "latency_geomean_s": (
            math.exp(statistics.fmean(math.log(t) for t in per_type)), "s"
        ),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (percentile(latencies, 0.90), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "tuples_shuffled": (
            statistics.fmean(sample.counted[0] for sample in ok), "tuples/q"
        ),
        "counted_wall": (
            statistics.fmean(sample.counted[1] for sample in ok), "units/q"
        ),
        "peak_memory_tuples": (
            max(sample.counted[2] for sample in ok), "tuples"
        ),
    }


def per_layer(window: Window, tracer: tracing.Tracer, untraced: Window) -> dict:
    """Every per-layer metric of one traced window (0 where a layer is idle)."""
    ok = _ok(window)
    queries = len(window.samples)

    def per_query(layer: str) -> tuple:
        return tracer.layer_self(layer) / queries, "s/q"

    def count(counter: str) -> tuple:
        return tracer.counts[counter] / queries, "count/q"

    exchange = tracer.inclusive.get("engine.exchange", 0.0)
    shipped = tracer.counts["runtime.rows_shipped"]
    service = window.extra.get("service", ServiceStats())
    admitted = [s.admitted for s in ok if not math.isnan(s.admitted)]
    executing = [
        s.latency - s.admitted for s in ok if not math.isnan(s.admitted)
    ]
    return {
        "query.parse_s": per_query("query.parse"),
        "query.catalog_s": per_query("query.catalog"),
        "query.cache_key_s": per_query("query.cache_key"),
        "planner.optimize_s": per_query("planner.optimize"),
        "planner.estimate_costs_s": per_query("planner.estimate_costs"),
        "planner.decompose_s": per_query("planner.decompose"),
        "planner.hybrid_shapes": count("planner.hybrid_shapes"),
        "planner.lower_s": per_query("planner.lower"),
        "planner.cache_hit_ratio": (
            window.hits / window.lookups if window.lookups else 0.0, "ratio"
        ),
        "hypercube.config_s": per_query("hypercube.config"),
        "hypercube.config_calls": count("hypercube.config_calls"),
        "hypercube.workload_calls": count("hypercube.workload_calls"),
        "engine.cluster_s": per_query("engine.cluster"),
        "engine.round_s": (
            tracer.inclusive.get("engine.round", 0.0) / queries, "s/q"
        ),
        "engine.round_self_s": per_query("engine.round"),
        "engine.finalize_s": per_query("engine.finalize"),
        "engine.rounds": count("engine.rounds"),
        "engine.exchange_s": per_query("engine.exchange"),
        "engine.exchange_tuples_per_s": (
            sum(s.counted[0] for s in ok) / exchange if exchange else 0.0,
            "tuples/s",
        ),
        "engine.consumer_skew_max": (max(s.counted[3] for s in ok), "ratio"),
        "kernels.partition_s": per_query("kernels.partition"),
        "kernels.sort_s": per_query("kernels.sort"),
        "kernels.hash_join_s": per_query("kernels.hash_join"),
        "kernels.filter_s": per_query("kernels.filter"),
        "engine.local_join_s": per_query("engine.local_join"),
        "runtime.local_phase_s": per_query("runtime.local_phase"),
        "runtime.session_s": per_query("runtime.session"),
        "runtime.shm_ratio": (
            tracer.counts["runtime.rows_shm"] / shipped if shipped else 0.0,
            "ratio",
        ),
        "service.queue_wait_p50_s": (
            statistics.median(admitted) if admitted else 0.0, "s"
        ),
        "service.exec_p50_s": (
            statistics.median(executing) if executing else 0.0, "s"
        ),
        "service.step_self_s": per_query("service.step"),
        "service.ticks_per_query": (service.ticks / queries, "count/q"),
        "service.peak_inflight": (service.peak_inflight, "count"),
        "service.oom_retries": (service.oom_retries, "count"),
        "serve.generator_lag_p99_s": (
            percentile(window.extra.get("lags", []), 0.99), "s"
        ),
        "python.gc_s": (tracer.gc_seconds / queries, "s/q"),
        "python.gc_gen2": count("python.gc_gen2"),
        "trace.overhead_s": ((window.busy - untraced.busy) / queries, "s/q"),
    }


def run(workload: str, seed: int, traced: bool, **overrides) -> dict:
    """Run one workload; ``overrides`` adjust its spec (tests shrink it)."""
    spec = {**SPEC["common"], **SPEC["workloads"][workload], **overrides}
    if traced:  # only the untraced run reports set-up time
        spec["setup_repeats"] = 1
    return WORKLOAD_DRIVERS[workload](seed, traced, spec)

