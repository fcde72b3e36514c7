"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the root of the repository::

    python3 -m pytest -q joinbench/test_joinbench.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: each workload shrunk to a few unit-scale queries
TINY = {
    "adhoc": dict(scale="unit", workers=8, queries=["Q1", "Q7", "Q3"],
                  setup_repeats=1),
    "warm": dict(scale="unit", workers=8, queries=["Q1", "Q7", "Q5"],
                 setup_repeats=1),
    "serve": dict(queries=["Q1", "Q7", "Q5"], arrivals=12, rate_qps=20.0,
                  setup_repeats=1),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def empty_plan_cache():
    """Each run starts like a fresh process: nothing planned yet."""
    from repro.planner.optimizer import GLOBAL_PLAN_CACHE

    GLOBAL_PLAN_CACHE.clear()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_end_to_end(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        **TINY[workload],
    )
    assert code == 0
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._pid is None
    outcome = last_json(capsys.readouterr().out)
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] and outcome["failed"] == 0
    assert outcome["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in outcome["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in outcome["metrics"].values())


def test_traced_spans_conserve_self_time_per_query():
    outcome = workloads.run("serve", 5, True, **TINY["serve"])
    tracer = outcome["tracer"]
    queries = [query for query in tracer.conservation() if query is not None]
    # attempts count both the untraced window and its traced replay
    assert len(queries) == outcome["attempted"] // 2
    for query, (own, roots) in tracer.conservation().items():
        assert own == pytest.approx(roots, rel=1e-9, abs=1e-9), query
    assert tracer.layer_self("engine.round") > 0


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    inner = tracer.timed("inner", leaf)

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    outer = tracer.timed("outer", outer_body)
    tracer.query = 7
    outer()
    spans = {span[1]: span for span in tracer.spans if span[1] == "outer"}
    _, _, start, end, own, parent, query = spans["outer"]
    assert parent is None and query == 7
    assert own == pytest.approx(
        (end - start) - tracer.inclusive["inner"], abs=1e-9
    )
    own_total, roots = tracer.conservation()[7]
    assert own_total == pytest.approx(roots, abs=1e-9)
    assert roots == pytest.approx(end - start, abs=1e-9)


def test_corrupted_digest_is_a_failure(monkeypatch, capsys):
    corrupted = json.loads(json.dumps(workloads.EXPECTED))
    corrupted["unit"]["Q7"]["digest"] = "0" * 16
    monkeypatch.setattr(workloads, "EXPECTED", corrupted)
    for workload in ("adhoc", "warm"):
        assert run.main(
            ["--workload", workload, "--seed", "1", "--seconds", "1"],
            **TINY[workload],
        ) == 0
        outcome = last_json(capsys.readouterr().out)
        assert not outcome["correct"]
        assert outcome["failed"] == outcome["attempted"] // 3


def test_counted_metrics_mismatch_invalidates_the_traced_run():
    def window(tracer):
        sample = workloads.Sample("Q1", ok=True, latency=1.0,
                                  counted=(1 if tracer is None else 2, 0, 0, 0))
        return workloads.Window(samples=[sample], busy=1.0)

    with pytest.raises(workloads.InvalidRun):
        workloads.measure(window, [1.0], traced=True)


def test_leftover_shared_memory_is_unlinked_and_counted(monkeypatch, capsys):
    created = []

    def leaky(*args, **kwargs):
        segment = shared_memory.SharedMemory(create=True, size=64)
        resource_tracker.unregister(segment._name, "shared_memory")
        segment.close()
        created.append(segment.name)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {}, "tracer": None}

    monkeypatch.setattr(workloads, "run", leaky)
    assert run.main(["--workload", "warm", "--seed", "1", "--seconds", "1"]) == 0
    assert last_json(capsys.readouterr().out)["failed"] == 1
    assert not os.path.exists(f"/dev/shm/{created[0].lstrip('/')}")


def group_members(group: int) -> set[int]:
    """Live process ids in one process group (from ``/proc``)."""
    members = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[2]) == group and fields[0] != "Z":
                members.add(int(entry))
    return members


def test_sigterm_mid_run_leaves_no_children_or_segments():
    before = run.shm_segments()
    program = (
        "import sys; sys.path.insert(0, 'joinbench'); import run; "
        "sys.exit(run.main(['--workload', 'warm', '--seed', '1', "
        "'--seconds', '1'], scale='unit', workers=8, queries=['Q1', 'Q5'], "
        "setup_repeats=1, passes=200))"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", program], cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 120
    while len(group_members(child.pid)) < 2:  # wait for worker processes
        assert child.poll() is None, child.communicate()
        assert time.monotonic() < deadline
        time.sleep(0.2)
    child.send_signal(signal.SIGTERM)
    out, err = child.communicate(timeout=60)
    assert child.returncode != 0
    assert out.strip() == ""
    assert "stopped by SIGTERM" in err
    assert group_members(child.pid) == set()
    assert run.shm_segments() - before == set()


def test_without_engine_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", "adhoc", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
