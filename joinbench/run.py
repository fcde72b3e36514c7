"""Repository benchmark: cold ad-hoc planning, warm multicore execution,
open-loop serving.

Usage, from the root of a checkout::

    python3 joinbench/run.py --workload adhoc|warm|serve --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (whose spans are
also written to ``joinbench/out/<workload>-<seed>.spans.jsonl`` and
``.trace.json``).  Workload parameters live in ``spec.json``, expected
rows in ``expected.json``.  A run is a fixed count of whole queries set in
``spec.json``; ``--seconds`` is accepted for the harness and does not
change what a run measures.

Every exit path reaps the run's child processes and unlinks the
``/dev/shm/psm_*`` segments the run created; a segment left behind counts
as a failed operation.  Segments that existed before the run are reported
on standard error and left alone.  SIGTERM and an internal deadline end
the run through the same clean-up, without a result.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import signal
import sys
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: the run ends itself (with clean-up, no result) before the outside limit
RUN_DEADLINE_S = 170


class Stopped(BaseException):
    """SIGTERM or the run deadline; a BaseException so no handler eats it."""


def shm_segments() -> set[str]:
    """Names of the shared-memory segments multiprocessing creates."""
    return {os.path.basename(path) for path in glob.glob("/dev/shm/psm_*")}


def reap_children() -> None:
    """Terminate and join every child process this run started."""
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()


def stop_resource_tracker() -> None:
    """Stop the shared-memory tracker process, if the run started one.

    The process runtime's shared-memory transport starts it; left alone it
    would outlive the run until it noticed the run was gone.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _stop(signum, frame) -> None:
    raise Stopped(signal.Signals(signum).name)


def main(argv=None, **overrides) -> int:
    """Run one workload and print its result; ``overrides`` shrink the spec."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("adhoc", "warm", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted; a run is a fixed count of queries")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no engine source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import workloads

    before = shm_segments()
    if before:
        print("shared-memory segments present before the run (left alone): "
              + " ".join(sorted(before)), file=sys.stderr)
    handlers = {
        signum: signal.signal(signum, _stop)
        for signum in (signal.SIGTERM, signal.SIGALRM)
    }
    signal.alarm(RUN_DEADLINE_S)
    outcome = None
    try:
        outcome = workloads.run(
            args.workload, args.seed, bool(args.trace), **overrides
        )
    except Stopped as stop:
        print(f"stopped by {stop}", file=sys.stderr)
    except workloads.InvalidRun as invalid:
        print(f"invalid run: {invalid}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    finally:
        signal.alarm(0)
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        reap_children()
        leftovers = shm_segments() - before
        for name in sorted(leftovers):
            print(f"unlinking leftover shared-memory segment {name}",
                  file=sys.stderr)
            try:
                os.unlink(f"/dev/shm/{name}")
            except FileNotFoundError:
                pass
        stop_resource_tracker()
    if outcome is None:
        return 1
    tracer = outcome.pop("tracer")
    if tracer is not None:
        tracer.write(HERE / "out" / f"{args.workload}-{args.seed}")
    outcome["failed"] += len(leftovers)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
