"""Regenerate ``expected.json``: row count and digest per query and scale.

The reference rows come from one fixed strategy (HC_TJ on 8 workers,
serial), not from the optimizer the benchmark exercises, so a planner
change that picks a wrong plan cannot move its own reference.

Usage::

    python3 joinbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.planner.api import run_query  # noqa: E402
from repro.workloads.registry import WORKLOADS  # noqa: E402

from workloads import SPEC, datasets, digest  # noqa: E402


def main() -> int:
    scales: dict[str, set] = {}
    for spec in SPEC["workloads"].values():
        scales.setdefault(spec["scale"], set()).update(spec["queries"])
    expected = {}
    for scale, names in sorted(scales.items()):
        databases = datasets(sorted(names), scale)
        expected[scale] = {}
        for name in sorted(names):
            result = run_query(
                WORKLOADS[name].query, databases[name], strategy="HC_TJ",
                workers=8, runtime="serial",
            )
            expected[scale][name] = {
                "rows": len(result.rows), "digest": digest(result.rows),
            }
            print(scale, name, expected[scale][name], flush=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
