#!/usr/bin/env python3
"""Rewrite the golden output summaries at the benchmark's default seed.

Run from the repository root after a change that alters outputs on
purpose:

    python3 perfbench/make_golden.py

and record the old and new values of the changed rows with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.run import Runner  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            runner = Runner(workload, DEFAULT_SEED, Path(tmp))
            runner.run_pass()
            for (experiment, _), path in zip(runner.steps, runner.paths):
                summary = checks.golden_summary(*checks.read_csv(path))
                out = checks.golden_path(workload.name, experiment)
                rows = summary.pop("rows")
                body = ",\n".join(json.dumps(row) for row in rows)  # one row per line, for diffs
                out.write_text(json.dumps(summary, sort_keys=True)[:-1] + ', "rows": [\n' + body + "\n]}\n")
                print(f"wrote {out.relative_to(ROOT)}: {summary['n_rows']} rows, stride {summary['stride']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
