#!/usr/bin/env python3
"""demapsim benchmark: end-to-end metrics per workload, or per-layer spans.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-gmi --seed 12345 --seconds 50 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

One run measures set-up in fresh processes, makes one warm-up pass,
then repeats the workload's experiments in-process for ``--seconds``.
The pass time it reports is the mean over that window, so that every
stretch of the window counts by its length: on a shared host the speed
changes in phases of several seconds, and a median over a few passes
would report whichever phase held most of them.  Set-up is the median
of its processes.  With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics are medians over the traced passes,
and the CPU figures and tracing overhead come from the untraced ones.  Every pass's
outputs must be byte-identical to the warm-up's, which must pass the
checks in ``checks.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, work  # noqa: E402

MIN_PASSES = 3  # per kind (untraced / traced), even if --seconds runs out

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# <span>.<stat> names from the traced passes, then process and trace rows
_SPAN_STATS = [
    ("reference.exact_llr", ("self_s", "calls", "samples", "samples_per_s", "repeat_frac")),
    ("reference.maxlog_llr", ("self_s", "calls", "samples", "samples_per_s")),
    ("analog.demap_static", ("total_s", "samples", "samples_per_s")),
    ("analog.cell_output_v", ("self_s", "calls")),
    ("metrics.mi_summands", ("self_s", "samples_per_s")),
    ("metrics.evaluate_demappers", ("self_s", "total_s")),
    ("channel.transmit", ("self_s", "samples")),
    ("channel.worker_rng", ("self_s", "calls")),
    ("dynamics.sampled_outputs", ("self_s", "symbols", "symbols_per_s")),
    ("dynamics.ber_vs_rate", ("self_s", "total_s")),
    ("dynamics.simulate_transient", ("total_s",)),
    ("harness.write_csv", ("self_s", "rows", "bytes")),
    ("harness.write_metadata", ("self_s",)),
    ("harness.run_llr_curves", ("self_s",)),
    ("harness.calibrate", ("total_s", "calls")),
    ("calibration.fit_output_map", ("self_s", "calls")),
    ("analog.build_demapper", ("total_s",)),
]
_STAT_UNITS = {
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "samples": ("count", "lower"),
    "symbols": ("count", "lower"),
    "rows": ("count", "lower"),
    "bytes": ("B", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "symbols_per_s": ("1/s", "higher"),
    "repeat_frac": ("frac", "lower"),
}
SPAN_METRICS = [(f"{span}.{stat}", *_STAT_UNITS[stat]) for span, stats in _SPAN_STATS for stat in stats]
PER_LAYER = SPAN_METRICS + [
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_per_wall", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from demapsim import harness
cfg = harness.load_config(None, json.loads(sys.argv[3]))
harness.validate_config(cfg, sys.argv[2])
harness.Workbench.from_config(cfg)
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    from importlib import metadata

    import numpy
    import scipy

    def dist_version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": dist_version("click"),
        "pyyaml": dist_version("PyYAML"),
        "git_commit": commit,
    }


def setup_command(workload, seed: int) -> list[str]:
    """A fresh process that imports demapsim, resolves and validates the
    first step's config and builds the Workbench; it prints its seconds."""
    experiment, overrides = workload.configs(seed)[0]
    return [sys.executable, "-c", SETUP_CODE, str(SRC), experiment, json.dumps(overrides)]


def measure_setup(cmd: list[str]) -> float:
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Runner:
    """Runs one pass of a workload's experiments into fixed paths."""

    def __init__(self, workload, seed: int, out_dir: Path):
        from demapsim import harness

        self.harness = harness
        self.steps = workload.configs(seed)
        self.paths = [out_dir / f"{i}-{exp}.csv" for i, (exp, _) in enumerate(self.steps)]
        self.cfgs: list[dict] = []

    def run_pass(self, on_step=None) -> tuple[float, float, list[float]]:
        """(wall, cpu, wall per step) seconds from load_config through the written files.

        ``on_step(i)`` is called before step ``i`` starts.
        """
        cfgs, step_walls = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        for i, ((experiment, overrides), path) in enumerate(zip(self.steps, self.paths)):
            if on_step is not None:
                on_step(i)
            t = time.perf_counter()
            cfg = self.harness.load_config(None, overrides)
            self.harness.run_experiment(experiment, cfg, path)
            cfgs.append(cfg)
            step_walls.append(time.perf_counter() - t)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.cfgs = cfgs
        return wall, cpu, step_walls

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.paths:
            for p in (path, Path(str(path) + ".meta.json")):
                with open(p, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
        return h.hexdigest()

    def worker_twins(self) -> list[tuple[int, int]]:
        """(i, j) for steps that differ only in n_workers, fewer workers in i."""

        def inputs(step):
            experiment, overrides = step
            return experiment, json.dumps({k: v for k, v in overrides.items() if k != "n_workers"}, sort_keys=True)

        workers = [overrides.get("n_workers", 1) for _, overrides in self.steps]
        n = len(self.steps)
        return [
            (i, j)
            for i in range(n)
            for j in range(n)
            if inputs(self.steps[i]) == inputs(self.steps[j]) and workers[i] < workers[j]
        ]

    def worker_count_differs(self) -> list[str]:
        """Steps that differ only in n_workers must write byte-identical CSVs."""
        return [
            f"{self.steps[j][0]}: CSV with {self.cfgs[j]['n_workers']} workers differs from "
            f"{self.cfgs[i]['n_workers']}"
            for i, j in self.worker_twins()
            if self.paths[i].read_bytes() != self.paths[j].read_bytes()
        ]


def layer_values(agg: dict, repeats: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its aggregated spans."""
    out = {}
    for span, stats in _SPAN_STATS:
        a = agg.get(span, {})
        for stat in stats:
            if stat.endswith("_per_s"):
                count = a.get(stat[: -len("_per_s")], 0)
                value = count / a["total_s"] if count else 0.0
            elif stat == "repeat_frac":
                value = repeats / a["samples"] if a.get("samples") else 0.0
            else:
                value = a.get(stat, 0)
            out[f"{span}.{stat}"] = value
    return out


def check_reference(workload, runner, seed: int) -> tuple[list[str], dict]:
    failures, info = [], {"rows": []}
    for (experiment, _), cfg, path in zip(runner.steps, runner.cfgs, runner.paths):
        golden = None
        if seed == DEFAULT_SEED:
            gpath = checks.golden_path(workload.name, experiment)
            if gpath.is_file():
                golden = json.loads(gpath.read_text())
            else:
                failures.append(f"{experiment}: golden file {gpath.name} is missing")
        f, step_info = checks.check_output(experiment, cfg, path, golden)
        failures += f
        info["rows"].append(step_info["rows"])
        if "gmi_z_max" in step_info:
            info["gmi_z_max"] = step_info["gmi_z_max"]
    return failures, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "demapsim" / "__init__.py").is_file():
        print(f"error: {SRC / 'demapsim'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    env = environment()
    # Set-up is timed once after every untraced pass, so that its samples
    # spread over the window like the passes do, not over one burst.
    setup_cmd = None if trace else setup_command(workload, seed)
    setup: list[float] = []
    if setup_cmd:
        measure_setup(setup_cmd)  # warms the file cache; not counted

    from perfbench.tracing import Tracer, aggregate

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    passes = []  # (traced, wall, cpu, digest, wall per step)
    raised = 0
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as tmp:
        out_dir = Path(tmp)
        runner = Runner(workload, seed, out_dir)
        try:
            runner.run_pass()  # warm-up; its outputs are the checked reference
        except Exception:
            traceback.print_exc()
            print(f"error: the warm-up pass of {name} raised", file=sys.stderr)
            return 1
        reference = runner.digest()

        deadline = time.perf_counter() + seconds
        while True:
            n_plain = sum(1 for p in passes if not p[0])
            n_traced = len(passes) - n_plain
            if time.perf_counter() >= deadline and n_plain >= MIN_PASSES and (
                not trace or n_traced >= MIN_PASSES
            ):
                break
            traced = trace and len(passes) % 2 == 1
            try:
                if traced:
                    tracer.run_id = len(passes)
                    with tracer.installed():
                        wall, cpu, step_walls = runner.run_pass(tracer.start_step)
                else:
                    wall, cpu, step_walls = runner.run_pass()
                passes.append((traced, wall, cpu, runner.digest(), step_walls))
            except Exception:  # a raised run counts as failed; keep measuring
                traceback.print_exc()
                raised += 1
                if raised > 3 and not passes:
                    break
            if setup_cmd:
                setup.append(measure_setup(setup_cmd))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        plain = [p for p in passes if not p[0]]
        if not plain:
            print(f"error: every untraced pass of {name} raised", file=sys.stderr)
            return 1
        try:
            failures, info = check_reference(workload, runner, seed)
            failures += runner.worker_count_differs()
        except Exception as exc:  # a check that cannot run fails the outputs
            traceback.print_exc()
            failures, info = [f"output check raised {exc!r}"], {"rows": [0] * len(runner.steps)}

    attempted = 1 + len(passes) + raised
    mismatched = sum(1 for p in passes if p[3] != reference)
    failed = attempted if failures else raised + mismatched
    if mismatched:
        failures.append(f"{mismatched} passes wrote outputs that differ from the warm-up pass")

    wall = statistics.fmean(p[1] for p in plain)
    if trace:
        traced_passes = [p for p in passes if p[0]]
        per_pass = [
            layer_values(aggregate(tracer.run_spans(i)), tracer.repeats.get(i, 0))
            for i, p in enumerate(passes)
            if p[0]
        ]
        metrics = {m: statistics.median(v[m] for v in per_pass) for m, _, _ in SPAN_METRICS}
        metrics["process.cpu_s"] = statistics.fmean(p[2] for p in plain)
        metrics["process.cpu_per_wall"] = metrics["process.cpu_s"] / wall
        metrics["trace.overhead_s"] = statistics.fmean(p[1] for p in traced_passes) - wall
        units = PER_LAYER
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
    else:
        items = sum(work(exp, cfg, rows) for (exp, _), cfg, rows in zip(runner.steps, runner.cfgs, info["rows"]))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "work_per_s": items / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(
        f"# workload {name} seed {seed}: {len(plain)} untraced and {len(passes) - len(plain)} traced "
        f"passes, untraced walls {[round(p[1], 4) for p in plain]}, set-up {[round(t, 4) for t in setup]}"
    )
    step_walls = [statistics.fmean(p[4][k] for p in plain) for k in range(len(runner.steps))]
    print("# mean step walls: " + ", ".join(
        f"{exp} ({cfg['n_workers']} workers) {t:.4f} s" for (exp, _), cfg, t in zip(runner.steps, runner.cfgs, step_walls)
    ))
    for i, j in runner.worker_twins():  # a derived number, not gated
        ratio = step_walls[i] / step_walls[j]
        print(f"# derived: {runner.cfgs[i]['n_workers']}->{runner.cfgs[j]['n_workers']} worker speed-up {ratio:.3f}")
    if "gmi_z_max" in info:
        print(f"# gmi_z_max {info['gmi_z_max']:.3f} (limit {checks.Z_MAX})")
    if trace:
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# failed_frac {failed / attempted:.4f} ({failed} of {attempted} runs)")
    for metric, unit, _ in units:
        print(f"{metric:<40} {metrics[metric]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit, _ in units},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith("# ") and (not line.startswith("# env") or not results):
                print(f"{name}: {line[2:]}")
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:<16} {metric:<40} {m['value']:>16.6g} {m['unit']}")
        status |= 0 if results[name]["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
