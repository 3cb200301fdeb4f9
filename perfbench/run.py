#!/usr/bin/env python3
"""parkstat benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from ./src).

Load shape: a closed loop with one client.  Each job is a fresh interpreter
running `python -m parkstat.cli ... --threads 1`, one at a time, because a
CLI user pays the imports and the count memo fill on every call.  A pass
runs every job of the workload once; its inputs come from --seed
(see jobs.py), and every output is checked after the job's timed span.

--trace 0 repeats passes until --seconds have been measured and reports the
end-to-end metrics:

  wall_s       median wall time of one pass
  wall_s_tail  the highest pass time with 10 passes beyond it; a run holds
               only 2-3 passes, so this is their maximum (count printed)
  cpu_s        median user+sys CPU time of one pass's job processes
  peak_rss_mb  largest ru_maxrss among the job processes
  setup_s      median time from a fresh interpreter to parkstat.cli
               imported and its parser built

failed_ops, the share of jobs with a wrong exit code or a failed check, is
printed and carried by the result's `failed` and `attempted`; it is not a
metric because it is 0 on correct code.  --trace 1 runs one untraced pass and two passes with
spans (tracer.py), checks that every job's stdout is byte-identical across
the three and that the two traced passes give identical work counts, and
reports the per-layer metrics (times are the mean of the traced passes).
The merged spans are written once, at the end, to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it give the environment and every metric with
its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "expected_digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 15
DEADLINE_S = 165.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))
import jobs as jobs_mod  # noqa: E402
from tracer import MAX_COUNTS  # noqa: E402

LAYERS = ("cli", "counting_engine", "genfun_engine", "kernels", "parking_core",
          "exactalg", "moment_lab", "conjecture_fit", "airy")

END_TO_END = {
    "wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s", "cli.import_s": "s", "cli.bytes_out": "bytes",
    "counting_engine.count_s": "s", "counting_engine.self_s": "s",
    "counting_engine.cells": "count",
    "genfun_engine.jet_s": "s", "genfun_engine.jet_targets": "count",
    "genfun_engine.jet_states": "count", "genfun_engine.jet_peak_bits": "bits",
    "genfun_engine.poly_s": "s", "genfun_engine.poly_coeff_slots": "count",
    "genfun_engine.poly_peak_bits": "bits", "genfun_engine.self_s": "s",
    "kernels.jet_step_s": "s", "kernels.jet_step_calls": "count",
    "kernels.genfun_step_s": "s", "kernels.genfun_step_calls": "count",
    "kernels.count_step_s": "s", "kernels.count_step_calls": "count",
    "kernels.brute_s": "s", "kernels.brute_calls": "count",
    "parking_core.brute_s": "s", "parking_core.self_s": "s",
    "parking_core.vectors": "count", "parking_core.vectors_per_s": "1/s",
    "parking_core.useful_ratio": "ratio",
    "exactalg.solve_s": "s", "exactalg.solve_unknowns": "count",
    "exactalg.solve_rows": "count", "exactalg.solve_peak_bits": "bits",
    "moment_lab.table_s": "s", "moment_lab.hist_render_s": "s",
    "moment_lab.rows_rendered": "count", "moment_lab.self_s": "s",
    "conjecture_fit.self_s": "s", "conjecture_fit.attempts": "count",
    "conjecture_fit.samples": "count",
    "airy.render_s": "s", "airy.rows": "count",
    **{f"{layer}.peak_rss_growth_mb": "MB" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "trace.count_s": "s",
}

# kernel function -> metric key
KERNEL_KEYS = {"jet_step": "jet_step", "genfun_step": "genfun_step",
               "count_step": "count_step", "brute_area_counts": "brute"}

# work counts that must repeat exactly between the two traced passes
WORK_COUNTS = (
    "genfun_engine.jet_targets", "genfun_engine.jet_states",
    "genfun_engine.jet_peak_bits", "genfun_engine.poly_coeff_slots",
    "genfun_engine.poly_peak_bits", "counting_engine.cells",
    "parking_core.vectors", "parking_core.found", "exactalg.solve_unknowns",
    "exactalg.solve_rows", "exactalg.solve_peak_bits", "conjecture_fit.attempts",
    "conjecture_fit.samples", "airy.rows", "moment_lab.rows_rendered",
    "kernels.jet_step_calls", "kernels.genfun_step_calls",
    "kernels.count_step_calls", "kernels.brute_calls",
)


class ProgramMissing(Exception):
    """The source tree holds no importable parkstat CLI."""


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def check_program(env: dict[str, str]) -> None:
    """Import the CLI once (this also compiles its bytecode) from ./src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import parkstat.cli as c; print(c.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    src = (ROOT / "src").resolve()
    if probe.returncode != 0 or src not in Path(probe.stdout.strip()).resolve().parents:
        raise ProgramMissing(f"parkstat.cli is not importable from {src}")


def spawn(cmd: list[str], env: dict[str, str], timeout: float,
          capture: bool = True) -> tuple[int, bytes, bytes, float] | None:
    """Run `cmd` in the source tree; (exit code, stdout, stderr, wall s).

    Returns None if the process was killed at `timeout`.  The wait blocks
    in waitpid: Popen.wait with a timeout polls with sleeps of up to 50 ms,
    which would quantize short timings.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    killed = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=pipe, stderr=pipe)

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    if killed.is_set():
        return None
    return proc.returncode, out or b"", err or b"", wall


def measure_setup(env: dict[str, str], deadline: float,
                  repeats: int = SETUP_REPEATS) -> float:
    """Median time from a fresh interpreter to the CLI imported and its parser built."""
    cmd = [sys.executable, "-c", "import parkstat.cli as c; c.build_parser()"]
    times = []
    for _ in range(repeats):
        done = spawn(cmd, env, deadline - time.monotonic(), capture=False)
        if done is None or done[0] != 0:
            raise ProgramMissing("the parkstat CLI failed to import")
        times.append(done[3])
    return statistics.median(times)


def verify_fit_json(obj: dict, points: list[tuple[int, int]]) -> bool:
    """Rebuild a fit from its JSON output and run the program's verify_fit."""
    from parkstat.conjecture_fit import FitResult, MomentAnsatz, verify_fit
    from parkstat.exactalg import SymPoly

    symbols = tuple(obj["symbols"])

    def poly(terms: list[dict]) -> SymPoly:
        return SymPoly(symbols, {tuple(t["powers"][s] for s in symbols): Fraction(t["coeff"])
                                 for t in terms})

    fit = FitResult(k=obj["k"], symbols=symbols, a_poly=poly(obj["A"]),
                    b_poly=poly(obj["B"]),
                    samples_used=[tuple(p) for p in obj["samples"]],
                    holdout_verified=[tuple(p) for p in obj["holdout"]],
                    status=obj["status"],
                    ansatz=MomentAnsatz(obj["k"], symbols, obj["deg_a"], obj["deg_b"]),
                    escalated=obj["escalated"])
    return verify_fit(fit, points)


def environment(seed: int) -> dict:
    import parkstat
    try:
        import parkstat._kernels_c  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    commit = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = rev.stdout.strip() if rev.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "backend": parkstat.BACKEND,
        "kernels_c_importable": compiled,
        "git_commit": commit,
        "seed": seed,
    }


@dataclass
class JobRun:
    job: jobs_mod.Job
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    failure: str | None = None
    trace: dict | None = None


@dataclass
class Pass:
    runs: list[JobRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.failure)


def check_output(job: jobs_mod.Job, code: int, stdout: bytes,
                 digests: dict[str, str] | None) -> str | None:
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}"
    try:
        reason = job.check(stdout)
    except (ValueError, ArithmeticError, LookupError, TypeError, csv.Error) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason is None and digests is not None:
        if hashlib.sha256(stdout).hexdigest() != digests.get(job.job_id):
            reason = "stdout differs from the recorded digest"
    return reason


def run_job(index: int, job: jobs_mod.Job, env: dict[str, str], deadline: float,
            digests: dict[str, str] | None, traced: bool = False) -> JobRun:
    """Run one job and check its output; past `deadline` it counts as failed."""
    cmd = [sys.executable, "-m", "parkstat.cli", *job.argv]
    spans_path = OUT_DIR / f"job-{index}.json"
    if traced:
        cmd[1:3] = [str(HERE / "tracer.py"), str(spans_path), job.job_id]
    run = JobRun(job, -1, b"", 0.0, 0.0)
    stderr = b""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = spawn(cmd, env, deadline - time.monotonic())
    if done is None:
        run.failure = "not finished within the run's deadline"
    else:
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        run.code, run.stdout, stderr, run.wall_s = done
        run.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        run.failure = check_output(job, run.code, run.stdout, digests)
    if traced:
        if spans_path.exists():
            run.trace = json.loads(spans_path.read_text())
            spans_path.unlink()
        elif run.failure is None:
            run.failure = "tracer wrote no spans"
    if run.failure:
        print(f"FAILED {job.job_id} {' '.join(job.argv)}: {run.failure}; "
              f"stderr: {stderr.decode(errors='replace').strip()[-300:]}",
              file=sys.stderr)
    return run


def run_pass(job_list: list[jobs_mod.Job], env: dict[str, str], deadline: float,
             digests: dict[str, str] | None) -> Pass:
    """Run every job of the workload once, untraced."""
    return Pass([run_job(i, job, env, deadline, digests) for i, job in enumerate(job_list)])


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples beyond it, else the maximum.

    Returns (value, number of samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[n - 11] if n >= 11 else ordered[-1]), n


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def _span_table(traces: list[dict]) -> list[dict]:
    """Flatten per-job spans with layer, duration and self time.

    Self time is the span's duration minus that of its direct children, so
    summing it over a layer charges every moment to the innermost span.
    """
    rows = []
    for tr in traces:
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, growth) in enumerate(spans):
            rows.append({
                "name": name, "layer": name.split(".")[0],
                "parent_layer": spans[parent][0].split(".")[0] if parent >= 0 else None,
                "dur": end - start, "self": end - start - child[i], "growth": growth,
            })
    return rows


def work_counts(traces: list[dict]) -> dict[str, int]:
    """The counts of WORK_COUNTS over all jobs of one traced pass."""
    merged: dict[str, int] = {}
    for tr in traces:
        for name, value in tr["counts"].items():
            if name in MAX_COUNTS:
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    names = [span[0] for tr in traces for span in tr["spans"]]
    for kernel, key in KERNEL_KEYS.items():
        merged[f"kernels.{key}_calls"] = names.count(f"kernels.{kernel}")
    return {name: merged.get(name, 0) for name in WORK_COUNTS}


def layer_metrics(span_pass: Pass, untraced: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    traces = [r.trace for r in span_pass.runs]
    rows = _span_table(traces)
    counts = work_counts(traces)

    def dur(name: str) -> float:
        return sum(r["dur"] for r in rows if r["name"] == name)

    def self_of(*, layer: str | None = None, name: str | None = None) -> float:
        return sum(r["self"] for r in rows
                   if (layer is None or r["layer"] == layer)
                   and (name is None or r["name"] == name))

    m: dict[str, float] = {
        "cli.self_s": self_of(layer="cli"),
        "cli.import_s": sum(tr["import_s"] for tr in traces),
        "cli.bytes_out": sum(len(r.stdout) for r in span_pass.runs),
        "counting_engine.count_s": sum(r["dur"] for r in rows if r["layer"] == "counting_engine"
                                       and r["parent_layer"] != "counting_engine"),
        "counting_engine.self_s": self_of(layer="counting_engine"),
        "genfun_engine.jet_s": dur("genfun_engine.jet_many"),
        "genfun_engine.poly_s": dur("genfun_engine.area_genfun_many"),
        "genfun_engine.self_s": self_of(layer="genfun_engine"),
        **{f"kernels.{key}_s": dur(f"kernels.{kernel}") for kernel, key in KERNEL_KEYS.items()},
        "parking_core.brute_s": dur("parking_core.brute_histogram"),
        "parking_core.self_s": self_of(layer="parking_core"),
        "exactalg.solve_s": dur("exactalg.solve_exact"),
        "moment_lab.table_s": self_of(name="moment_lab.moment_table"),
        "moment_lab.hist_render_s": self_of(name="moment_lab.scaled_histogram"),
        "moment_lab.self_s": self_of(layer="moment_lab"),
        "conjecture_fit.self_s": self_of(layer="conjecture_fit"),
        "airy.render_s": self_of(layer="airy"),
        "trace.count_s": self_of(layer="trace"),
        "trace.overhead_s": span_pass.wall_s - untraced.wall_s,
        "trace.overhead_ratio": span_pass.wall_s / untraced.wall_s - 1,
    }
    for name in WORK_COUNTS:
        if name in PER_LAYER:
            m[name] = counts[name]
    vectors = counts["parking_core.vectors"]
    m["parking_core.useful_ratio"] = counts["parking_core.found"] / vectors if vectors else 0.0
    brute_s = m["parking_core.brute_s"]
    m["parking_core.vectors_per_s"] = vectors / brute_s if brute_s else 0.0
    for layer in LAYERS:
        growth = max((r["growth"] for r in rows if r["layer"] == layer), default=0)
        m[f"{layer}.peak_rss_growth_mb"] = growth / 2**20
    return m


def write_trace(name: str, passes: dict[str, Pass]) -> Path:
    """Write every span of the traced passes, once, with its job id."""
    out = {label: [{"job": r.job.job_id, "argv": list(r.job.argv),
                    "import_s": r.trace["import_s"], "counts": r.trace["counts"],
                    "spans": [dict(zip(("name", "start", "end", "parent", "rss_growth_bytes"), s))
                              for s in r.trace["spans"]]}
                   for r in p.runs if r.trace]
           for label, p in passes.items()}
    path = OUT_DIR / f"trace-{name}.json"
    path.write_text(json.dumps(out))
    return path


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(job_list, env, seconds, deadline, digests) -> tuple[list[Pass], dict]:
    passes: list[Pass] = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        passes.append(run_pass(job_list, env, deadline, digests))
    walls = [p.wall_s for p in passes]
    tail_value, samples = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    print(f"passes {len(passes)} (wall s: {' '.join(f'{w:.3f}' for w in walls)}); "
          f"wall_s_tail is the maximum of {samples} samples")
    return passes, metrics


def traced_run(job_list, env, deadline, digests, label) -> tuple[list[Pass], dict, list[str]]:
    """One untraced and two traced passes, interleaved job by job.

    Running the three variants of a job back to back keeps slow phases of a
    shared host from landing on one variant only, which would swamp the
    tracing overhead.
    """
    untraced, first, second = Pass(), Pass(), Pass()
    for i, job in enumerate(job_list):
        untraced.runs.append(run_job(i, job, env, deadline, digests))
        first.runs.append(run_job(i, job, env, deadline, digests, traced=True))
        second.runs.append(run_job(i, job, env, deadline, digests, traced=True))
    passes = [untraced, first, second]
    problems = []
    for u, a, b in zip(untraced.runs, first.runs, second.runs):
        if not (u.stdout == a.stdout == b.stdout):
            problems.append(f"stdout of {u.job.job_id} differs with tracing on")
    if any(p.failed for p in passes):
        return passes, {}, problems
    counts_a = work_counts([r.trace for r in first.runs])
    counts_b = work_counts([r.trace for r in second.runs])
    if counts_a != counts_b:
        diff = {k: (counts_a[k], counts_b[k]) for k in counts_a if counts_a[k] != counts_b[k]}
        problems.append(f"work counts differ between traced passes: {diff}")
    ma = layer_metrics(first, untraced)
    mb = layer_metrics(second, untraced)
    metrics = {name: max(ma[name], mb[name]) if name.endswith("_mb") else
               (ma[name] + mb[name]) / 2 for name in ma}
    path = write_trace(label, {"first": first, "second": second})
    print(f"trace written to {path.relative_to(ROOT)}")
    return passes, metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, digests: dict | None = None) -> dict:
    """One benchmark run; returns the result object (see module docstring)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = job_env()
    check_program(env)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    env_info = environment(seed)
    job_list = jobs_mod.make_jobs(workload, seed, verify_fit_json, small=small)
    if digests is None and seed == DEFAULT_SEED and not small:
        digests = json.loads(DIGESTS.read_text())["digests"][workload]
    OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    if trace:
        passes, metrics, problems = traced_run(job_list, env, deadline, digests,
                                               f"{workload}-seed{seed}")
        wanted = PER_LAYER
    else:
        passes, metrics = timed_run(job_list, env, seconds, deadline, digests)
        metrics["setup_s"] = measure_setup(env, deadline, 3 if small else SETUP_REPEATS)
        wanted = END_TO_END
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    env_info["loadavg_end"] = os.getloadavg()
    env_info["workload"] = workload
    print(json.dumps({"environment": env_info}))
    for run_ in passes[0].runs:
        print(f"job {run_.job.job_id}: {' '.join(run_.job.argv)} "
              f"sha256={hashlib.sha256(run_.stdout).hexdigest()}")
    print(f"failed_ops {failed / attempted:.4f} share ({failed}/{attempted} jobs)")
    out_metrics = {}
    for name, unit in wanted.items():
        if name in metrics:
            out_metrics[name] = {"value": metrics[name], "unit": unit}
            print(f"{name} {metrics[name]:.6g} {unit}")
    correct = failed == 0 and not problems and len(out_metrics) == len(wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
