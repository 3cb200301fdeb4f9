#!/usr/bin/env python3
"""Self-test of the benchmark at shrunken sizes.

    python3 perfbench/selftest.py

On every workload: an untraced and a traced run must emit exactly the
metrics BENCHMARK.json names and fail no job, with the stdout digests of a
first pass as the expected digests.  The outputs of that pass must then fail
the output checks once an expected digest or a closed form is corrupted, so
failed_ops cannot be vacuously 0.  Exits 0 when every check holds.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import jobs
import run

SEED = run.DEFAULT_SEED


def failures(passed: run.Pass, digests: dict[str, str] | None) -> int:
    return sum(1 for r in passed.runs
               if run.check_output(r.job, r.code, r.stdout, digests))


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"] for m in bench["end_to_end"]},
              True: {m["name"] for m in bench["per_layer"]}}
    env = run.job_env()
    run.check_program(env)
    run.OUT_DIR.mkdir(exist_ok=True)
    errors = []
    for workload in jobs.WORKLOADS:
        job_list = jobs.make_jobs(workload, SEED, run.verify_fit_json, small=True)
        first = run.run_pass(job_list, env, time.monotonic() + run.DEADLINE_S, None)
        digests = {r.job.job_id: hashlib.sha256(r.stdout).hexdigest() for r in first.runs}
        for trace in (False, True):
            result = run.run(workload, SEED, 0, trace, small=True, digests=digests)
            if set(result["metrics"]) != wanted[trace]:
                errors.append(f"{workload} trace={trace}: metrics "
                              f"{sorted(set(result['metrics']) ^ wanted[trace])} "
                              "missing or extra")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace={trace}: failed_ops > 0 on correct code")

        corrupt = dict(digests, **{job_list[0].job_id: "0" * 64})
        if failures(first, corrupt) != 1:
            errors.append(f"{workload}: a corrupted digest went unnoticed")
        original = jobs.parking_count, jobs.area_mean
        jobs.parking_count = lambda n, a: original[0](n, a) + 1
        jobs.area_mean = lambda n, a: original[1](n, a) + 1
        try:
            if not failures(first, None):
                errors.append(f"{workload}: a corrupted closed form went unnoticed")
        finally:
            jobs.parking_count, jobs.area_mean = original

    for e in errors:
        print(f"SELFTEST FAIL {e}", file=sys.stderr)
    print("selftest passed" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
