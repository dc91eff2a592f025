#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload resolve-stream --seed 1 \
        --seconds 10 --trace 0

Workloads are described in ``perfbench/workloads.py``.  Each runs in fresh
worker processes (``perfbench/worker.py``) built from ``src/``; this script
only orchestrates them:

* it first makes sure the pretrained LM checkpoint the model workloads load
  is in the on-disk cache (a one-off of about a minute, never timed), and
  records whether set-up found it warm;
* ``--trace 0``: one worker measures the end-to-end metrics, and two more
  only set up, so ``setup_s`` is the median of three process starts (the
  set-up-only workers also time cheap recoveries, pooled into
  ``recovery_s``);
* ``--trace 1``: one worker runs the phase untraced and then traced, and
  reports per-layer metrics and the tracing overhead.

End-to-end times are CPU time of the worker process (see
``perfbench/workloads.py``).  Before the result it prints one JSON line of
provenance: host, versions, sizes, gates, exact counts and wall times.
The last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  A failed gate makes ``correct`` false; a worker that
crashes or overruns makes the exit code non-zero with no result line.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 3
#: Every run must end within 180 s, except the first one in a checkout,
#: which also pretrains the LM checkpoint (about a minute) and must end
#: within 900 s.
RUN_BUDGET_S = 170
FIRST_RUN_BUDGET_S = 880


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One BLAS thread: the matrices are small, and two vCPUs shared by
    # BLAS threads and serving workers make timings swing.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _worker(args, mode, workdir, deadline):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--workdir", workdir]
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(command, cwd=ROOT, env=_env(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _lm_checkpoint_warm() -> bool:
    sys.path.insert(0, SRC)
    return workloads.lm_checkpoint_path().exists()


def _host(args, warm, sizes):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "lm_checkpoint_warm": warm,
        "sizes": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # A terminated run exits through subprocess.run, which kills and reaps
    # the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2

    warm = _lm_checkpoint_warm()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        if not warm:
            _worker(args, "warm", workdir, time.monotonic()
                    + FIRST_RUN_BUDGET_S - RUN_BUDGET_S)
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            measured = _worker(args, "traced", workdir, deadline)
            metrics = measured["metrics"]
            units = dict(workloads.PER_LAYER)
        else:
            measured = _worker(args, "untraced", workdir, deadline)
            extra = [_worker(args, "setup", workdir, deadline)
                     for _ in range(SETUP_SAMPLES - 1)]
            details = measured["details"]
            details["setup_samples_s"] = [measured["setup_s"]] + [
                sample["setup_s"] for sample in extra]
            for key in ("setup_wall_s", "setup_slowdown"):
                details[f"{key}_samples"] = [measured[key]] + [
                    sample[key] for sample in extra]
            for sample in extra:
                details["recovery_samples_s"] += sample["recovery_samples_s"]
            metrics = dict(
                measured["metrics"],
                setup_s=statistics.median(details["setup_samples_s"]),
                recovery_s=statistics.median(details["recovery_samples_s"]))
            units = dict(workloads.END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "host": _host(args, warm, measured["sizes"]),
        "gates": measured["gates"],
        "counts": measured["counts"],
        "count_mismatches": measured.get("count_mismatches", []),
        "details": measured["details"],
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": all(measured["gates"].values()),
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
