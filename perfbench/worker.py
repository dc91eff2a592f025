"""One workload process: set up, then measure (see ``run.py``).

Modes:

* ``setup``    — set up, print ``setup_s`` (an extra set-up sample) and
  any recovery samples the workload can take without its measured phase;
* ``untraced`` — set up, run one measured phase, print the end-to-end
  metrics, gates and exact counts;
* ``traced``   — set up, run the phase untraced and then traced, print
  per-layer metrics, the tracing overhead and any exact count that differs
  between the two phases (same seed, same inputs);
* ``warm``     — pretrain the LM checkpoint into the on-disk cache.

``setup_s`` is the CPU time of this process from its start to the end of
set-up, at the reference host speed of slices taken before, during and
after set-up (see ``workloads.py``).  The last stdout line is one JSON
object.
"""

import time

WALL_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from reference import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Reference slices taken just before and just after set-up.
SETUP_SLICES = 20
#: CPU seconds between two reference slices during set-up.
SETUP_SLICE_EVERY_S = 0.05


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "untraced", "traced", "warm"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if args.mode == "warm":
        workloads.warm_lm_checkpoint()
        print(json.dumps({"warmed": True}))
        return 0
    os.makedirs(args.workdir, exist_ok=True)
    # One vCPU for every thread of the process, so the reference slices
    # (taken on the main thread) time the CPU that the serving threads run
    # on too: the two vCPUs of a shared host run at different speeds.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]
    speed = HostSpeed(time.thread_time, workload.reference)
    speed.slice(SETUP_SLICES)
    with speed.sampling(SETUP_SLICE_EVERY_S):
        state = workload.setup(args.seed, args.seconds, args.workdir)
    speed.slice(SETUP_SLICES)
    setup_s = (time.process_time() - speed.total) / speed.slowdown
    result = {"setup_s": setup_s, "setup_slowdown": speed.slowdown,
              "setup_wall_s": time.perf_counter() - WALL_STARTED,
              "sizes": state["sizes"]}
    if args.mode == "setup":
        result["recovery_samples_s"] = workload.setup_recovery(state)
        print(json.dumps(result))
        return 0

    if args.mode == "untraced":
        measured = workloads.phase(args.workload, state, args.workdir,
                                   None, traced_run=False)
        result.update(
            metrics=dict(measured["metrics"], peak_rss_mb=_peak_rss_mb(),
                         setup_s=setup_s),
            gates=measured["gates"], details=measured["details"],
            attempted=measured["attempted"], failed=measured["failed"],
            counts=measured["counts"])
    else:
        baseline = workloads.phase(args.workload, state, args.workdir,
                                   None, traced_run=True)
        tracer = Tracer()
        traced = workloads.phase(args.workload, state, args.workdir,
                                 tracer, traced_run=True)
        per_layer = {name: 0.0 for name, _ in workloads.PER_LAYER}
        per_layer.update(workload.layers(traced, tracer))
        per_layer.update(state["timings"])
        # Traced over untraced time per unit of work.
        per_layer["trace_overhead"] = (baseline["metrics"]["throughput"]
                                       / traced["metrics"]["throughput"] - 1.0)
        mismatched = sorted(
            name for name in baseline["counts"]
            if baseline["counts"][name] != traced["counts"].get(name))
        gates = {f"untraced.{k}": v for k, v in baseline["gates"].items()}
        gates.update({f"traced.{k}": v for k, v in traced["gates"].items()})
        result.update(
            metrics={name: per_layer[name] for name, _ in workloads.PER_LAYER},
            gates=gates, details=traced["details"],
            attempted=baseline["attempted"] + traced["attempted"],
            failed=baseline["failed"] + traced["failed"],
            counts=traced["counts"], count_mismatches=mismatched)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
