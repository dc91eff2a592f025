"""Tests of the benchmark's own arithmetic and gates.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    Span, Tracer, percentile, samples_beyond, tail_percentile,
)


# -- percentiles ----------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("count,q,beyond", [
    (100, 90, 10), (99, 90, 9), (1000, 99, 10), (999, 99, 9),
    (9400, 99, 94), (9400, 99.9, 9), (120, 90, 12)])
def test_samples_beyond(count, q, beyond):
    assert samples_beyond(count, q) == beyond
    ordered = list(range(count))
    assert sum(1 for v in ordered if v > percentile(ordered, q)) == beyond


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert tail_percentile(list(range(9400)))[0] == 99.0
    assert tail_percentile(list(range(10000)))[0] == 99.9
    assert tail_percentile(list(range(999)))[0] == 90.0
    assert tail_percentile(list(range(120))) == (90.0, 107)
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)))


# -- span self time -------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Scorer:
    def __init__(self, clock):
        self.clock = clock

    def scores(self, pairs):
        self.clock.now += 4.0
        return [0.5] * len(pairs)


class _Base:
    def offer(self, record):
        self.clock.now += 1.0
        self.scorer.scores([record, record])
        self.clock.now += 2.0
        self.scorer.scores([record])
        self.clock.now += 3.0
        return True

    @classmethod
    def build(cls, clock):
        resolver = cls()
        resolver.clock = clock
        resolver.scorer = _Scorer(clock)
        clock.now += 5.0
        return resolver


class _Resolver(_Base):
    pass


def test_self_time_subtracts_nested_spans():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)
    tracer.instrument(_Resolver, "offer", "resolve.offer")
    tracer.instrument(_Scorer, "scores", "resolve.scorer",
                      lambda args, result: tracer.count("pairs", len(result)))
    tracer.instrument(_Resolver, "build", "resolve.build")
    resolver = _Resolver.build(clock)
    assert resolver.offer("r1") is True
    assert tracer.durations("resolve.offer") == [14.0]
    assert tracer.self_times("resolve.offer") == [6.0]
    assert tracer.self_times("resolve.scorer") == [4.0, 4.0]
    assert tracer.self_times("resolve.build") == [5.0]
    assert tracer.counts["pairs"] == 3
    assert sum(span.own for span in tracer.spans) == 14.0 + 5.0
    # In closing order: build, the two nested scorer calls, then offer.
    assert [span.start for span in tracer.spans] == [0.0, 6.0, 12.0, 5.0]
    tracer.restore()
    # Inherited and class methods come back exactly as they were.
    assert "offer" not in vars(_Resolver)
    assert _Resolver.offer is _Base.offer
    assert isinstance(vars(_Base)["build"], classmethod)
    assert "build" not in vars(_Resolver)
    calls = len(tracer.spans)
    _Resolver.build(clock).offer("r2")
    assert len(tracer.spans) == calls


def test_spans_nest_per_thread():
    tracer = Tracer()
    inner_done = threading.Event()
    outer = tracer.open("outer")

    def other_thread():
        span = tracer.open("worker")
        tracer.close(span)
        inner_done.set()

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and inner_done.is_set()
    tracer.close(outer)
    (outer_span,) = [s for s in tracer.spans if s.name == "outer"]
    # The other thread's span is not a child of this thread's span.
    assert outer_span.duration == outer_span.own


def test_training_steps_run_from_first_forward_to_update():
    spans = [
        Span("model.forward", 0.0, 2.0, 2.0),
        Span("autograd.backward", 2.0, 3.0, 3.0),
        Span("model.forward", 5.5, 1.0, 1.0),  # a second forward, same step
        Span("optim.step", 7.0, 1.0, 1.0),
        Span("model.eval_forward", 8.0, 4.0, 4.0),  # validation: no step
        Span("optim.step", 12.0, 1.0, 1.0),  # an update with no forward
        Span("model.forward", 20.0, 2.0, 2.0),
        Span("optim.step", 23.0, 0.5, 0.5),
    ]
    assert workloads.training_steps(spans) == [(0.0, 8.0), (20.0, 3.5)]
    assert workloads.training_steps(spans[:2]) == []


# -- host-speed reference ------------------------------------------------
NOMINAL = 0.0005


def _slices(warm_times):
    """A HostSpeed on a fake clock whose slices' timed (warm) runs take
    ``warm_times``; each untimed (cold) run takes 1 ms."""
    clock = _FakeClock()
    runs = iter([t for warm in warm_times for t in (0.001, warm)])

    def work():
        clock.now += next(runs)

    speed = reference.HostSpeed(
        clock=clock, reference=reference.Reference(work, NOMINAL))
    assert speed.slice(len(warm_times)) == pytest.approx(
        0.001 * len(warm_times) + sum(warm_times))
    return speed, clock


def test_one_slow_slice_does_not_move_the_host_speed():
    speed, clock = _slices([NOMINAL] * 9 + [100 * NOMINAL])
    assert speed.total == pytest.approx(0.01 + 109 * NOMINAL)
    assert speed.slowdown == pytest.approx(1.0)
    assert speed.local(clock.now) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        reference.HostSpeed().slowdown


def test_host_speed_follows_the_share_of_slow_time():
    speed, clock = _slices([NOMINAL] * 10 + [2 * NOMINAL] * 10)
    # Half the phase ran at half speed: its total time was 1.5x nominal.
    assert speed.slowdown == pytest.approx(1.5)
    # A latency sample is scaled by the slices around it.
    assert speed.local(clock.now, window=0.004) == pytest.approx(2.0)
    assert speed.local(0.0, window=0.004) == pytest.approx(1.0)


def test_sampling_slices_during_cpu_work_then_stops():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    speed = reference.HostSpeed(clock=time.thread_time)
    with speed.sampling(every=0.02):
        began = time.process_time()
        while time.process_time() - began < 0.3:
            sum(range(1000))
    assert len(speed.marks) >= 5
    assert all(timed > 0 for _, timed in speed.marks)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before


def test_reference_slices_do_the_same_work_every_time():
    for ref in (reference.INTERPRETER, reference.TABLE):
        assert ref.work() == ref.work()
    assert reference.TABLE.work() > reference.INTERPRETER.work()


# -- inputs ---------------------------------------------------------------
def test_new_seed_changes_inputs_not_sizes():
    first = workloads.resolve_setup(1, 0.3)
    second = workloads.resolve_setup(2, 0.3)
    assert first["sizes"] == second["sizes"]
    assert len(first["records"]) == len(second["records"])
    assert ([r.text() for r in first["records"]]
            != [r.text() for r in second["records"]])
    assert first["schedule"] != second["schedule"]
    again = workloads.resolve_setup(1, 0.3)
    assert [r.text() for r in again["records"]] == \
        [r.text() for r in first["records"]]

    queries = [workloads.serve_inputs(seed, 10) for seed in (1, 2)]
    assert queries[0]["sizes"] == queries[1]["sizes"]
    # A seed changes what is sent, not the mix of queries and writes.
    assert [kind for kind, _ in queries[0]["events"]] == \
        [kind for kind, _ in queries[1]["events"]]
    assert [r.text() for _, r in queries[0]["events"]] != \
        [r.text() for _, r in queries[1]["events"]]

    train = [workloads.train_inputs(seed) for seed in (1, 2)]
    assert train[0]["sizes"] == train[1]["sizes"]
    assert ([p.left.text() for p in train[0]["dataset"].split.train]
            != [p.left.text() for p in train[1]["dataset"].split.train])


# -- gates ------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_stream(tmp_path_factory):
    state = workloads.resolve_setup(3, 0.2)
    workdir = str(tmp_path_factory.mktemp("resolve"))
    from repro.resolve import JaccardScorer, StreamingResolver, WriteAheadLog

    resolver = StreamingResolver(
        JaccardScorer(), config=state["config"],
        wal=WriteAheadLog(os.path.join(workdir, "wal")))
    for index in state["schedule"]:
        resolver.offer(state["records"][index], seq=index)
    resolver.close()
    return state, resolver


def _resolve_gates(state, resolver, **overrides):
    store = resolver.store
    args = dict(clusters=store.clusters(), edges=store.edges(),
                seed=state["config"].seed, stats=resolver.stats(),
                ingested=len(state["records"]), live_digest=store.digest(),
                resumed_digests=[store.digest()], f1=0.95)
    args.update(overrides)
    return workloads.resolve_gates(**args)


def test_resolve_gates_pass_on_a_real_stream(small_stream):
    gates = _resolve_gates(*small_stream)
    assert gates and all(gates.values()), gates


def test_resolve_gates_fail_on_broken_inputs(small_stream):
    state, resolver = small_stream
    clusters = resolver.store.clusters()
    merged = (tuple(sorted(clusters[0] + clusters[1])),) + clusters[2:]
    assert not _resolve_gates(
        state, resolver, clusters=merged)["streaming_equals_offline"]
    stats = dict(resolver.stats(), pending=1)
    assert not _resolve_gates(state, resolver, stats=stats)["conserved"]
    assert not _resolve_gates(
        state, resolver, ingested=len(state["records"]) + 1)["conserved"]
    assert not _resolve_gates(
        state, resolver, resumed_digests=["0" * 32])["resume_digest_equal"]
    assert not _resolve_gates(
        state, resolver, resumed_digests=[])["resume_digest_equal"]
    assert not _resolve_gates(state, resolver, f1=0.002)["f1_above_floor"]


def test_serve_gates_fail_on_broken_inputs():
    scores = np.array([0.25, 0.75])
    good = workloads.serve_gates(10, 9, 1, True, [(scores, scores.copy())])
    assert all(good.values())
    assert not workloads.serve_gates(10, 8, 1, True,
                                     [(scores, scores)])["conserved"]
    assert not workloads.serve_gates(10, 9, 1, False,
                                     [(scores, scores)])["conserved"]
    nudged = scores.copy()
    nudged[1] = np.nextafter(nudged[1], 1.0)
    assert not workloads.serve_gates(
        10, 9, 1, True, [(scores, nudged)])["tier1_bitwise_parity"]
    assert not workloads.serve_gates(10, 9, 1, True,
                                     [])["tier1_bitwise_parity"]


def test_train_gates_fail_on_broken_inputs():
    assert all(workloads.train_gates([0.6, 0.5], 57.1, True).values())
    assert not workloads.train_gates([0.6, math.nan], 57.1,
                                     True)["loss_finite"]
    assert not workloads.train_gates([], 57.1, True)["loss_finite"]
    assert not workloads.train_gates([0.6], 0.0,
                                     True)["holdout_f1_above_floor"]
    assert not workloads.train_gates([0.6], 57.1,
                                     False)["resume_bitwise_equal"]


# -- the contract file ----------------------------------------------------
def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(workloads.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
