"""Concurrency pack suite: rules R007–R010, named locks, and the runtime
lock-order sanitizer.

Mirrors ``tests/test_analysis.py``: each rule gets fixture snippets that
(a) trigger it, (b) stay silent on the compliant variant, and (c) are
silenced by a justified ``# repro: noqa[RULE]``; the real tree must lint
clean under the pack; and the sanitizer is exercised end-to-end with a
lock-checked chaos soak that must report zero order violations and zero
unguarded shared writes.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import Analyzer
from repro.analysis import lockcheck as lc
from repro.analysis.concurrency import (
    AtomicCounterRule,
    BlockingUnderLockRule,
    GuardedStateRule,
    LockOrderRule,
    build_static_graph,
    concurrency_rules,
    find_cycles,
)
from repro.data.schema import Entity, EntityPair
from repro.matchers.base import Matcher
from repro.reliability.locks import (
    LOCK_HIERARCHY,
    REGISTRY,
    NamedLock,
    named_lock,
)
from repro.serving import (
    DegradationCascade,
    InferenceService,
    ScoringTier,
    ServingConfig,
    default_chaos_plan,
    run_soak,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

_fresh = itertools.count()


def fresh_name(stem: str = "lock") -> str:
    """A registry-unique unranked lock name (REGISTRY is process-global)."""
    return f"test.{stem}.{next(_fresh)}"


def lint_sources(tmp_path, sources, rules, paths=None):
    """Write ``rel -> source`` files under ``tmp_path`` and lint them."""
    for rel, text in sources.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    analyzer = Analyzer(root=tmp_path, rules=rules)
    return analyzer.run(paths if paths is not None else list(sources))


def rule_lines(report, rule_id):
    return [f.line for f in report.findings if f.rule == rule_id]


@pytest.fixture(autouse=True)
def lockcheck_off():
    """Never leak an installed checker into (or out of) a test."""
    yield
    lc.disable()


# ======================================================================
# Named locks + the hierarchy registry
# ======================================================================
class TestNamedLock:
    def test_rank_comes_from_hierarchy(self):
        lock = named_lock("serving.submit")
        assert lock.order == LOCK_HIERARCHY["serving.submit"] == 10
        assert REGISTRY["serving.submit"] == 10

    def test_unranked_lock_registers_none(self):
        name = fresh_name()
        lock = named_lock(name)
        assert lock.order is None
        assert name in REGISTRY and REGISTRY[name] is None

    def test_explicit_order_must_agree_with_hierarchy(self):
        with pytest.raises(ValueError, match="rank"):
            named_lock("serving.submit", order=99)

    def test_reregistration_with_conflicting_order_raises(self):
        name = fresh_name()
        named_lock(name, order=5)
        named_lock(name, order=5)  # same rank: fine (same site, N instances)
        with pytest.raises(ValueError, match="already registered"):
            named_lock(name, order=6)

    def test_lock_semantics(self):
        lock = named_lock(fresh_name())
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert not lock.acquire(blocking=False)
        assert not lock.locked()
        assert lock.acquire()
        lock.release()

    def test_repr_carries_name_and_rank(self):
        assert "serving.model" in repr(named_lock("serving.model"))
        assert "rank 30" in repr(named_lock("serving.model"))
        assert "unranked" in repr(named_lock(fresh_name()))

    def test_hierarchy_ranks_are_unique_and_sorted_for_nesting(self):
        ranks = list(LOCK_HIERARCHY.values())
        assert len(set(ranks)) == len(ranks), "equal ranks cannot nest"


# ======================================================================
# R007 — guarded-state discipline
# ======================================================================
R007_CLASS_HEADER = (
    "import threading\n"
    "import queue\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._q = queue.Queue()\n"
)


class TestR007GuardedState:
    rules = [GuardedStateRule()]

    def test_unguarded_assign_and_mutator_flagged(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "        self.items = []\n"
            "    def poke(self):\n"
            "        self.count = 1\n"
            "        self.items.append(1)\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R007") == [9, 10]

    def test_write_under_lock_clean(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self.count = 1\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_thread_safe_attribute_types_exempt(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "        self.done = threading.Event()\n"
            "    def poke(self):\n"
            "        self._q = queue.Queue()\n"
            "        self.done = threading.Event()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_init_writes_exempt(self, tmp_path):
        src = R007_CLASS_HEADER + "        self.count = 0\n"
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_guarded_helper_method_fixpoint(self, tmp_path):
        # _bump is only ever called under the lock -> its writes are guarded.
        src = R007_CLASS_HEADER + (
            "    def _bump(self):\n"
            "        self.count = self.count + 1\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_unguarded_call_site_breaks_the_fixpoint(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def _bump(self):\n"
            "        self.count = self.count + 1\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n"
            "    def race(self):\n"
            "        self._bump()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R007") == [8]

    def test_thread_spawning_class_without_locks_flagged(self, tmp_path):
        src = (
            "import threading\n"
            "class W:\n"
            "    def start(self):\n"
            "        self.workers = [threading.Thread(target=print)]\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, [GuardedStateRule()])
        assert rule_lines(report, "R007") == [4]

    def test_plain_class_not_in_scope(self, tmp_path):
        src = ("class P:\n"
               "    def poke(self):\n"
               "        self.count = 1\n")
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_noqa_suppresses_with_justification(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def poke(self):\n"
            "        self.count = 1  # repro: noqa[R007] -- fixture\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok and report.suppressed == 1


# ======================================================================
# R008 — static lock-order graph
# ======================================================================
class TestR008LockOrder:
    rules = [LockOrderRule()]

    def test_rank_violation_flagged(self, tmp_path):
        src = (
            "from repro.reliability.locks import named_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._inner = named_lock('reliability.counters')\n"
            "        self._outer = named_lock('serving.submit')\n"
            "    def bad(self):\n"
            "        with self._inner:\n"
            "            with self._outer:\n"
            "                pass\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R008") == [8]

    def test_correct_nesting_clean(self, tmp_path):
        src = (
            "from repro.reliability.locks import named_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._outer = named_lock('serving.submit')\n"
            "        self._inner = named_lock('reliability.counters')\n"
            "    def good(self):\n"
            "        with self._outer:\n"
            "            with self._inner:\n"
            "                pass\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_same_lock_nesting_is_self_deadlock(self, tmp_path):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def bad(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R008") == [7]
        assert "self-deadlock" in report.findings[0].message

    def test_unranked_cycle_across_functions_flagged(self, tmp_path):
        src = (
            "import threading\n"
            "a = threading.Lock()\n"
            "b = threading.Lock()\n"
            "def f():\n"
            "    with a:\n"
            "        with b:\n"
            "            pass\n"
            "def g():\n"
            "    with b:\n"
            "        with a:\n"
            "            pass\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        findings = [f for f in report.findings if f.rule == "R008"]
        assert any("cycle" in f.message for f in findings)

    def test_bare_acquire_flagged(self, tmp_path):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def manual(self):\n"
            "        self._lock.acquire()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R008") == [6]
        assert "bare .acquire()" in report.findings[0].message

    def test_interprocedural_edge_one_level(self, tmp_path):
        # helper() lexically acquires the low-rank lock; calling it while
        # holding the high-rank lock is the same inversion, one call deep.
        src = (
            "from repro.reliability.locks import named_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._hi = named_lock('reliability.counters')\n"
            "        self._lo = named_lock('serving.submit')\n"
            "    def helper(self):\n"
            "        with self._lo:\n"
            "            pass\n"
            "    def bad(self):\n"
            "        with self._hi:\n"
            "            self.helper()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R008") == [11]
        assert "via call to helper()" in report.findings[0].message

    def test_container_mutator_names_not_resolved(self, tmp_path):
        # self._records.remove() is a list op, not QuarantineStore.remove-
        # style reentry; leaf names in MUTATORS never match defs.
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._records = []\n"
            "    def remove(self, r):\n"
            "        with self._lock:\n"
            "            self._records.remove(r)\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_noqa_suppresses(self, tmp_path):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def manual(self):\n"
            "        self._lock.acquire()  # repro: noqa[R008] -- fixture\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok and report.suppressed == 1


# ======================================================================
# R009 — no blocking call under a lock
# ======================================================================
R009_HEADER = (
    "import threading\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
)


class TestR009BlockingUnderLock:
    rules = [BlockingUnderLockRule()]

    @pytest.mark.parametrize("call", [
        "open('/tmp/x')", "time.sleep(0.1)", "fault_point('site')",
        "self.event.wait()", "self.work_queue.get()",
    ])
    def test_blocking_calls_flagged(self, tmp_path, call):
        src = R009_HEADER + (
            "    def run(self):\n"
            "        with self._lock:\n"
            f"            {call}\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R009") == [7], call

    def test_matcher_forward_flagged(self, tmp_path):
        src = R009_HEADER + (
            "    def run(self, pairs):\n"
            "        with self._lock:\n"
            "            return self.matcher.predict(pairs)\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R009") == [7]

    def test_model_lock_score_allowlisted(self, tmp_path):
        # The one sanctioned case: chunked tier-1 scoring under the model
        # lock (bitwise parity requires serialized scoring).
        src = (
            "from repro.reliability.locks import named_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._model_lock = named_lock('serving.model')\n"
            "    def run(self, chunk):\n"
            "        with self._model_lock:\n"
            "            return self.matcher.score(chunk)\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_io_named_lock_exempt(self, tmp_path):
        src = (
            "import os\n"
            "from repro.reliability.locks import named_lock\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._io_lock = named_lock('guard.quarantine.io')\n"
            "    def flush(self, tmp, path):\n"
            "        with self._io_lock:\n"
            "            with open(tmp, 'w') as fh:\n"
            "                fh.write('x')\n"
            "            os.replace(tmp, path)\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_blocking_outside_lock_clean(self, tmp_path):
        src = R009_HEADER + (
            "    def run(self):\n"
            "        with self._lock:\n"
            "            x = 1\n"
            "        open('/tmp/x')\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_same_class_helper_reached_one_level(self, tmp_path):
        src = R009_HEADER + (
            "    def _dump(self):\n"
            "        open('/tmp/x')\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            self._dump()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R009") == [9]
        assert "_dump" in report.findings[0].message

    def test_dict_get_not_flagged(self, tmp_path):
        src = R009_HEADER + (
            "    def run(self):\n"
            "        with self._lock:\n"
            "            return self._cache.get('k')\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_noqa_suppresses(self, tmp_path):
        src = R009_HEADER + (
            "    def run(self):\n"
            "        with self._lock:\n"
            "            open('/tmp/x')  # repro: noqa[R009] -- fixture\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok and report.suppressed == 1


# ======================================================================
# R010 — atomic counters
# ======================================================================
class TestR010AtomicCounters:
    rules = [AtomicCounterRule()]

    def test_global_counters_augassign_flagged(self, tmp_path):
        src = ("from repro.reliability.counters import COUNTERS\n"
               "def f():\n"
               "    COUNTERS.drift_flags += 1\n")
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R010") == [3]
        assert "increment" in report.findings[0].message

    def test_global_counters_plain_store_flagged(self, tmp_path):
        src = ("from repro.reliability.counters import COUNTERS\n"
               "def f():\n"
               "    COUNTERS.drift_flags = 5\n")
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R010") == [3]

    def test_rebinding_counters_name_not_flagged(self, tmp_path):
        src = "from repro.reliability.counters import RecoveryCounters\nCOUNTERS = RecoveryCounters()\n"
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_unguarded_self_rmw_flagged(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def poke(self):\n"
            "        self.count += 1\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert rule_lines(report, "R010") == [8]

    def test_rmw_under_lock_clean(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_rmw_in_guarded_helper_clean(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def _bump(self):\n"
            "        self.count += 1\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_plain_class_rmw_not_in_scope(self, tmp_path):
        src = ("class P:\n"
               "    def poke(self):\n"
               "        self.count += 1\n")
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok

    def test_noqa_suppresses(self, tmp_path):
        src = R007_CLASS_HEADER + (
            "    def poke(self):\n"
            "        self.count += 1  # repro: noqa[R010] -- fixture\n"
        )
        report = lint_sources(tmp_path, {"m.py": src}, self.rules)
        assert report.ok and report.suppressed == 1


# ======================================================================
# The real tree is race-free under the pack
# ======================================================================
class TestRealTree:
    def test_src_tree_clean_under_concurrency_pack(self):
        analyzer = Analyzer(root=REPO_ROOT, rules=concurrency_rules())
        report = analyzer.run(["src/repro"])
        assert report.ok, report.human()

    def test_static_graph_is_acyclic_with_real_edges(self):
        graph = build_static_graph(REPO_ROOT)
        assert graph["acyclic"] and not graph["cycles"]
        edges = {(e["src"], e["dst"]) for e in graph["edges"]}
        # The verified real nestings of the serving stack.
        assert ("serving.submit", "serving.counters") in edges
        assert ("serving.breaker", "reliability.counters") in edges
        for name in LOCK_HIERARCHY:
            assert name in graph["nodes"]
        # Every static edge respects the rank table.
        for src, dst in edges:
            if src in LOCK_HIERARCHY and dst in LOCK_HIERARCHY:
                assert LOCK_HIERARCHY[src] < LOCK_HIERARCHY[dst], (src, dst)

    def test_find_cycles_helper(self):
        assert find_cycles([("a", "b"), ("b", "a")]) == [["a", "b"]]
        assert find_cycles([("a", "a")]) == [["a"]]
        assert find_cycles([("a", "b"), ("b", "c")]) == []


# ======================================================================
# Runtime sanitizer: LockCheck unit behaviour
# ======================================================================
class TestLockCheck:
    def test_order_violation_recorded(self):
        check = lc.enable()
        hi = named_lock("reliability.counters")   # rank 80
        lo = named_lock("serving.submit")         # rank 10
        with hi:
            with lo:
                pass
        report = check.report()
        assert not check.clean
        [violation] = report["order_violations"]
        assert violation["kind"] == "order"
        assert violation["held"] == "reliability.counters"
        assert violation["acquiring"] == "serving.submit"
        assert (violation["held_rank"], violation["acquiring_rank"]) == (80, 10)

    def test_correct_order_is_clean_and_records_edges(self):
        check = lc.enable()
        outer = named_lock("serving.submit")
        inner = named_lock("reliability.counters")
        for _ in range(3):
            with outer:
                with inner:
                    pass
        report = check.report()
        assert check.clean
        assert report["acquisitions"]["serving.submit"] == 3
        [edge] = report["edges"]
        assert (edge["src"], edge["dst"]) == ("serving.submit",
                                              "reliability.counters")
        assert edge["count"] == 3

    def test_same_name_nesting_is_self_deadlock(self):
        check = lc.enable()
        name = fresh_name("dup")
        first, second = named_lock(name), named_lock(name)
        with first:
            with second:
                pass
        [violation] = check.report()["order_violations"]
        assert violation["kind"] == "self_deadlock"

    def test_dynamic_cycle_detected_without_ranks(self):
        check = lc.enable()
        a, b = named_lock(fresh_name("cyc")), named_lock(fresh_name("cyc"))
        with a:
            with b:
                pass
        with b:
            with a:  # closes the a -> b -> a cycle, no ranks involved
                pass
        kinds = [v["kind"] for v in check.report()["order_violations"]]
        assert "cycle" in kinds

    def test_violations_deduplicated(self):
        check = lc.enable()
        hi, lo = named_lock("reliability.counters"), named_lock("serving.submit")
        for _ in range(5):
            with hi:
                with lo:
                    pass
        assert len(check.report()["order_violations"]) == 1

    def test_strict_mode_raises_at_the_broken_acquire(self):
        lc.enable(strict=True)
        hi = named_lock("reliability.counters")
        lo = named_lock("serving.submit")
        with hi:
            with pytest.raises(lc.LockOrderViolation):
                with lo:
                    pass

    def test_hold_times_reported(self):
        check = lc.enable()
        lock = named_lock(fresh_name("hold"))
        with lock:
            time.sleep(0.002)
        stats = check.report()["hold_ms"][lock.name]
        assert stats["count"] == 1
        assert stats["p99_ms"] >= 1.0

    def test_holding_reflects_current_thread(self):
        check = lc.enable()
        lock = named_lock(fresh_name("held"))
        assert not check.holding(lock.name)
        with lock:
            assert check.holding(lock.name)
        assert not check.holding(lock.name)

    def test_enable_disable_restores_hook(self):
        from repro.reliability import locks as locks_mod

        assert locks_mod._hook is None
        check = lc.enable()
        assert locks_mod._hook is check and lc.active() is check
        assert lc.disable() is check
        assert locks_mod._hook is None and lc.active() is None

    def test_context_manager_restores_previous(self):
        with lc.lockcheck() as check:
            assert lc.active() is check
        assert lc.active() is None

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCKCHECK", "0")
        assert not lc.env_requested()
        assert lc.enable_from_env() is None
        monkeypatch.setenv("REPRO_LOCKCHECK", "1")
        assert lc.env_requested()
        check = lc.enable_from_env()
        assert check is not None and lc.active() is check

    def test_zero_overhead_when_disabled(self):
        lock = named_lock(fresh_name("off"))
        with lock:  # no hook installed: must not touch any checker state
            pass
        check = lc.enable()
        assert check.report()["acquisitions"] == {}

    def test_watch_attributes_reports_unguarded_rebind(self):
        class Shared:
            pass

        name = fresh_name("watch")
        lock = named_lock(name)
        check = lc.enable()
        uninstall = lc.watch_attributes(Shared, {"x": name})
        try:
            obj = Shared()
            obj.x = 0          # first write: pre-publication, exempt
            assert check.clean
            with lock:
                obj.x = 1      # guarded rebind: fine
            assert check.clean
            obj.x = 2          # unguarded rebind: violation
            [violation] = check.report()["unguarded_writes"]
            assert violation["kind"] == "unguarded_write"
            assert violation["cls"] == "Shared" and violation["attr"] == "x"
        finally:
            uninstall()
        obj2 = Shared()
        obj2.x = 0
        obj2.x = 3  # watch uninstalled: no new violations
        assert len(check.report()["unguarded_writes"]) == 1

    def test_install_watches_roundtrip(self):
        from repro.serving.service import _RequestCounters

        lc.enable()
        original = _RequestCounters.__setattr__
        uninstall = lc.install_watches()
        assert _RequestCounters.__setattr__ is not original
        uninstall()
        assert _RequestCounters.__setattr__ is original


# ======================================================================
# End to end: lock-checked chaos soak (the acceptance gate)
# ======================================================================
class _ConstMatcher(Matcher):
    name = "const"

    def __init__(self, value: float):
        self.value = value
        self.threshold = 0.5
        self.scale = None

    def fit(self, dataset):
        return self

    def scores(self, pairs):
        return np.full(len(pairs), self.value, dtype=np.float64)

    def predict(self, pairs):
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


def _pairs(n):
    out = []
    for i in range(n):
        left = Entity(uid=f"l{i}", attributes=(("name", f"item {i}"),))
        right = Entity(uid=f"r{i}", attributes=(("name", f"item {i}"),))
        out.append(EntityPair(left=left, right=right, label=1))
    return tuple(out)


def _stub_cascade():
    return DegradationCascade(tiers=[
        ScoringTier(name="full", level=1, matcher=_ConstMatcher(0.9)),
        ScoringTier(name="features", level=2, matcher=_ConstMatcher(0.7)),
        ScoringTier(name="tfidf", level=3, matcher=_ConstMatcher(0.3)),
    ])


class TestLockcheckedSoak:
    def test_soak_smoke_reports_lockcheck_and_stays_clean(self):
        report = run_soak(
            _stub_cascade(), _pairs(8),
            config=ServingConfig(queue_capacity=16, num_workers=2),
            n_clients=2, requests_per_client=4, pairs_per_request=4,
            seed=0, lockcheck=True)
        assert report.lockcheck is not None
        assert report.locks_clean and report.ok, report.summary()
        assert sum(report.lockcheck["acquisitions"].values()) > 0
        assert "lockcheck:" in report.summary()
        # the sanitizer was uninstalled on the way out
        assert lc.active() is None

    def test_soak_without_lockcheck_has_no_report(self):
        report = run_soak(
            _stub_cascade(), _pairs(4),
            config=ServingConfig(num_workers=1),
            n_clients=1, requests_per_client=2, pairs_per_request=2,
            seed=0, lockcheck=False)
        assert report.lockcheck is None
        assert report.locks_clean  # vacuously: ok keeps its old meaning

    def test_env_var_turns_the_soak_sanitizer_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCKCHECK", "1")
        report = run_soak(
            _stub_cascade(), _pairs(4),
            config=ServingConfig(num_workers=1),
            n_clients=1, requests_per_client=2, pairs_per_request=2,
            seed=0)
        assert report.lockcheck is not None

    @pytest.mark.slow
    def test_four_thread_chaos_soak_is_race_free(self):
        """The acceptance gate: 4 workers + chaos plan under the
        sanitizer must report zero lock-order violations and zero
        unguarded shared writes."""
        report = run_soak(
            _stub_cascade(), _pairs(16),
            config=ServingConfig(queue_capacity=16, num_workers=4,
                                 breaker_failures=3),
            plan=default_chaos_plan(period=3, stall_period=5,
                                    poison_period=7),
            n_clients=6, requests_per_client=20, pairs_per_request=8,
            deadline_s=2.0, seed=0, lockcheck=True)
        assert report.lockcheck is not None
        assert report.lockcheck["order_violations"] == []
        assert report.lockcheck["unguarded_writes"] == []
        assert report.conserved and report.ok, report.summary()
        # the chaos soak actually exercised the lock hierarchy
        acquired = set(report.lockcheck["acquisitions"])
        assert {"serving.submit", "serving.counters"} <= acquired
