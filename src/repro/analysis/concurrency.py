"""Concurrency invariant rules (R007–R010) for the lint engine.

The serving stack runs a worker pool over hand-rolled locks; these rules
machine-check the discipline that keeps its conservation and parity
invariants true under concurrency, the way R001–R006 machine-check
determinism and cache hygiene:

* **R007 — guarded-state discipline.**  In a class that owns locks or
  spawns threads, instance attributes mutated outside ``__init__`` must
  be written under a ``with self._*_lock:`` block, be a known
  thread-safe type (``RecoveryCounters``, ``queue.Queue``, ``Event``,
  ``threading.local``…), or carry a justified ``noqa[R007]`` waiver.
  Methods only ever called with a class lock held (e.g. a ``_trip``
  helper invoked under ``with self._lock``) count as guarded.
* **R008 — static lock-order graph.**  Every nested acquisition —
  lexically nested ``with`` blocks plus one level of interprocedural
  resolution into calls made while holding — becomes an edge in a
  project-wide acquisition graph.  Edges that contradict
  :data:`repro.reliability.locks.LOCK_HIERARCHY`, same-lock re-entry,
  bare ``.acquire()`` on a tracked lock (invisible to the order
  analysis), and any cycle all fail ``repro lint``.
* **R009 — no blocking call under a lock.**  ``fault_point``, matcher
  forwards (``score``/``predict``/``fit``…), file/socket I/O, sleeps,
  and queue/event waits must not execute while a lock is held.  Two
  sanctioned escapes: an explicit allowlist (the intentional
  ``serving.model`` lock around chunked tier-1 scoring) and locks whose
  name carries an ``io`` segment (a dedicated IO lock — e.g.
  ``guard.quarantine.io`` — exists precisely to serialize IO away from
  a hot lock).
* **R010 — atomic counters.**  Read-modify-write (``+=`` and friends)
  of shared attributes in a lock-owning class must happen under a lock,
  and the global ``COUNTERS`` object may only be mutated through
  ``RecoveryCounters.increment()``.

The scope bound mirrors R002's taint analysis: per-class resolution of
``self.*`` lock attributes, module-level lock names, and a one-level
interprocedural step — enough to prove this tree, cheap enough to run
on every ``make lint``.  The runtime sanitizer
(:mod:`repro.analysis.lockcheck`) checks the same contracts on real
executions, including paths the static scope bound cannot see.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    FileContext,
    Finding,
    Project,
    ProjectRule,
    Rule,
    dotted_name,
)
from repro.reliability.locks import LOCK_HIERARCHY

#: Constructors whose instances are internally synchronized (or immutable
#: enough) — rebinding/mutating such an attribute needs no caller lock.
SAFE_TYPES = frozenset({
    "Lock", "RLock", "named_lock", "NamedLock", "Event", "Condition",
    "Semaphore", "BoundedSemaphore", "Barrier", "local",
    "Queue", "LifoQueue", "PriorityQueue", "SimpleQueue",
    "RecoveryCounters",
})

#: Plain-lock constructors (tracked as anonymous lock attributes).
_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock"})
_NAMED_LOCK_CONSTRUCTORS = frozenset({"named_lock", "NamedLock"})

#: Container methods that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "popleft", "popitem", "remove",
    "clear", "update", "add", "discard", "setdefault", "appendleft",
})

#: Call leaf names that block (or may block) the calling thread.
_BLOCKING_LEAVES = frozenset({
    "open", "sleep", "fault_point", "retry_with_backoff", "urlopen",
    "connect", "recv", "send", "sendall",
})
#: Matcher forward passes — model work never belongs under a lock unless
#: explicitly allowlisted.
_FORWARD_LEAVES = frozenset({
    "score", "scores", "predict", "forward", "fit", "transform", "encode",
})
#: ``.get``/``.put``/``.join`` block only on queue/thread-ish receivers.
_QUEUEISH_LEAVES = frozenset({"get", "put", "join"})
_QUEUEISH_TOKENS = ("queue", "thread", "worker")
#: ``os``-level file operations.
_OS_IO_LEAVES = frozenset({"replace", "rename", "remove", "unlink"})

#: (lock name, callee leaf) pairs R009 explicitly permits.  The model
#: lock *exists* to serialize tier-1 scoring: the store LRU and the
#: autograd engine are process globals, and chunked scoring must be
#: bitwise-identical to the offline single-threaded call.
DEFAULT_BLOCKING_ALLOWLIST = frozenset({("serving.model", "score")})


def _leaf_name(func: ast.AST) -> Optional[str]:
    """The rightmost name of a call target: ``a.b.c()`` -> ``c``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """First attribute above a ``self`` root: ``self.a.b[0].c`` -> ``a``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if isinstance(node, ast.Attribute) and isinstance(parent, ast.Name) \
                and parent.id == "self":
            return node.attr
        node = parent
    return None


def _io_lock(name: str) -> bool:
    """True for locks whose name declares them a dedicated IO lock."""
    segments = [p for part in name.split(".") for p in part.split("_") if p]
    return "io" in (segment.lower() for segment in segments)


class _ClassModel:
    """Lock/threading facts for one class (the shared R007–R010 substrate)."""

    def __init__(self, ctx: FileContext, node: ast.ClassDef,
                 module_locks: Dict[str, str]):
        self.ctx = ctx
        self.node = node
        self.module_locks = module_locks
        #: attr -> lock node name (the named_lock string, or rel:Class.attr
        #: for anonymous ``threading.Lock`` attributes).
        self.lock_attrs: Dict[str, str] = {}
        self.safe_attrs: Set[str] = set()
        self.spawns_threads = False
        self.methods: Dict[str, ast.FunctionDef] = {}
        self._collect()
        self.guarded_methods = self._guarded_fixpoint()

    @property
    def concurrent(self) -> bool:
        return bool(self.lock_attrs) or self.spawns_threads

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods.setdefault(stmt.name, stmt)
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Call) and _leaf_name(sub.func) == "Thread":
                self.spawns_threads = True
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            value = sub.value
            if not isinstance(value, ast.Call):
                continue
            leaf = _leaf_name(value.func)
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                if leaf in _LOCK_CONSTRUCTORS:
                    self.lock_attrs.setdefault(
                        attr, f"{self.ctx.rel}:{self.node.name}.{attr}")
                elif leaf in _NAMED_LOCK_CONSTRUCTORS:
                    name = None
                    if value.args and isinstance(value.args[0], ast.Constant) \
                            and isinstance(value.args[0].value, str):
                        name = value.args[0].value
                    self.lock_attrs.setdefault(
                        attr,
                        name or f"{self.ctx.rel}:{self.node.name}.{attr}")
                if leaf in SAFE_TYPES:
                    self.safe_attrs.add(attr)

    # ------------------------------------------------------------------
    def resolve_lock_expr(self, expr: ast.AST) -> Optional[str]:
        """The lock node name a with-item/receiver denotes, if tracked."""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self":
            return self.lock_attrs.get(expr.attr)
        if isinstance(expr, ast.Name):
            return self.module_locks.get(expr.id)
        return None

    def with_locks(self, node: ast.With) -> List[str]:
        out = []
        for item in node.items:
            name = self.resolve_lock_expr(item.context_expr)
            if name is not None:
                out.append(name)
        return out

    def held_locks(self, node: ast.AST) -> Set[str]:
        """Locks held at ``node`` via enclosing ``with`` blocks.

        Stops at the first enclosing function: a closure defined inside a
        ``with`` block may run long after the lock is released.
        """
        held: Set[str] = set()
        for ancestor in self.ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(ancestor, ast.With):
                held.update(self.with_locks(ancestor))
        return held

    def method_of(self, node: ast.AST) -> Optional[str]:
        """The class method lexically containing ``node``, if any."""
        for ancestor in self.ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and self.ctx.parent(ancestor) is self.node:
                return ancestor.name
        return None

    def _guarded_fixpoint(self) -> Set[str]:
        """Methods whose every call site holds a class lock (transitively).

        The breaker pattern: ``_trip``/``_resolve_timeout`` never take the
        lock themselves because every caller already holds it.  A method
        with no intraclass call sites is assumed callable from anywhere
        and stays unguarded.
        """
        callsites: Dict[str, List[Tuple[bool, Optional[str]]]] = {}
        for sub in ast.walk(self.node):
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "self"
                    and sub.func.attr in self.methods):
                continue
            locked = bool(self.held_locks(sub))
            callsites.setdefault(sub.func.attr, []).append(
                (locked, self.method_of(sub)))
        guarded: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for method, sites in callsites.items():
                if method in guarded:
                    continue
                if all(locked or caller in guarded
                       for locked, caller in sites):
                    guarded.add(method)
                    changed = True
        return guarded


def _module_locks(ctx: FileContext) -> Dict[str, str]:
    """Module-level ``NAME = threading.Lock()`` / ``named_lock(...)`` binds."""
    out: Dict[str, str] = {}
    if ctx.tree is None:
        return out
    for stmt in ctx.tree.body:
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
            continue
        leaf = _leaf_name(stmt.value.func)
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            if leaf in _LOCK_CONSTRUCTORS:
                out.setdefault(target.id, f"{ctx.rel}:{target.id}")
            elif leaf in _NAMED_LOCK_CONSTRUCTORS:
                name = None
                if stmt.value.args and isinstance(stmt.value.args[0], ast.Constant) \
                        and isinstance(stmt.value.args[0].value, str):
                    name = stmt.value.args[0].value
                out.setdefault(target.id, name or f"{ctx.rel}:{target.id}")
    return out


def _file_models(ctx: FileContext) -> Tuple[List[_ClassModel], Dict[str, str]]:
    """All class models + module locks for one file (cached on the ctx)."""
    cached = getattr(ctx, "_concurrency_models", None)
    if cached is not None:
        return cached
    module_locks = _module_locks(ctx)
    models: List[_ClassModel] = []
    if ctx.tree is not None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                models.append(_ClassModel(ctx, node, module_locks))
    ctx._concurrency_models = (models, module_locks)
    return models, module_locks


def _model_for(models: Sequence[_ClassModel], ctx: FileContext,
               node: ast.AST) -> Optional[_ClassModel]:
    """The class model whose body lexically contains ``node``."""
    by_id = {id(model.node): model for model in models}
    for ancestor in ctx.ancestors(node):
        model = by_id.get(id(ancestor))
        if model is not None:
            return model
    return None


# ======================================================================
# R007 — guarded-state discipline
# ======================================================================
class GuardedStateRule(Rule):
    id = "R007"
    name = "guarded-state"
    description = (
        "instance attributes of lock-owning / thread-spawning classes must "
        "be mutated under a declared lock outside __init__")

    _INIT_METHODS = ("__init__", "__post_init__", "__enter__")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        models, _ = _file_models(ctx)
        for model in models:
            if not model.concurrent:
                continue
            yield from self._check_class(ctx, model)

    def _check_class(self, ctx: FileContext,
                     model: _ClassModel) -> Iterator[Finding]:
        for name, method in model.methods.items():
            if name in self._INIT_METHODS or name in model.guarded_methods:
                continue
            for node in ast.walk(method):
                for attr, site in self._writes(node):
                    if attr in model.lock_attrs or attr in model.safe_attrs:
                        continue
                    if model.held_locks(site):
                        continue
                    locks = ", ".join(sorted(model.lock_attrs)) or "a lock"
                    yield ctx.finding(
                        self, site,
                        f"self.{attr} of concurrent class "
                        f"{model.node.name} is mutated in {name}() without "
                        f"holding a declared lock ({locks}); wrap the write "
                        f"in 'with self.<lock>:' or justify with noqa[R007]")

    def _writes(self, node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        """(first-level self attr, site) for every shared-state write."""
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                yield from self._write_targets(target)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                yield attr, node

    def _write_targets(self, target: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._write_targets(element)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            attr = _self_attr(target)
            if attr is not None:
                yield attr, target


# ======================================================================
# R008 — static lock-order graph
# ======================================================================
class _Edge:
    __slots__ = ("src", "dst", "ctx", "site", "via")

    def __init__(self, src: str, dst: str, ctx: FileContext, site: ast.AST,
                 via: Optional[str] = None):
        self.src = src
        self.dst = dst
        self.ctx = ctx
        self.site = site
        self.via = via


class _FnSummary:
    """Per-function acquisition summary for interprocedural resolution."""

    __slots__ = ("name", "cls_id", "direct")

    def __init__(self, name: str, cls_id: Optional[int]):
        self.name = name
        self.cls_id = cls_id
        self.direct: Set[str] = set()


def collect_lock_graph(contexts: Sequence[FileContext]
                       ) -> Tuple[Set[str], List[_Edge], List[Tuple[FileContext, ast.AST, str]]]:
    """The project acquisition graph: (lock nodes, edges, bare-acquire sites).

    Edges come from lexically nested ``with`` blocks plus one level of
    interprocedural resolution: a call made while holding lock L adds
    edges L -> M for every lock M the callee acquires directly.  Callees
    are matched by leaf name, receiver-aware to bound false positives:

    * ``self.m()`` resolves to methods of the enclosing class only;
    * ``self.attr.m()`` is a *different* object — methods of the
      enclosing class are excluded (``self.stats.as_dict()`` under the
      breaker lock is not a recursive breaker acquisition);
    * container-mutator leaf names (``remove``, ``add``, ``update``…)
      are never resolved interprocedurally — ``self._records.remove(r)``
      is a list op, not a call into ``QuarantineStore.remove``;
    * calls on the global ``COUNTERS`` singleton are receiver-typed to
      ``RecoveryCounters`` (its lock is charged to the calling function's
      summary, so helpers like the breaker's ``_trip`` carry it).
    """
    nodes: Set[str] = set()
    by_leaf: Dict[str, List[_FnSummary]] = {}
    functions: List[Tuple[FileContext, ast.AST, _FnSummary]] = []
    for ctx in contexts:
        if ctx.tree is None:
            continue
        models, module_locks = _file_models(ctx)
        nodes.update(module_locks.values())
        for model in models:
            nodes.update(model.lock_attrs.values())
        class_ids = {id(model.node) for model in models}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls_id = None
            for ancestor in ctx.ancestors(node):
                if id(ancestor) in class_ids:
                    cls_id = id(ancestor)
                    break
            summary = _FnSummary(node.name, cls_id)
            by_leaf.setdefault(node.name, []).append(summary)
            functions.append((ctx, node, summary))

    def resolver(ctx: FileContext, node: ast.With) -> List[str]:
        models, module_locks = _file_models(ctx)
        model = _model_for(models, ctx, node)
        if model is not None:
            return model.with_locks(node)
        out = []
        for item in node.items:
            if isinstance(item.context_expr, ast.Name):
                name = module_locks.get(item.context_expr.id)
                if name is not None:
                    out.append(name)
        return out

    for ctx, fn, summary in functions:
        for sub in ast.walk(fn):
            if isinstance(sub, ast.With):
                summary.direct.update(resolver(ctx, sub))
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                dotted = dotted_name(sub.func) or ""
                if dotted.startswith("COUNTERS."):
                    summary.direct.add("reliability.counters")

    def callee_locks(node: ast.Call, site_cls_id: Optional[int]) -> Set[str]:
        leaf = _leaf_name(node.func)
        if leaf is None or leaf == "acquire" or leaf in MUTATORS:
            return set()
        receiver = node.func.value if isinstance(node.func, ast.Attribute) \
            else None
        bare_self = isinstance(receiver, ast.Name) and receiver.id == "self"
        on_self_attr = (not bare_self and receiver is not None
                        and _self_attr(node.func) is not None)
        acquired: Set[str] = set()
        for candidate in by_leaf.get(leaf, ()):
            if bare_self and candidate.cls_id != site_cls_id:
                continue
            if on_self_attr and candidate.cls_id is not None \
                    and candidate.cls_id == site_cls_id:
                continue
            acquired |= candidate.direct
        if isinstance(receiver, ast.Name) and receiver.id == "COUNTERS":
            acquired.add("reliability.counters")
        return acquired

    edges: List[_Edge] = []
    bare: List[Tuple[FileContext, ast.AST, str]] = []
    for ctx, fn, summary in functions:
        models, module_locks = _file_models(ctx)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call) and _leaf_name(sub.func) == "acquire" \
                    and isinstance(sub.func, ast.Attribute):
                model = _model_for(models, ctx, sub)
                name = None
                if model is not None:
                    name = model.resolve_lock_expr(sub.func.value)
                if name is None and isinstance(sub.func.value, ast.Name):
                    name = module_locks.get(sub.func.value.id)
                if name is not None:
                    bare.append((ctx, sub, name))
            if not isinstance(sub, ast.With):
                continue
            held = resolver(ctx, sub)
            if not held:
                continue
            # Multiple items in one `with a, b:` acquire left to right.
            for first in range(len(held)):
                for second in range(first + 1, len(held)):
                    edges.append(_Edge(held[first], held[second], ctx, sub))
            inner: List[ast.AST] = []
            for stmt in sub.body:
                inner.extend(ast.walk(stmt))
            for node in inner:
                if isinstance(node, ast.With):
                    for target in resolver(ctx, node):
                        for lock in held:
                            edges.append(_Edge(lock, target, ctx, node))
                elif isinstance(node, ast.Call):
                    for target in callee_locks(node, summary.cls_id):
                        for lock in held:
                            edges.append(
                                _Edge(lock, target, ctx, node,
                                      via=_leaf_name(node.func)))
    for edge in edges:
        nodes.add(edge.src)
        nodes.add(edge.dst)
    return nodes, edges, bare


def _strongly_connected(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan SCCs over the acquisition graph (iterative, order-stable)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                out.append(component)

    for name in sorted(adjacency):
        if name not in index:
            visit(name)
    return out


def find_cycles(edge_pairs: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """Cycles (as sorted node lists) in a set of acquisition edges."""
    adjacency: Dict[str, Set[str]] = {}
    for src, dst in edge_pairs:
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set())
    cycles = []
    for component in _strongly_connected(adjacency):
        if len(component) > 1:
            cycles.append(sorted(component))
        elif component[0] in adjacency.get(component[0], ()):
            cycles.append(component)  # self-loop
    return cycles


def build_static_graph(root: str = ".",
                       paths: Sequence[str] = ("src/repro",)) -> Dict[str, object]:
    """The static acquisition graph, for ``repro lockgraph``.

    Runs the R008 collection over ``paths`` and returns a JSON-ready
    dict: the rank table, every declared lock node, deduped edges with
    first-site attribution, and any cycles.
    """
    project = Project(Path(root))
    contexts: List[FileContext] = []
    for rel in paths:
        target = Path(root) / rel
        if target.is_dir():
            contexts.extend(project.walk(rel))
        else:
            ctx = project.context(rel)
            if ctx is not None:
                contexts.append(ctx)
    contexts = [c for c in contexts if c.parse_error is None]
    nodes, edges, _ = collect_lock_graph(contexts)
    dedup: Dict[Tuple[str, str], Dict[str, object]] = {}
    for edge in edges:
        key = (edge.src, edge.dst)
        entry = dedup.get(key)
        if entry is None:
            dedup[key] = entry = {
                "src": edge.src, "dst": edge.dst, "count": 0,
                "site": f"{edge.ctx.rel}:{edge.site.lineno}"}
        entry["count"] += 1
    cycles = find_cycles(dedup)
    return {
        "hierarchy": dict(LOCK_HIERARCHY),
        "nodes": sorted(nodes),
        "edges": [dedup[key] for key in sorted(dedup)],
        "cycles": cycles,
        "acyclic": not cycles,
    }


class LockOrderRule(ProjectRule):
    id = "R008"
    name = "lock-order"
    description = (
        "nested lock acquisitions must respect LOCK_HIERARCHY and the "
        "project acquisition graph must be acyclic")

    def check_project(self, project: Project) -> Iterator[Finding]:
        contexts = [c for c in project.linted if c.parse_error is None]
        _, edges, bare = collect_lock_graph(contexts)
        for ctx, site, name in bare:
            yield ctx.finding(
                self, site,
                f"bare .acquire() on lock {name}; use 'with' so the "
                f"acquisition is visible to the lock-order analysis")
        adjacency: Dict[str, Set[str]] = {}
        first_edge: Dict[Tuple[str, str], _Edge] = {}
        for edge in edges:
            key = (edge.src, edge.dst)
            if key not in first_edge:
                first_edge[key] = edge
                adjacency.setdefault(edge.src, set()).add(edge.dst)
                adjacency.setdefault(edge.dst, set())
        for (src, dst), edge in sorted(first_edge.items()):
            via = f" (via call to {edge.via}())" if edge.via else ""
            if src == dst:
                yield edge.ctx.finding(
                    self, edge.site,
                    f"lock {src} acquired while already held{via}; these "
                    f"locks are not reentrant — this self-deadlocks")
                continue
            src_rank = LOCK_HIERARCHY.get(src)
            dst_rank = LOCK_HIERARCHY.get(dst)
            if src_rank is not None and dst_rank is not None \
                    and src_rank >= dst_rank:
                yield edge.ctx.finding(
                    self, edge.site,
                    f"lock order violation{via}: {src} (rank {src_rank}) "
                    f"is held while acquiring {dst} (rank {dst_rank}); "
                    f"the hierarchy requires strictly increasing ranks")
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            members = sorted(component)
            cycle_edges = [first_edge[key] for key in sorted(first_edge)
                           if key[0] in component and key[1] in component]
            site = cycle_edges[0]
            yield site.ctx.finding(
                self, site.site,
                f"potential deadlock: lock acquisition cycle among "
                f"{' -> '.join(members + [members[0]])}")


# ======================================================================
# R009 — no blocking call under a lock
# ======================================================================
class BlockingUnderLockRule(Rule):
    id = "R009"
    name = "blocking-under-lock"
    description = (
        "fault points, matcher forwards, file/socket IO and queue/event "
        "waits must not run while holding a lock")

    def __init__(self, allowlist: Iterable[Tuple[str, str]] = DEFAULT_BLOCKING_ALLOWLIST):
        self.allowlist = frozenset(allowlist)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree is None:
            return
        models, module_locks = _file_models(ctx)
        if not module_locks and not any(m.lock_attrs for m in models):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            model = _model_for(models, ctx, node)
            held = model.with_locks(node) if model is not None else [
                name for item in node.items
                if isinstance(item.context_expr, ast.Name)
                and (name := module_locks.get(item.context_expr.id)) is not None]
            held = [name for name in held if not _io_lock(name)]
            if not held:
                continue
            yield from self._scan_body(ctx, model, node, held, depth=1)

    def _scan_body(self, ctx: FileContext, model: Optional[_ClassModel],
                   with_node: ast.With, held: List[str],
                   depth: int) -> Iterator[Finding]:
        inner: List[ast.AST] = []
        for stmt in with_node.body:
            inner.extend(ast.walk(stmt))
        for node in inner:
            if not isinstance(node, ast.Call):
                continue
            blocked = self._blocking_reason(node)
            if blocked is not None:
                leaf = _leaf_name(node.func)
                if any((name, leaf) in self.allowlist for name in held):
                    continue
                yield ctx.finding(
                    self, node,
                    f"{blocked} while holding {', '.join(sorted(set(held)))}"
                    f"; move it outside the lock (or use a dedicated *.io "
                    f"lock for serialized IO)")
            elif depth > 0 and model is not None \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self" \
                    and node.func.attr in model.methods:
                # One level into same-class helpers called under the lock.
                method = model.methods[node.func.attr]
                for sub in ast.walk(method):
                    if isinstance(sub, ast.Call):
                        reason = self._blocking_reason(sub)
                        if reason is not None:
                            sub_leaf = _leaf_name(sub.func)
                            if any((name, sub_leaf) in self.allowlist
                                   for name in held):
                                continue
                            yield ctx.finding(
                                self, node,
                                f"call to self.{node.func.attr}() under "
                                f"{', '.join(sorted(set(held)))} reaches "
                                f"{reason} at line {sub.lineno}")

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        leaf = _leaf_name(node.func)
        if leaf is None:
            return None
        dotted = dotted_name(node.func) or leaf
        root = dotted.split(".")[0]
        if leaf in _BLOCKING_LEAVES:
            return f"blocking call {dotted}()"
        if leaf in _FORWARD_LEAVES and isinstance(node.func, ast.Attribute):
            return f"matcher forward {dotted}()"
        if leaf == "wait":
            return f"wait {dotted}()"
        if leaf in _QUEUEISH_LEAVES and isinstance(node.func, ast.Attribute):
            receiver = dotted.lower()
            if root != "os" and any(token in receiver
                                    for token in _QUEUEISH_TOKENS):
                return f"queue/thread operation {dotted}()"
        if leaf in _OS_IO_LEAVES and root == "os":
            return f"file operation {dotted}()"
        return None


# ======================================================================
# R010 — atomic counters
# ======================================================================
class AtomicCounterRule(Rule):
    id = "R010"
    name = "atomic-counters"
    description = (
        "read-modify-write of shared counters must go through "
        "RecoveryCounters.increment() or hold an enclosing lock")

    _INIT_METHODS = ("__init__", "__post_init__")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree is None:
            return
        models, _ = _file_models(ctx)
        for node in ast.walk(ctx.tree):
            is_aug = isinstance(node, ast.AugAssign)
            if not (is_aug or isinstance(node, ast.Assign)):
                continue
            targets = [node.target] if is_aug else node.targets
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue  # rebinding a bare name is not a field RMW
                root = self._root_name(target)
                if root == "COUNTERS":
                    yield ctx.finding(
                        self, node,
                        "mutating the global recovery counters directly; "
                        "use COUNTERS.increment(name) — the only sanctioned "
                        "mutation path")
                elif is_aug and root == "self":
                    yield from self._check_self_rmw(ctx, models, node, target)

    def _check_self_rmw(self, ctx: FileContext, models: Sequence[_ClassModel],
                        node: ast.AugAssign,
                        target: ast.AST) -> Iterator[Finding]:
        model = _model_for(models, ctx, node)
        if model is None or not model.concurrent:
            return
        attr = _self_attr(target)
        if attr is None or attr in model.lock_attrs or attr in model.safe_attrs:
            return
        method = model.method_of(node)
        if method in self._INIT_METHODS or method in model.guarded_methods:
            return
        if model.held_locks(node):
            return
        yield ctx.finding(
            self, node,
            f"unsynchronized read-modify-write of self.{attr} in concurrent "
            f"class {model.node.name}; increments race across threads — "
            f"hold a declared lock or use RecoveryCounters.increment()")

    def _root_name(self, target: ast.AST) -> Optional[str]:
        while isinstance(target, (ast.Attribute, ast.Subscript)):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id
        return None


def concurrency_rules() -> List[Rule]:
    """The R007–R010 pack (appended to ``default_rules`` by the engine)."""
    return [
        GuardedStateRule(),
        LockOrderRule(),
        BlockingUnderLockRule(),
        AtomicCounterRule(),
    ]
