"""``repro.reliability`` — fault injection, retry/degrade, crash-safe resume.

The training pipeline is a long chain of LM pre-training, per-dataset
matcher training, and evaluation sweeps; this package makes each link
crash-safe and *provably* so:

* :mod:`repro.reliability.faults` — a deterministic fault-injection
  framework (:class:`FaultPlan` + :func:`fault_point` sites threaded
  through the LM checkpoints, the named LRU caches, the trainer, the
  pipeline, and the harness).
* :mod:`repro.reliability.retry` — capped exponential backoff for
  transient IO faults.
* :mod:`repro.reliability.state` — atomic epoch-boundary training-state
  checkpoints (optimizer, RNG streams, best-epoch bookkeeping) enabling
  bitwise-identical resume after a mid-epoch kill (``repro resume``).
* :mod:`repro.reliability.counters` — global recovery counters, one per
  documented degradation path.
* :mod:`repro.reliability.locks` — :func:`named_lock` and the single
  global :data:`LOCK_HIERARCHY`; every lock in the tree is created here
  so the static lock-order rule (R008) and the runtime sanitizer
  (``REPRO_LOCKCHECK=1``) can see it.

See ``docs/TESTING.md`` for the harness API and the recovery contracts.
"""

from repro.reliability.counters import COUNTERS, RecoveryCounters
from repro.reliability.locks import (
    LOCK_HIERARCHY,
    REGISTRY,
    NamedLock,
    named_lock,
)
from repro.reliability.faults import (
    CorruptDataFault,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TrainingKilled,
    TransientIOFault,
    active_plan,
    fault_point,
    inject,
)
from repro.reliability.retry import (
    DEFAULT_TRANSIENT,
    RetryPolicy,
    retry_with_backoff,
)
from repro.reliability.state import (
    STATE_FILE,
    TrainState,
    collect_module_rngs,
    load_train_state,
    restore_module_rngs,
    save_train_state,
)

__all__ = [
    "COUNTERS", "CorruptDataFault", "DEFAULT_TRANSIENT", "FaultPlan",
    "FaultSpec", "InjectedFault", "LOCK_HIERARCHY", "NamedLock",
    "REGISTRY", "RecoveryCounters", "RetryPolicy", "STATE_FILE",
    "TrainState", "TrainingKilled", "TransientIOFault", "active_plan",
    "collect_module_rngs", "fault_point", "inject", "load_train_state",
    "named_lock", "restore_module_rngs", "retry_with_backoff",
    "save_train_state",
]
