"""``repro.guard`` — the data-quality firewall.

Spans offline ingestion and online serving:

* :mod:`repro.guard.validate` — schema-driven record validation and
  conservative canonicalization (bitwise-invisible on clean data).
* :mod:`repro.guard.quarantine` — typed, provenance-carrying store for
  rejected records, with JSONL persistence and replay.
* :mod:`repro.guard.firewall` — the admission point tying validator +
  quarantine + drift together under the conservation invariant
  ``accepted + quarantined == offered``.
* :mod:`repro.guard.drift` — tumbling-window drift monitors (OOV rate,
  null rates, value-length KS, score KS/PSI) against fit-time baselines.
* :mod:`repro.guard.perturb` — seeded corruption generators for the
  corruption-robustness curve (``repro bench robust``).

See ``docs/ROBUSTNESS.md`` for the architecture and contracts.
"""

from repro.guard.drift import (
    DriftBaseline,
    DriftMonitor,
    DriftThresholds,
    ks_critical,
    ks_statistic,
    psi,
)
from repro.guard.errors import (
    REASON_ARITY,
    REASON_BAD_LABEL,
    REASON_BAD_TYPE,
    REASON_BLANK,
    REASON_DUPLICATE_ID,
    REASON_ENCODING,
    REASON_INJECTED,
    REASON_MISSING_ID,
    REASON_NULL_EXCESS,
    REASON_OVERWIDE,
    REASON_RAGGED,
    REASON_TOO_LONG,
    REASON_UNKNOWN_REF,
    REASONS,
    DataError,
    RecordProvenance,
)
from repro.guard.firewall import DataFirewall, FirewallStats, summarize
from repro.guard.perturb import KINDS, corrupt_pairs, perturb_entity, typo_value
from repro.guard.quarantine import (
    QuarantinedRecord,
    QuarantineStore,
    RetractionEvent,
)
from repro.guard.validate import RecordSchema, RecordValidator, canonicalize_value

__all__ = [
    "DataError", "DataFirewall", "DriftBaseline", "DriftMonitor",
    "DriftThresholds", "FirewallStats", "KINDS", "QuarantineStore",
    "QuarantinedRecord", "REASONS", "REASON_ARITY", "REASON_BAD_LABEL",
    "REASON_BAD_TYPE", "REASON_BLANK", "REASON_DUPLICATE_ID",
    "REASON_ENCODING", "REASON_INJECTED", "REASON_MISSING_ID",
    "REASON_NULL_EXCESS", "REASON_OVERWIDE", "REASON_RAGGED",
    "REASON_TOO_LONG", "REASON_UNKNOWN_REF", "RecordProvenance",
    "RetractionEvent",
    "RecordSchema", "RecordValidator", "canonicalize_value", "corrupt_pairs",
    "ks_critical", "ks_statistic", "perturb_entity", "psi", "summarize",
    "typo_value",
]
