"""`repro.runtime` — the scaling layer under the certification engine.

Two cooperating pieces turn the one-shot :class:`~repro.api.CertificationEngine`
into a service that absorbs repeated, overlapping certification traffic:

* the **persistent certification cache** (:class:`CertificationCache`):
  verdicts keyed by content fingerprints, with budget-monotone derivation
  for removal/label-flip families;
* the **resumable run journal** (:class:`RunJournal`): per-point checkpoints
  that let a killed batch restart where it left off.

:class:`CertificationRuntime` is the facade binding them together, and
every engine certifies through one: pass it to
``CertificationEngine(runtime=...)``, or let the engine build its own
cache-less runtime, which still runs a row repeated within a batch once.
Batches, the cache and the journal share one row identity,
:class:`RowKey`.  The runtime's ``max_certified`` / ``pareto_frontier`` bind
the budget searches of :mod:`repro.verify.search` to the cache and return
that module's result types, exactly as the engine's own searches do.
Process-pool workers start from a fresh cache-less runtime: under the fork
start method they inherit the training set from the parent.
"""

from repro.runtime.cache import CacheHit, CertificationCache
from repro.runtime.fingerprint import (
    RowKey,
    engine_cache_key,
    fingerprint_dataset,
    model_cache_key,
    monotone_in_budget,
    point_digest,
    row_keys,
)
from repro.runtime.journal import RunJournal, run_id
from repro.runtime.runtime import BatchStats, CertificationRuntime

__all__ = [
    "BatchStats",
    "CacheHit",
    "CertificationCache",
    "CertificationRuntime",
    "RowKey",
    "RunJournal",
    "engine_cache_key",
    "fingerprint_dataset",
    "model_cache_key",
    "monotone_in_budget",
    "point_digest",
    "row_keys",
    "run_id",
]
