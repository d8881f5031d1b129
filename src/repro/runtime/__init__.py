"""`repro.runtime` — the scaling layer under the certification engine.

Two cooperating pieces turn the one-shot :class:`~repro.api.CertificationEngine`
into a service that absorbs repeated, overlapping certification traffic:

* the **persistent certification cache** (:class:`CertificationCache`):
  verdicts keyed by content fingerprints, with budget-monotone derivation
  for removal/label-flip families;
* the **resumable run journal** (:class:`RunJournal`): per-point checkpoints
  that let a killed batch restart where it left off.

:class:`CertificationRuntime` is the facade binding them together; pass it
to ``CertificationEngine(runtime=...)``.  Its ``max_certified`` /
``pareto_frontier`` bind the budget searches of :mod:`repro.verify.search` to
the cache and return that module's result types, exactly as the engine's own
searches do.  Process-pool workers need none of it: under the fork start
method they inherit the training set from the parent.
"""

from repro.runtime.cache import CacheHit, CertificationCache
from repro.runtime.fingerprint import (
    engine_cache_key,
    fingerprint_dataset,
    model_cache_key,
    monotone_in_budget,
    point_digest,
)
from repro.runtime.journal import RunJournal, run_id
from repro.runtime.runtime import BatchStats, CertificationRuntime

__all__ = [
    "BatchStats",
    "CacheHit",
    "CertificationCache",
    "CertificationRuntime",
    "RunJournal",
    "engine_cache_key",
    "fingerprint_dataset",
    "model_cache_key",
    "monotone_in_budget",
    "point_digest",
    "run_id",
]
