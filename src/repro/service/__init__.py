"""Batch job orchestration: specs, content-addressed caching, scheduling.

The service layer turns the blocking one-network ``generate()`` call into
a job-oriented pipeline: hashable :class:`JobSpec` s, a disk-backed
:class:`ResultCache` keyed on the spec digest, and a
:class:`BatchScheduler` that fans batches across the supervised
:class:`~repro.gateway.pool.WorkerPool`.  The
``artwork-batch`` CLI front end lives in :mod:`repro.cli`.
"""

from .cache import CacheStats, ResultCache
from .jobs import (
    JobError,
    JobSpec,
    network_from_dict,
    network_to_dict,
    pablo_from_dict,
    pablo_to_dict,
    router_from_dict,
    router_to_dict,
)
from .scheduler import (
    BatchScheduler,
    JobOutcome,
    JobTimeout,
    execute_job,
    run_with_timeout,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "JobError",
    "JobSpec",
    "network_from_dict",
    "network_to_dict",
    "pablo_from_dict",
    "pablo_to_dict",
    "router_from_dict",
    "router_to_dict",
    "BatchScheduler",
    "JobOutcome",
    "JobTimeout",
    "execute_job",
    "run_with_timeout",
]
