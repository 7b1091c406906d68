"""Pinned SimJob spec hashes: the zoo must not move pre-existing keys.

``SimJob.spec()`` is the canonical description hashed into the result
cache key (``repro.harness.cache.stable_hash``) and the fleet journal
``job_key``.  Adding the hardware-prefetcher zoo grew the config with an
``hw_prefetcher`` field; the spec deliberately *omits* it when unset
(same discipline as ``checkpoint_every``) so every cache entry, journal
record, and checkpoint prefix minted before the zoo landed still
resolves.  These constants freeze that contract: if a key here drifts,
warm caches and resumable journals silently go cold — treat a failure
as a bug, not a fixture to regenerate.
"""

from __future__ import annotations

import pytest

from repro.config import PrefetchPolicy
from repro.harness.engine import make_job
from repro.harness.journal import job_key

#: Golden-grid budgets (tools/update_golden.py) — small, stable, and
#: already pinned by the fixture suite.
BUDGET = dict(
    max_instructions=4_000,
    warmup_instructions=1_000,
    seed=1,
    sample_interval=1_000,
)

#: (workload, policy) -> job_key minted before the zoo existed.  Byte
#: equality proves zoo-era specs hash identically to pre-zoo ones.
PINNED_JOB_KEYS = {
    ("mcf", PrefetchPolicy.HW_ONLY):
        "0963ca6b18d7e8c8df4cdc0e383d99786675471057eea8f786f6a249148bbd41",
    ("mcf", PrefetchPolicy.SELF_REPAIRING):
        "7179e6e9e49d9afd2a420e3528c330312cb43d84cf692e4b391b77bcca39baf2",
    ("swim", PrefetchPolicy.BASIC):
        "eeb0b2515cc70ce133f78cd4ee19d6fea5a63809b731625028c27b6991fba6f1",
    ("scenario:stride-flip", PrefetchPolicy.HW_ONLY):
        "cb822a2b1b6defc2cee5e60d0d0b6f1779143637d79902de31764a920df727f5",
}


@pytest.mark.parametrize(
    "workload,policy",
    sorted(PINNED_JOB_KEYS, key=lambda c: (c[0], c[1].value)),
    ids=lambda v: v.value if isinstance(v, PrefetchPolicy) else v,
)
def test_job_key_pinned(workload, policy):
    spec = make_job(workload, policy=policy, **BUDGET).spec()
    assert job_key(spec) == PINNED_JOB_KEYS[(workload, policy)]


@pytest.mark.parametrize(
    "policy", list(PrefetchPolicy), ids=lambda p: p.value
)
def test_enum_policy_spec_has_no_hw_prefetcher_key(policy):
    """Default runs must serialize exactly as they did pre-zoo: the
    ``hw_prefetcher`` key is absent, not ``null``."""
    spec = make_job("mcf", policy=policy, **BUDGET).spec()
    assert "hw_prefetcher" not in spec["config"]


def test_zoo_policy_spec_carries_engine_name():
    """Zoo runs hash differently from plain hw_only — the engine name
    is part of the cache identity."""
    from repro.hwprefetch.zoo import zoo_names

    base = make_job("mcf", policy=PrefetchPolicy.HW_ONLY, **BUDGET).spec()
    keys = {job_key(base)}
    for name in zoo_names():
        spec = make_job("mcf", policy=name, **BUDGET).spec()
        assert spec["config"]["policy"] == "hw_only"
        assert spec["config"]["hw_prefetcher"] == name
        keys.add(job_key(spec))
    # hw_only + every zoo engine all produce distinct cache identities.
    assert len(keys) == 1 + len(zoo_names())


def test_spec_is_computed_once_per_job():
    """``spec()`` is memoized on the job; ``to_dict`` extends a copy, and
    a pickled job (what a worker receives) keys identically."""
    import pickle

    from repro.harness.engine import SimJob

    job = make_job("mcf", policy=PrefetchPolicy.SELF_REPAIRING, **BUDGET)
    spec = job.spec()
    key = job_key(spec)
    assert job.spec() is spec
    payload = job.to_dict()
    assert payload is not spec and "group" not in spec
    assert job_key(job.spec()) == key
    assert job_key(pickle.loads(pickle.dumps(job)).spec()) == key
    assert job_key(SimJob.from_dict(payload).spec()) == key
