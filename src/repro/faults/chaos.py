"""Harness-level chaos: seeded worker kills, hangs, torn journal writes,
and cache corruption.

PR 1's fault layer perturbs the *simulated machine* (DRAM latency, cache
flushes) and watches the self-repairing prefetcher recover.  This module
perturbs the *experiment fleet itself* — SIGKILLs a worker mid-job,
hangs one past its lease, tears a journal record in half, corrupts a
result-cache entry after it lands — and the recovery machinery
(:mod:`repro.harness.supervisor`, :mod:`repro.harness.journal`, the
hardened stores) must produce byte-identical tables anyway.  CI's
``chaos-smoke`` job holds the repo to that.

Everything is seeded and keyed on the **code-version-independent** job
key (:func:`repro.harness.journal.job_key`), so a chaos schedule is a
pure function of ``(seed, job set)``: the same command misbehaves the
same way on every machine and every commit, and a job's retries draw
fresh decisions, so a finite ``max_kills_per_job`` guarantees the sweep
converges.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..logutil import get_logger

_log = get_logger("chaos")

#: Where a chaos kill lands relative to the job's compute:
#: ``pre`` — before any work (the whole attempt is lost);
#: ``post`` — after the result exists but before it is reported (the
#: cruellest case: recovery must come from checkpoints/cache, not luck).
KILL_PHASES = ("pre", "post")


def _rng(seed: int, *parts: object) -> random.Random:
    """A private RNG keyed on (seed, *parts) — stable across processes."""
    digest = hashlib.sha256(
        ":".join([str(seed), *(str(p) for p in parts)]).encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class ChaosDecision:
    """What chaos does to one (job, attempt)."""

    kill_phase: Optional[str] = None  # "pre" | "post" | None
    hang: bool = False

    @property
    def clean(self) -> bool:
        return self.kill_phase is None and not self.hang

    #: Compact wire form for the supervisor's child argument list.
    def token(self) -> Optional[str]:
        if self.kill_phase is not None:
            return self.kill_phase
        if self.hang:
            return "hang"
        return None


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded recipe of harness-level misbehaviour.

    Rates are per job-attempt probabilities; ``max_kills_per_job`` caps
    how many consecutive attempts of one job can be disturbed, so a
    retried job always eventually runs clean.  A nonzero ``kill_rate``
    guarantees **at least one** kill per schedule (the smallest job key
    is forced if the draws all came up clean) — a chaos run that
    disturbs nothing proves nothing.
    """

    seed: int = 7
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    #: How long an injected hang sleeps.  With ``hang_rate > 0`` the
    #: engine leases each job for ``hang_s / 2``, so every hang expires
    #: its lease; honest jobs must therefore finish within that half.
    hang_s: float = 30.0
    max_kills_per_job: int = 2
    #: Tear this many journal records mid-write (0 disables).
    torn_journal: int = 0
    #: Probability a freshly stored result-cache entry is corrupted.
    corrupt_cache_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate", "corrupt_cache_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0 <= value <= 1:
                raise ConfigError(
                    f"chaos {name} must be a probability in [0, 1], "
                    f"got {value!r}"
                )
        if not isinstance(self.seed, int):
            raise ConfigError(f"chaos seed must be an int, got {self.seed!r}")
        if not isinstance(self.max_kills_per_job, int) or self.max_kills_per_job < 1:
            raise ConfigError("chaos max_kills_per_job must be >= 1")
        if not isinstance(self.torn_journal, int) or self.torn_journal < 0:
            raise ConfigError("chaos torn_journal must be >= 0")
        if not isinstance(self.hang_s, (int, float)) or self.hang_s <= 0:
            raise ConfigError("chaos hang_s must be positive")

    # ------------------------------------------------------------------
    # Parsing (the CLI's --chaos key=value tokens).
    # ------------------------------------------------------------------
    _FIELDS = {
        "seed": int,
        "kill-rate": float,
        "hang-rate": float,
        "hang-s": float,
        "max-kills": int,
        "torn-journal": int,
        "corrupt-cache-rate": float,
    }
    _NAMES = {
        "kill-rate": "kill_rate",
        "hang-rate": "hang_rate",
        "hang-s": "hang_s",
        "max-kills": "max_kills_per_job",
        "torn-journal": "torn_journal",
        "corrupt-cache-rate": "corrupt_cache_rate",
    }

    @staticmethod
    def parse(tokens: Sequence[str]) -> "ChaosPlan":
        """``["seed=7", "kill-rate=0.2"]`` (commas also split) → a plan."""
        kwargs = {}
        for token in tokens:
            for part in token.replace(",", " ").split():
                if "=" not in part:
                    raise ConfigError(
                        f"chaos option {part!r} is not key=value; known "
                        f"keys: {', '.join(sorted(ChaosPlan._FIELDS))}"
                    )
                key, _, raw = part.partition("=")
                if key not in ChaosPlan._FIELDS:
                    raise ConfigError(
                        f"unknown chaos option {key!r}; known: "
                        f"{', '.join(sorted(ChaosPlan._FIELDS))}"
                    )
                try:
                    value = ChaosPlan._FIELDS[key](raw)
                except ValueError:
                    raise ConfigError(
                        f"chaos option {key}={raw!r} is not a "
                        f"{ChaosPlan._FIELDS[key].__name__}"
                    ) from None
                kwargs[ChaosPlan._NAMES.get(key, key)] = value
        return ChaosPlan(**kwargs)

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    def decision(self, key: str, attempt: int) -> ChaosDecision:
        """The seeded decision for one attempt of one job."""
        if attempt >= self.max_kills_per_job:
            return ChaosDecision()
        rng = _rng(self.seed, "attempt", key, attempt)
        if rng.random() < self.kill_rate:
            return ChaosDecision(kill_phase=rng.choice(KILL_PHASES))
        if rng.random() < self.hang_rate:
            return ChaosDecision(hang=True)
        return ChaosDecision()

    def schedule(self, keys: Iterable[str]) -> "ChaosSchedule":
        """Bind the plan to a concrete job set.

        This is where the at-least-one-kill guarantee lands: if no
        first-attempt draw across ``keys`` produced a kill (or a hang,
        when only hangs are requested), the smallest key is forced to
        die ``pre`` on attempt 0.
        """
        keys = sorted(set(keys))
        forced: Dict[Tuple[str, int], ChaosDecision] = {}
        if keys and self.kill_rate > 0:
            if not any(
                self.decision(k, 0).kill_phase is not None for k in keys
            ):
                forced[(keys[0], 0)] = ChaosDecision(kill_phase="pre")
        elif keys and self.hang_rate > 0:
            if not any(self.decision(k, 0).hang for k in keys):
                forced[(keys[0], 0)] = ChaosDecision(hang=True)
        return ChaosSchedule(plan=self, _forced=forced)


@dataclass
class ChaosSchedule:
    """A :class:`ChaosPlan` bound to one run's job set."""

    plan: ChaosPlan
    _forced: Dict[Tuple[str, int], ChaosDecision] = field(
        default_factory=dict
    )
    #: Counters the engine folds into its summary.
    kills_injected: int = 0
    hangs_injected: int = 0
    cache_corruptions: int = 0
    journal_tears: int = 0

    def decision(self, key: str, attempt: int) -> ChaosDecision:
        decision = self._forced.get(
            (key, attempt), self.plan.decision(key, attempt)
        )
        if decision.kill_phase is not None:
            self.kills_injected += 1
        elif decision.hang:
            self.hangs_injected += 1
        return decision

    # ------------------------------------------------------------------
    # Storage corruption.
    # ------------------------------------------------------------------
    def maybe_corrupt_cache(self, path, key: str) -> bool:
        """Truncate a just-written cache entry with seeded probability.

        Emulates a torn store or bit-rot discovered later: the entry
        parses as garbage, the hardened read path quarantines it, and
        the job re-simulates — same table, one cold run.
        """
        rate = self.plan.corrupt_cache_rate
        if rate <= 0:
            return False
        if _rng(self.plan.seed, "corrupt", key).random() >= rate:
            return False
        try:
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
        except OSError as exc:
            _log.debug("chaos cache corruption skipped: %s", exc)
            return False
        self.cache_corruptions += 1
        _log.info("chaos: corrupted cache entry %s", path.name)
        return True

    # ------------------------------------------------------------------
    # Journal tearing.
    # ------------------------------------------------------------------
    def journal_filter(self) -> Callable[[str], str]:
        """A :attr:`JobJournal.write_filter` tearing ``torn_journal``
        records.

        Targets ``start`` records — operationally real (a torn write
        happens mid-sweep, not at submit) and information-safe: a lost
        ``start`` is superseded by the job's eventual ``done``, so
        recovery after the tear still reconstructs every outcome.
        """
        remaining = [self.plan.torn_journal]

        def tear(line: str) -> str:
            if remaining[0] > 0 and '"event":"start"' in line:
                remaining[0] -= 1
                self.journal_tears += 1
                _log.info("chaos: tearing journal record mid-write")
                return line[: max(1, len(line) // 2)]
            return line

        return tear

    def summary(self) -> str:
        return (
            f"chaos: kills={self.kills_injected} "
            f"hangs={self.hangs_injected} "
            f"cache_corruptions={self.cache_corruptions} "
            f"journal_tears={self.journal_tears}"
        )
