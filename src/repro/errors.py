"""Structured exception hierarchy for the reproduction.

Every error the package raises deliberately derives from
:class:`ReproError`, so harness code can catch "something went wrong in a
simulation" without swallowing programming errors.  Each class carries a
``transient`` flag: the experiment harness retries a failed workload once
when its failure was transient (see
:mod:`repro.harness.experiments`), and records it otherwise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every deliberate error in the package."""

    #: Whether a retry of the same run could plausibly succeed.
    transient = False


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid (bad budget, unknown workload,
    malformed fault plan).  Never transient: the same inputs will fail
    the same way."""


class CheckpointError(ReproError, RuntimeError):
    """A simulator snapshot could not be parsed or restored — truncated
    or corrupt payload, a format/code-version mismatch, or a shared
    workload image that differs from the captured one.  Never
    transient: the engine treats it as "no checkpoint" and runs cold
    instead."""


class FleetError(ReproError, RuntimeError):
    """Base class for harness-infrastructure failures — the job itself may
    be fine, but the machinery running it (a worker process, its lease,
    the journal) misbehaved.  Distinct from simulation errors so retry
    policy can treat "the worker died" differently from "the run is
    invalid"."""


class WorkerCrashError(FleetError):
    """A worker process died without reporting a result — SIGKILL, an
    ``os._exit`` in library code, a segfault-equivalent.  Transient: the
    job is re-dispatched to a fresh worker under backoff."""

    transient = True


class LeaseExpiredError(FleetError):
    """A worker held a job past its wall-time lease without progress: the
    supervisor revoked the lease, killed the worker, and reclaimed the
    job.  Transient, like a wall-time watchdog trip."""

    transient = True


class PoisonJobError(FleetError):
    """A job crashed or hung its worker ``max_attempts`` times in a row
    and was quarantined so the rest of the sweep can finish.  Never
    transient: redispatching it again would wedge the fleet."""

    def __init__(self, message: str, strikes: int = 0) -> None:
        super().__init__(message)
        #: How many workers this job took down before quarantine.
        self.strikes = strikes


class JournalError(ReproError, RuntimeError):
    """The job journal could not be opened or written (bad directory,
    permission).  Corrupt *records* never raise this — recovery skips
    them — only an unusable journal does."""


#: The three-way failure taxonomy the supervisor's retry policy keys on.
TRANSIENT = "transient"
PERMANENT = "permanent"
POISON = "poison"


def classify(exc: BaseException) -> str:
    """Map an exception to the retry taxonomy.

    * ``POISON`` — quarantine, never retry (:class:`PoisonJobError`);
    * ``TRANSIENT`` — a retry could plausibly succeed (crashed worker,
      expired lease, wall-time stall);
    * ``PERMANENT`` — the same inputs will fail the same way (config
      errors, simulation bugs): record once, move on.
    """
    if isinstance(exc, PoisonJobError):
        return POISON
    if getattr(exc, "transient", False):
        return TRANSIENT
    return PERMANENT


class SimulationStallError(ReproError, RuntimeError):
    """The watchdog stopped a run that was no longer making progress —
    commit stall, cycle-budget blowout, or wall-time exhaustion.

    Marked transient: a wall-time trip depends on machine load, and a
    cycle-budget trip may clear under the retry's fresh state; the
    harness gives the workload one more chance before recording it.
    """

    transient = True

    def __init__(
        self,
        message: str,
        committed: int = 0,
        cycles: float = 0.0,
    ) -> None:
        super().__init__(message)
        #: Progress at the moment the watchdog tripped.
        self.committed = committed
        self.cycles = cycles
