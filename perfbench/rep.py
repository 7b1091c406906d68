"""One repetition of one benchmark sweep, in a fresh interpreter.

    python3 perfbench/rep.py --workload fig5 --seed 1 --root DIR \
        [--workers N] [--traced | --calibrate] [--setup-only]

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Everything the sweep stores (result cache,
checkpoints, journal) lives under ``--root``, which must be fresh.
Prints one JSON object: host timings, per-cell payload hashes, output
check failures and, with ``--traced``, the per-layer split.

``--calibrate`` times a fixed pure-Python reference loop right before
and right after every cell of the cold sweep (and once after setup), in
the process that runs the cell, so ``run.py`` can scale each host time
to one host speed.
"""

import time

#: The setup clock starts before ``import repro`` (see ``setup_s``).
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from layers import LayerTracer  # noqa: E402
from sweeps import SWEEPS  # noqa: E402


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _strict(payload) -> str:
    """Byte form for identity checks (insertion order kept)."""
    return json.dumps(payload)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _cell_id(cell) -> str:
    workload, policy, budget = cell
    return f"{workload}/{policy}/{budget}"


def _build_engine(sweep, root: pathlib.Path, workers: int):
    from repro.harness.cache import ResultCache
    from repro.harness.engine import ExperimentEngine
    from repro.harness.journal import JobJournal

    journal = JobJournal(root / "journal") if sweep.warm_replay else None
    options = {} if sweep.checkpoints else {"checkpoints": None}
    # Checkpoints default to a store beside the result cache.
    engine = ExperimentEngine(
        workers=workers, cache=ResultCache(root / "cache"), journal=journal,
        **options,
    )
    return engine, journal


def _cell_problem(job, outcome):
    """The first per-cell output invariant the outcome breaks, or None."""
    if not outcome.ok:
        return outcome.error["type"]
    payload = outcome.result.to_dict()
    if payload["instructions"] != job.config.max_instructions:
        return f"committed {payload['instructions']} != budget"
    if payload["policy"] != job.config.policy.value:
        return f"policy {payload['policy']}"
    if payload["loads_executed"] and abs(
        sum(payload["breakdown"].values()) - 1.0
    ) > 1e-9:
        return "breakdown does not sum to 1"
    return None


def _model(sweep, payloads):
    """Simulated statistics: outputs that must not move under a
    simulator-only change (IPC, policy speedups, tie rows).  Rows with a
    failed cell are left out."""
    top = sweep.budgets[-1]
    rows = [
        {policy: payloads[(workload, policy, top)]["ipc"]
         for policy in sweep.policies}
        for workload in sweep.workloads
        if all((workload, policy, top) in payloads
               for policy in sweep.policies)
    ]

    def speedup_pct(policy):
        if policy not in sweep.policies or not rows:
            return 0.0
        ratio = _geomean([row[policy] / row["hw_only"] for row in rows])
        return (ratio - 1.0) * 100.0

    return {
        "model.ipc_geomean": _geomean(
            [payload["ipc"] for payload in payloads.values()]
        ) if payloads else 0.0,
        "model.sr_speedup_pct": speedup_pct("self_repairing"),
        "model.basic_speedup_pct": speedup_pct("basic"),
        "model.all_tie_rows": sum(len(set(row.values())) == 1
                                  for row in rows),
    }


def _layers(tracer, window_s, jobs, outcomes):
    counts = tracer.counts
    self_s = tracer.self_s
    layer = tracer.layer_self_s
    done = [
        (job, outcome.result.to_dict())
        for job, outcome in zip(jobs, outcomes)
        if outcome.ok
    ]
    payloads = [payload for _, payload in done]
    software = [
        payload for job, payload in done
        if job.config.policy.software_prefetching
    ]
    instructions = counts["core.instructions"]
    accesses = counts["memory.accesses"]
    issued = counts["hwprefetch.issued"]
    requested = sum(job.total_budget() for job in jobs)
    resumed = sum(outcome.resumed_from or 0 for outcome in outcomes)
    return {
        "workloads.build_s": layer("workloads"),
        "workloads.builds": counts["workloads.builds"],
        "fastpath.compile_s": layer("fastpath"),
        "fastpath.compiles": counts["fastpath.compiles"],
        "fastpath.batch_compiles": counts["fastpath.batch_compiles"],
        "fastpath.sw_batch_compiles": counts["fastpath.sw_batch_compiles"],
        "core.self_s": layer("core"),
        "core.instructions": instructions,
        "core.ns_per_inst": layer("core") / max(instructions, 1) * 1e9,
        "core.trace_inst_frac": (
            counts["core.trace_instructions"] / max(instructions, 1)
        ),
        "memory.self_s": layer("memory"),
        "memory.accesses": accesses,
        "memory.ns_per_access": layer("memory") / max(accesses, 1) * 1e9,
        "memory.l1_hit_rate": (
            counts["memory.l1_hits"] / max(counts["memory.loads"], 1)
        ),
        "memory.drains": counts["memory.drains"],
        "hwprefetch.self_s": layer("hwprefetch"),
        "hwprefetch.calls": counts["hwprefetch.calls"],
        "hwprefetch.issued": issued,
        "hwprefetch.useful": counts["hwprefetch.useful"],
        "hwprefetch.accuracy": counts["hwprefetch.useful"] / max(issued, 1),
        "hwprefetch.zero_issue_cells": sum(
            n == 0 for n in tracer.cell_hw_issued.values()
        ),
        "trident.self_s": layer("trident"),
        "trident.ticks": counts["trident.ticks"],
        "trident.hook_calls": counts["trident.hook_calls"],
        "trident.dlt_events": sum(p["dlt_events"] for p in payloads),
        "trident.repairs": sum(p["repairs_applied"] for p in payloads),
        "trident.traces_linked": sum(p["traces_linked"] for p in payloads),
        "trident.sw_issued": counts["trident.sw_issued"],
        "trident.sw_useful": counts["trident.sw_useful"],
        "trident.sw_useless": counts["trident.sw_useless"],
        "trident.helper_active_frac": (
            statistics.fmean(p["helper_active_fraction"] for p in software)
            if software else 0.0
        ),
        "checkpoint.save_s": self_s["CheckpointStore.save"],
        "checkpoint.saves": counts["checkpoint.saves"],
        "checkpoint.restore_s": (
            self_s["CheckpointStore.best"] + self_s["restore"]
        ),
        "checkpoint.restores": counts["checkpoint.restores"],
        "checkpoint.resumed_frac": resumed / requested,
        "cache.put_s": self_s["ResultCache.put"],
        "cache.get_s": self_s["ResultCache.get"],
        "cache.hits": counts["cache.hits"],
        "journal.append_s": self_s["JobJournal.append"],
        "journal.appends": counts["journal.appends"],
        "trace.unattributed_frac": (
            (window_s - tracer.total_self_s()) / window_s
        ),
    }


def _reference_loop() -> int:
    """Fixed pure-Python work (dict, list and integer operations) that
    does not depend on the simulator, timed as the host's speed."""
    table = list(range(256))
    counts = {}
    acc = 0
    for i in range(5000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + i
        acc += table[i & 255]
        acc ^= key
    return acc


def _reference_s() -> float:
    """The reference loop's fastest of four runs, in seconds."""
    best = math.inf
    for _ in range(4):
        started = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - started)
    return best


def _calibrate_cells(root: pathlib.Path):
    """Bracket every job the engine executes with reference timings.

    Wraps ``_execute_job``, the engine's single simulation seam for the
    in-process path and pool workers alike; forked pool workers inherit
    the wrapper.  Each process appends its records to its own file under
    ``root``, which ``_cell_calibration`` reads back.  Returns a function
    that removes the wrapper.
    """
    import repro.harness.engine as engine_module

    original = engine_module._execute_job
    root.mkdir(parents=True)

    def execute(job, *args, **kwargs):
        started = time.perf_counter()
        before = _reference_s()
        result, elapsed, resumed = original(job, *args, **kwargs)
        after_started = time.perf_counter()
        after = _reference_s()
        probe_s = (after_started - started - elapsed
                   + time.perf_counter() - after_started)
        record = {"spec": _canonical(job.spec()), "before": before,
                  "after": after, "probe_s": probe_s}
        with open(root / f"{os.getpid()}.jsonl", "a") as out:
            out.write(json.dumps(record) + "\n")
        return result, elapsed, resumed

    engine_module._execute_job = execute

    def uninstall():
        engine_module._execute_job = original

    return uninstall


def _cell_calibration(root: pathlib.Path, jobs):
    """Per job, in submission order: the reference times before and
    after it and the time the probes took (a job run more than once
    keeps one of its records)."""
    index = {_canonical(job.spec()): i for i, job in enumerate(jobs)}
    cells = [None] * len(jobs)
    for path in root.glob("*.jsonl"):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            cells[index[record.pop("spec")]] = record
    missing = [i for i, cell in enumerate(cells) if cell is None]
    if missing:
        raise RuntimeError(f"no reference timings for cells {missing}")
    return cells


def _reap_workers(timeout_s: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.01)


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", required=True, type=pathlib.Path)
    parser.add_argument("--workers", type=int, default=None)
    host = parser.add_mutually_exclusive_group()
    host.add_argument("--traced", action="store_true")
    host.add_argument("--calibrate", action="store_true",
                      help="time the reference loop around every cell")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after setup and report setup_s alone")
    args = parser.parse_args()
    sweep = SWEEPS[args.workload]
    workers = 1 if args.traced else (args.workers or sweep.workers)

    tracer = None
    if args.traced:
        tracer = LayerTracer()
        tracer.install()

    # --- setup: import, code-version hash, stores, job specs ----------
    from repro.harness.cache import code_version
    from repro.harness.engine import ExperimentEngine, make_job

    code_version()
    engine, journal = _build_engine(sweep, args.root, workers)
    cells = sweep.cells()
    jobs = [
        make_job(
            workload, policy=policy, max_instructions=budget,
            warmup_instructions=sweep.warmup, seed=args.seed,
        )
        for workload, policy, budget in cells
    ]
    setup_s = time.perf_counter() - _STARTED
    setup_reference_s = _reference_s() if args.calibrate else None
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "setup_reference_s": setup_reference_s}))
        return

    # --- cold sweep ---------------------------------------------------
    calibration = args.root / "calibration"
    if args.calibrate:
        uncalibrate = _calibrate_cells(calibration)
    began = time.perf_counter()
    outcomes = engine.run(jobs)
    wall_s = time.perf_counter() - began
    if args.calibrate:
        uncalibrate()
    if journal is not None:
        journal.close()

    failures = []
    for cell, job, outcome in zip(cells, jobs, outcomes):
        problem = _cell_problem(job, outcome)
        if problem is not None:
            failures.append(f"{_cell_id(cell)}: {problem}")
    attempted = len(jobs)
    payloads = {
        cell: outcome.result.to_dict()
        for cell, outcome in zip(cells, outcomes)
        if outcome.ok
    }

    # --- warm replay from the same roots ------------------------------
    replay_s = 0.0
    if sweep.warm_replay:
        warm_engine, warm_journal = _build_engine(sweep, args.root, workers)
        began = time.perf_counter()
        warm = warm_engine.run(jobs)
        replay_s = time.perf_counter() - began
        if warm_journal is not None:
            warm_journal.close()
        attempted += len(jobs)
        for cell, outcome in zip(cells, warm):
            if not (
                outcome.ok and outcome.cached and cell in payloads
                and _strict(outcome.result.to_dict())
                == _strict(payloads[cell])
            ):
                failures.append(f"{_cell_id(cell)}: warm replay differs")

    requested = sum(job.total_budget() for job in jobs)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "replay_s": replay_s,
        "workers": workers,
        "requested_inst": requested,
        "cell_elapsed_s": [outcome.elapsed_s for outcome in outcomes],
        "cells": {
            _cell_id(cell): hashlib.sha256(
                _canonical(payload).encode()
            ).hexdigest()
            for cell, payload in payloads.items()
        },
        "digest": hashlib.sha256(
            "\n".join(
                sorted(_canonical(p) for p in payloads.values())
            ).encode()
        ).hexdigest(),
        "model": _model(sweep, payloads),
        "layers": None,
        "setup_reference_s": setup_reference_s,
        "cell_calibration": (
            _cell_calibration(calibration, jobs) if args.calibrate else None
        ),
    }

    if tracer is not None:
        layers = _layers(tracer, wall_s + replay_s, jobs, outcomes)
        tracer.uninstall()
        report["layers"] = layers
        # The layers this sweep is meant to bypass really are bypassed,
        # and the core wrapper saw every instruction not resumed.
        for name in sweep.bypassed:
            attempted += 1
            if layers[name] != 0:
                failures.append(f"{name} = {layers[name]}, expected 0")
        attempted += 1
        delivered = requested - sum(o.resumed_from or 0 for o in outcomes)
        if layers["core.instructions"] != delivered:
            failures.append(
                f"core.instructions = {layers['core.instructions']}, "
                f"expected {delivered}"
            )
        # Fast path vs reference interpreter on one cell.
        workload, policy = sweep.reference
        cell = (workload, policy, sweep.budgets[-1])
        reference = make_job(
            workload, policy=policy, max_instructions=cell[2],
            warmup_instructions=sweep.warmup, seed=args.seed, fast=False,
        )
        [slow] = ExperimentEngine(cache=None, checkpoints=None).run(
            [reference]
        )
        attempted += 1
        if not (
            slow.ok and cell in payloads
            and _strict(slow.result.to_dict()) == _strict(payloads[cell])
        ):
            failures.append(f"{_cell_id(cell)}: fast=False differs")

    _reap_workers()
    report["peak_rss_mb"] = _peak_rss_mb()
    report["attempted"] = attempted
    report["failures"] = failures
    print(json.dumps(report))


if __name__ == "__main__":
    main()
