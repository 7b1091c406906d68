"""The repo benchmark: host cost of three experiment sweeps.

    python3 perfbench/run.py --workload fig5|hw-zoo|sweep-short \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the simulator is imported from the
checkout's ``src``.  Each repetition runs in a fresh interpreter
(``perfbench/rep.py``) with fresh, private cache/checkpoint/journal
roots under ``.perfbench_tmp/`` and a scrubbed environment (no
``REPRO_*`` variables, ``HOME`` inside the scratch root), so nothing
outside the checkout is read or written.

``--trace 0`` repeats the cold sweep (at least three times; a
single-worker sweep two repetitions at a time) until ``--seconds`` is
used up and prints the end-to-end metrics: host times scaled to one
host speed by a reference loop timed around every cell, each cell timed
by its fastest repetition.
``--trace 1`` runs the sweep once untraced and once with every layer's
entry points wrapped (``perfbench/layers.py``) and prints the per-layer
split.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from sweeps import SWEEPS

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
#: A repetition that takes longer than this is killed and the run fails.
REP_TIMEOUT_S = 150
#: Extra setup-only interpreters per run: setup is a fraction of a
#: second, so one sample per repetition is too few for a steady median.
SETUP_PROBES = 5
#: Repetitions a run makes even when they overrun ``--seconds``: each
#: cell is timed by its fastest repetition, and fewer than three let a
#: slow spell of the host cover every one.
MIN_REPS = 3
#: Repetitions of a single-worker sweep run side by side, one per CPU,
#: for more samples of each cell in a run.  A pooled sweep already keeps
#: both CPUs busy and runs alone.
LANES = 2
#: The reference loop's time (``rep.py``) at the host speed every time
#: is reported at.  On the 2-vCPU VM the baseline was measured on it
#: takes 0.9-1.1 ms when the host is fast and 1.5-1.7 ms when it is
#: slowed.
REFERENCE_S = 1e-3

#: The paper's Fig. 5 mean speedups over hardware-only prefetching,
#: beside the metric that reports ours.
PAPER_SPEEDUP_PCT = (
    ("self_repairing", "model.sr_speedup_pct", 23.0),
    ("basic", "model.basic_speedup_pct", 11.0),
)

#: The benchmark's contract.  Metric names and units (in report order),
#: the run length and each workload's reason are read from it, so the
#: output cannot drift from it.
CONTRACT = CHECKOUT / "BENCHMARK.json"


def _units(contract, kind):
    return {m["name"]: m["unit"] for m in contract[kind]}


class RepFailed(RuntimeError):
    pass


def _run_rep(workload, seed, scratch, index, *flags):
    """One repetition in a fresh interpreter; returns its JSON report."""
    root = scratch / f"rep{index}"
    root.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(CHECKOUT / "src"),
        HOME=str(root),
        TMPDIR=str(root),
        PYTHONHASHSEED="0",
    )
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--root", str(root / "store"), *flags,
    ]
    process = subprocess.Popen(
        command, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"repetition {index} exceeded {REP_TIMEOUT_S}s")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if process.returncode != 0:
        raise RepFailed(
            f"repetition {index} exited {process.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _scale(before_s, after_s):
    """Factor taking a time measured between two reference timings to
    the reference host speed."""
    return REFERENCE_S / ((before_s + after_s) / 2)


def _end_to_end(reps, setups):
    """Host times at one host speed.  Other tenants slow each CPU of the
    host, often by 40% or more, for seconds to minutes at a time, so each
    cell's elapsed time is first scaled by the reference loop timed just
    before and after it in the same process.  Each cell is then timed by
    its fastest repetition, which a speed change in the middle of a cell
    slows least.  ``wall_s`` is those cell times spread over the workers
    plus the engine's own overhead (wall time outside the cells and the
    reference timings, scaled by its repetition's mean factor, median
    over repetitions).  ``setups`` holds (setup seconds, reference
    seconds) pairs."""
    workers = reps[0]["workers"]
    scaled = [
        [elapsed * _scale(cell["before"], cell["after"])
         for elapsed, cell in zip(rep["cell_elapsed_s"],
                                  rep["cell_calibration"])]
        for rep in reps
    ]
    cell_s = [min(times) for times in zip(*scaled)]
    overhead_s = statistics.median(
        (rep["wall_s"] - sum(
            elapsed + cell["probe_s"]
            for elapsed, cell in zip(rep["cell_elapsed_s"],
                                     rep["cell_calibration"])
        ) / workers) * sum(rep_scaled) / sum(rep["cell_elapsed_s"])
        for rep, rep_scaled in zip(reps, scaled)
    )
    wall_s = sum(cell_s) / workers + overhead_s
    return {
        "wall_s": wall_s,
        "sim_kips": reps[0]["requested_inst"] / wall_s / 1e3,
        "cell_p50_s": statistics.median(cell_s),
        "cell_max_s": max(cell_s),
        "setup_s": statistics.median(
            setup_s * REFERENCE_S / reference_s
            for setup_s, reference_s in setups
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def _mismatches(reps):
    """(payload comparisons made, cells whose payload differs from the
    first repetition's)."""
    first = reps[0]["cells"]
    compared = [
        rep["cells"].get(cell) != digest
        for rep in reps[1:]
        for cell, digest in first.items()
    ]
    return len(compared), sum(compared)


def _print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")


def _measure(args, scratch, contract):
    units = _units(contract, "end_to_end")
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    deadline = time.perf_counter() + args.seconds
    setups = [
        _run_rep(args.workload, args.seed, scratch, f"setup{index}",
                 "--calibrate", "--setup-only")
        for index in range(SETUP_PROBES)
    ]
    cpus = len(os.sched_getaffinity(0))
    lanes = max(1, min(LANES, cpus // SWEEPS[args.workload].workers))
    reps = []
    while True:
        began = time.perf_counter()
        with ThreadPoolExecutor(lanes) as pool:
            reps += pool.map(
                lambda index: _run_rep(
                    args.workload, args.seed, scratch, index, "--calibrate"
                ),
                range(len(reps), len(reps) + lanes),
            )
        took = time.perf_counter() - began
        if len(reps) >= MIN_REPS and time.perf_counter() + took > deadline:
            break
    failures = [f for rep in reps for f in rep["failures"]]
    compared, mismatched = _mismatches(reps)
    attempted = sum(rep["attempted"] for rep in reps) + compared
    failed = len(failures) + mismatched
    metrics = _end_to_end(reps, [
        (rep["setup_s"], rep["setup_reference_s"]) for rep in setups + reps
    ])
    cells = len(reps[0]["cell_elapsed_s"])
    print(f"workload {args.workload}: {len(reps)} cold sweeps of {cells} "
          f"cells ({lanes} at a time), seed {args.seed}, "
          f"{reps[0]['workers']} worker(s)")
    print(f"  why: {why[args.workload]}")
    _print_metrics(metrics, units)
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} fraction "
          f"({failed}/{attempted})")
    print(f"  sim_digest {reps[0]['digest']}")
    for failure in failures:
        print(f"  FAILED {failure}")
    return failed, attempted, metrics, units


def _trace(args, scratch, contract):
    units = _units(contract, "per_layer")
    sweep = SWEEPS[args.workload]
    plain = _run_rep(args.workload, args.seed, scratch, 0)
    # The traced run is in-process; compare it with an untraced run of
    # the same shape.
    reps = [plain]
    if plain["workers"] != 1:
        reps.append(_run_rep(args.workload, args.seed, scratch, 1,
                             "--workers", "1"))
    same_shape = reps[-1]
    traced = _run_rep(args.workload, args.seed, scratch, 2, "--traced")
    reps.append(traced)
    failures = [f for rep in reps for f in rep["failures"]]
    # Cells whose payload differs between the untraced and traced runs
    # (equal sim_digest otherwise).
    compared, mismatched = _mismatches(reps)
    attempted = sum(rep["attempted"] for rep in reps) + compared
    failed = len(failures) + mismatched
    metrics = dict(traced["layers"])
    metrics.update(plain["model"])
    plain_cells = sum(plain["cell_elapsed_s"])
    metrics["engine.overhead_s"] = (
        plain["wall_s"] - plain_cells / plain["workers"]
    )
    metrics["engine.replay_s"] = plain["replay_s"]
    traced_s = traced["wall_s"] + traced["replay_s"]
    untraced_s = same_shape["wall_s"] + same_shape["replay_s"]
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    metrics = {name: metrics[name] for name in units}
    print(f"workload {args.workload} (traced, in-process), seed {args.seed}")
    _print_metrics(metrics, units)
    for policy, name, paper in PAPER_SPEEDUP_PCT:
        if policy in sweep.policies:
            print(f"  {policy} vs hw_only: {metrics[name]:+.1f}% "
                  f"(paper: +{paper:.0f}%; synthetic stand-ins for the "
                  f"paper's benchmarks, not a validated error figure)")
    print(f"  sim_digest {plain['digest']} untraced, "
          f"{traced['digest']} traced")
    for failure in failures:
        print(f"  FAILED {failure}")
    return failed, attempted, metrics, units


def main() -> int:
    contract = json.loads(CONTRACT.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed passed to make_job (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2
    # Byte-compile once up front so no repetition pays for it.
    compileall.compile_dir(CHECKOUT / "src", quiet=1)
    scratch = CHECKOUT / ".perfbench_tmp" / str(os.getpid())
    try:
        measure = _trace if args.trace else _measure
        failed, attempted, metrics, units = measure(args, scratch, contract)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
