"""Per-layer host-time attribution for the traced benchmark run.

The simulator carries no per-layer instrumentation of its own, so the
traced run wraps each layer's public entry points from outside the
package and sums each span's self time in memory:

* ``workloads``  - ``repro.harness.runner.load_workload`` and
  ``repro.scenarios.materialize_workload`` (building a workload);
* ``fastpath``   - ``compile_program``/``compile_batches``/
  ``compile_trace`` as bound in ``repro.cpu.core``;
* ``core``       - ``SMTCore.run`` (dispatch);
* ``memory``     - ``MemoryHierarchy.load``/``load_synthetic``/``store``/
  ``software_prefetch``/``drain``;
* ``hwprefetch`` - the hierarchy's ``stream_prefetcher.on_demand_load``;
* ``trident``    - ``TridentRuntime.tick``/``on_branch``/
  ``on_trace_load``/``on_trace_execution``/``trace_at``;
* ``checkpoint`` - ``CheckpointStore.save``/``best`` and
  ``repro.checkpoint.restore``;
* ``cache``/``journal`` - ``ResultCache.get``/``put``, ``JobJournal.append``.

A layer's self time is its spans' inclusive time minus the wrapped
children they contain (``hierarchy.load`` contains ``on_demand_load``
and ``drain``).  The wrappers' own bookkeeping is charged to nobody, so
it shows up as unattributed time rather than inflating a parent layer.

Methods are patched on the *classes*, never on instances: a snapshot
pickles the simulator's object graph, and a class attribute keeps both
pickling and the fast path's bound-method captures intact.  The
core-side wrappers go in when ``repro.harness.runner`` constructs an
``SMTCore`` - after the hierarchy, hardware prefetcher and Trident
runtime exist, and before the first ``run`` compiles the fast-path
closures that bind ``hierarchy.load``/``store``/``software_prefetch``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

#: Every span name, by layer (the order metrics are reported in).
LAYER_SPANS = {
    "workloads": ("load_workload", "materialize_workload"),
    "fastpath": ("compile_program", "compile_batches", "compile_trace"),
    "core": ("SMTCore.run",),
    "memory": ("load", "load_synthetic", "store", "software_prefetch",
               "drain"),
    "hwprefetch": ("on_demand_load",),
    "trident": ("tick", "on_branch", "on_trace_load", "on_trace_execution",
                "trace_at"),
    "checkpoint": ("CheckpointStore.save", "CheckpointStore.best",
                   "restore"),
    "cache": ("ResultCache.get", "ResultCache.put"),
    "journal": ("JobJournal.append",),
}


class LayerTracer:
    """Span accounting plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        #: Self seconds per span name.
        self.self_s = defaultdict(float)
        #: Work counters (loads, L1 hits, prefetches issued, ...).
        self.counts = Counter()
        #: Hardware prefetches issued in the measured segment of each
        #: cell that had a hardware prefetcher, keyed by (workload,
        #: policy, budget).
        self.cell_hw_issued = {}
        self._stack = [0.0]
        self._patched = []
        self._wrapped = set()

    # ------------------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(args)`` returns a token
        handed to ``after(args, result, token)`` for boundary counters."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            token = before(args) if before is not None else None
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = clock() - started
                self_s[name] += inclusive - stack.pop()
            if after is not None:
                after(args, result, token)
            stack[-1] += clock() - entered
            return result

        return wrapper

    def patch(self, owner, attr, name=None, before=None, after=None):
        """Replace ``owner.attr`` with its timed wrapper (once per owner)."""
        if (owner, attr) in self._wrapped:
            return
        original = getattr(owner, attr)
        self._wrapped.add((owner, attr))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name or attr, original, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrapped.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layers reachable before any core exists, and hook
        ``SMTCore`` construction in the runner for the rest."""
        import repro.checkpoint as checkpoint
        import repro.cpu.core as core_module
        import repro.harness.runner as runner
        import repro.scenarios as scenarios
        from repro.checkpoint.store import CheckpointStore
        from repro.harness.cache import ResultCache
        from repro.harness.journal import JobJournal

        counts = self.counts
        built = count_into(counts, "workloads.builds")
        self.patch(runner, "load_workload", after=built)
        self.patch(scenarios, "materialize_workload", after=built)
        for fn in LAYER_SPANS["fastpath"]:
            self.patch(core_module, fn, after=self._count_compile(fn))
        self.patch(checkpoint, "restore", after=self._after_restore)

        def saved(args, result, token):
            counts["checkpoint.saves"] += bool(result)

        self.patch(CheckpointStore, "save", "CheckpointStore.save",
                   after=saved)
        self.patch(CheckpointStore, "best", "CheckpointStore.best")

        def hit(args, result, token):
            counts["cache.hits"] += result is not None

        self.patch(ResultCache, "get", "ResultCache.get", after=hit)
        self.patch(ResultCache, "put", "ResultCache.put")
        self.patch(JobJournal, "append", "JobJournal.append",
                   after=count_into(counts, "journal.appends"))

        # Cell boundary (not a layer: tags per-cell counters).
        self._patch_cell_run(runner.Simulation)

        real_core = runner.SMTCore

        def construct(*args, **kwargs):
            core = real_core(*args, **kwargs)
            self.install_core(core)
            return core

        self._patched.append((runner, "SMTCore", real_core))
        runner.SMTCore = construct

    def install_core(self, core) -> None:
        """Wrap the classes of one core's components (idempotent)."""
        from repro.memory.stats import OutcomeKind, PrefetchSource

        counts = self.counts
        hit_kinds = (OutcomeKind.HIT, OutcomeKind.HIT_PREFETCHED)
        useful_kinds = (OutcomeKind.HIT_PREFETCHED, OutcomeKind.PARTIAL_HIT)
        software = PrefetchSource.SOFTWARE

        def run_before(args):
            stats = args[0].stats
            return stats.committed, stats.trace_committed

        def run_after(args, result, token):
            stats = args[0].stats
            counts["core.instructions"] += stats.committed - token[0]
            counts["core.trace_instructions"] += (
                stats.trace_committed - token[1]
            )

        self.patch(type(core), "run", "SMTCore.run", run_before, run_after)

        def demand_load(args, outcome, token):
            counts["memory.accesses"] += 1
            counts["memory.loads"] += 1
            kind = outcome.kind
            if kind in hit_kinds:
                counts["memory.l1_hits"] += 1
            source = outcome.prefetch_source
            if source is not None and kind in useful_kinds:
                if source is software:
                    counts["trident.sw_useful"] += 1
                else:
                    counts["hwprefetch.useful"] += 1

        def sw_prefetch(args, started_fill, token):
            counts["memory.accesses"] += 1
            counts["trident.sw_issued"] += 1
            counts["trident.sw_useless"] += not started_fill

        hierarchy = type(core.hierarchy)
        self.patch(hierarchy, "load", after=demand_load)
        access = count_into(counts, "memory.accesses")
        self.patch(hierarchy, "load_synthetic", after=access)
        self.patch(hierarchy, "store", after=access)
        self.patch(hierarchy, "software_prefetch", after=sw_prefetch)
        self.patch(hierarchy, "drain",
                   after=count_into(counts, "memory.drains"))

        prefetcher = core.hierarchy.stream_prefetcher
        if prefetcher is not None:
            def issued_before(args):
                return args[0].hierarchy.stats.hardware_prefetches_issued

            def issued_after(args, result, token):
                counts["hwprefetch.calls"] += 1
                counts["hwprefetch.issued"] += (
                    args[0].hierarchy.stats.hardware_prefetches_issued
                    - token
                )

            self.patch(type(prefetcher), "on_demand_load",
                       before=issued_before, after=issued_after)

        runtime = core.runtime
        if runtime is not None:
            for hook in LAYER_SPANS["trident"]:
                key = "trident.ticks" if hook == "tick" else (
                    "trident.hook_calls"
                )
                self.patch(type(runtime), hook, after=count_into(counts, key))

    # ------------------------------------------------------------------
    def _count_compile(self, fn):
        counts = self.counts

        def after(args, result, token):
            counts["fastpath.compiles"] += 1
            if fn == "compile_batches":
                counts["fastpath.batch_compiles"] += 1
                if args[0].runtime is not None:
                    counts["fastpath.sw_batch_compiles"] += 1

        return after

    def _after_restore(self, args, sim, token) -> None:
        # A restored run never constructs a core; make sure its
        # component classes are wrapped before it runs.
        self.counts["checkpoint.restores"] += 1
        self.install_core(sim.core)

    def _patch_cell_run(self, simulation_cls) -> None:
        """Tag each finished cell, cold or resumed, with the hardware
        prefetches issued in its measured segment (the hierarchy's
        counters restart after warmup and travel in a snapshot)."""
        per_cell = self.cell_hw_issued
        for attr in ("run", "resume"):
            original = getattr(simulation_cls, attr)

            def wrapper(sim, *args, _original=original, **kwargs):
                result = _original(sim, *args, **kwargs)
                config = sim.config
                if config.policy.hardware_prefetching:
                    cell = (
                        sim.workload.name,
                        config.hw_prefetcher or config.policy.value,
                        config.max_instructions,
                    )
                    per_cell[cell] = (
                        sim.hierarchy.stats.hardware_prefetches_issued
                    )
                return result

            self._patched.append((simulation_cls, attr, original))
            setattr(simulation_cls, attr,
                    functools.wraps(original)(wrapper))

    # ------------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s[name] for name in LAYER_SPANS[layer])

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def count_into(counts, key):
    """An ``after`` hook that counts calls under ``key``."""
    def after(args, result, token):
        counts[key] += 1
    return after
