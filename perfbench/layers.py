"""Module -> layer table, and the fold of a cProfile pass into layer metrics.

``LAYER_OF`` is the one place that says which layer a ``repro`` module
belongs to.  A ``repro`` module that runs in a workload but is missing
here is reported by :func:`fold` (``unmapped``) and fails the layer-map
test, so new code cannot hide in ``unattributed.share``.

Attribution rule: a Python function in a mapped module charges its self
time to its module's layer.  Code outside ``repro`` (builtins, NumPy,
the stdlib) charges its self time to whoever called it, split by the
time each caller edge spent in it, recursively; time whose callers lead
back only to the benchmark's own files stays unattributed.  So
``tcp.bbr.self_s`` includes the builtin ``max()`` BBR calls on its sample
list, and ``internet.analytic.self_s`` the NumPy kernels it drives.
``<layer>.calls`` counts calls of the layer's own Python functions only.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Optional

#: Layer of every ``repro`` module that runs in a workload.
LAYER_OF = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.packet": "sim.engine",  # pooled by the engine's free list
    "repro.sim.link": "sim.link",
    "repro.sim.node": "sim.node",
    "repro.sim.queues": "sim.queues",
    "repro.sim.topology": "sim.topology",
    "repro.sim.trace": "sim.trace",
    "repro.sim.rng": "sim.rng",
    "repro.tcp.base": "tcp.window",
    "repro.tcp.reno": "tcp.window",
    "repro.tcp.newreno": "tcp.window",
    "repro.tcp.registry": "tcp.window",
    "repro.tcp.pacing": "tcp.pacing",
    "repro.tcp.bbr": "tcp.bbr",
    "repro.tcp.sink": "tcp.sink",
    "repro.tcp.onoff": "tcp.onoff",
    "repro.apps.latency": "apps",
    "repro.apps.parallel_transfer": "apps",
    "repro.core.events": "core",
    "repro.core.intervals": "core",
    "repro.core.pdf": "core",
    "repro.core.report": "core",
    "repro.experiments.parallel": "experiments.parallel",
    "repro.faults.resilient": "experiments.parallel",
    "repro.experiments.common": "experiments.grids",
    "repro.experiments.fig8_parallel": "experiments.grids",
    "repro.experiments.zoo_grid": "experiments.grids",
    "repro.internet.analytic": "internet.analytic",
    "repro.internet.probe": "internet.analytic",
    "repro.internet.shards": "internet.shards",
    "repro.internet.paths": "internet.shards",
    "repro.internet.sites": "internet.shards",
    "repro.internet.supervisor": "internet.supervisor",
    "repro.faults.checkpoint": "internet.supervisor",
    "repro.faults.plan": "internet.supervisor",
    "repro.obs.bus": "obs",
    "repro.obs.invariants": "obs",
    "repro.obs.metrics": "obs",
    "repro.obs.profiling": "obs",
    "repro.obs.runtime": "obs",
    "repro.obs.spans": "obs",
    "repro.obs.telemetry": "obs",
}

#: Every layer, in report order.
LAYERS = (
    "sim.engine", "sim.link", "sim.node", "sim.queues", "sim.topology",
    "sim.trace", "sim.rng", "tcp.window", "tcp.pacing", "tcp.bbr",
    "tcp.sink", "tcp.onoff", "apps", "core", "experiments.parallel",
    "experiments.grids", "internet.analytic", "internet.shards",
    "internet.supervisor", "obs",
)

#: Layers whose call counts follow the wall clock (poll loops, throttled
#: heartbeats), so they are not exact counts; every other ``.calls`` is.
CLOCK_DRIVEN_CALLS = ("internet.supervisor", "obs")

#: Functions whose call counts the derived counters use: name ->
#: (module, qualified names).  ``DropTrace`` instances bind a closure over
#: the class method, so drops are counted on both code objects.
COUNTED = {
    "sink_receive": ("repro.tcp.sink", ("TcpSink.receive",)),
    "engine_run": ("repro.sim.engine", ("Simulator.run",)),
    "repeating_fire": ("repro.sim.engine", ("RepeatingEvent._fire",)),
    "schedule": ("repro.sim.engine", ("Simulator.schedule_at",
                                      "Simulator.schedule_fast")),
    "cancel": ("repro.sim.engine", ("Event.cancel",)),
    "drop_record": ("repro.sim.trace", ("DropTrace.record",
                                        "DropTrace._bind_record.<locals>.record")),
    "emit": ("repro.tcp.base", ("TcpSender._emit",)),
    "retransmit": ("repro.tcp.base", ("TcpSender.retransmit_head",)),
    "probe_run": ("repro.internet.analytic", ("ProbeKernel._run_one",)),
    "spawn": ("repro.internet.supervisor", ("CampaignSupervisor._spawn",)),
}


def _code_key(module: str, qualname: str) -> tuple:
    """cProfile's key ``(file, first line, name)`` of a function, including
    a nested one (``outer.<locals>.inner``)."""
    obj = importlib.import_module(module)
    parts = qualname.split(".")
    code = None
    for i, part in enumerate(parts):
        if part == "<locals>":
            continue
        if i and parts[i - 1] == "<locals>":
            code = next(c for c in code.co_consts
                        if getattr(c, "co_name", None) == part)
        else:
            obj = getattr(obj, part)
            code = getattr(obj, "__code__", None)
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Folder:
    """Folds ``pstats``-style stats into per-layer metrics."""

    def __init__(self):
        import repro

        self.pkg_dir = str(Path(repro.__file__).resolve().parent)
        self.keys = {name: [_code_key(mod, q) for q in quals]
                     for name, (mod, quals) in COUNTED.items()}
        self._mod_cache: dict[str, Optional[str]] = {}

    def module_of(self, filename: str) -> Optional[str]:
        """``repro`` module name of a code file, or None outside ``repro``."""
        if filename not in self._mod_cache:
            mod = None
            try:
                rel = Path(filename).resolve().relative_to(self.pkg_dir)
            except (ValueError, OSError):
                rel = None
            if rel is not None and rel.suffix == ".py":
                parts = ("repro",) + rel.with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                mod = ".".join(parts)
            self._mod_cache[filename] = mod
        return self._mod_cache[filename]

    def fold(self, stats: dict) -> dict:
        """Layer self time, share and calls, plus the raw counts.

        ``stats`` is ``pstats.Stats(...).stats``: key ``(file, line,
        name)`` -> ``(primitive calls, calls, self time, cumulative time,
        callers)``, each caller edge ``(calls, primitive, self, cum)``.
        """
        unmapped: set[str] = set()
        own: dict = {}
        for key in stats:
            mod = self.module_of(key[0])
            if mod is not None:
                layer = LAYER_OF.get(mod)
                if layer is None:
                    unmapped.add(mod)
                own[key] = layer
        memo: dict = {}

        def dist(key, visiting) -> dict:
            if key in memo:
                return memo[key]
            if key in own:
                d = {own[key]: 1.0}
            else:
                callers = {c: v for c, v in stats[key][4].items() if c != key}
                total = sum(v[2] for v in callers.values())
                idx = 2 if total > 0 else 0
                total = total if total > 0 else sum(v[0] for v in callers.values())
                d = {}
                if not callers or total <= 0:
                    d[None] = 1.0
                visiting.add(key)
                for c, v in callers.items():
                    w = v[idx] / total if total > 0 else 0.0
                    if w <= 0:
                        continue
                    sub = {None: 1.0} if (c in visiting or c not in stats) else dist(c, visiting)
                    for layer, x in sub.items():
                        d[layer] = d.get(layer, 0.0) + w * x
                visiting.discard(key)
            memo[key] = d
            return d

        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        unattributed = 0.0
        total_tt = 0.0
        all_calls = 0
        for key, (cc, nc, tt, ct, callers) in stats.items():
            total_tt += tt
            all_calls += nc
            if key in own and own[key] is not None:
                calls[own[key]] += nc
            for layer, w in dist(key, set()).items():
                if layer is None:
                    unattributed += w * tt
                else:
                    self_s[layer] += w * tt

        def ncalls(name: str) -> int:
            return sum(stats[k][1] for k in self.keys[name] if k in stats)

        # Events the engine dispatched: calls made from Simulator.run into
        # anything but the engine's own helpers and builtins.
        (run_key,) = self.keys["engine_run"]
        (fire_key,) = self.keys["repeating_fire"]
        events = 0
        for key, entry in stats.items():
            edge = entry[4].get(run_key)
            if edge is None or key[0] == "~":
                continue
            if self.module_of(key[0]) == "repro.sim.engine" and key != fire_key:
                continue
            events += edge[0]

        return {
            "self_s": self_s,
            "calls": calls,
            "unattributed_s": unattributed,
            "total_s": total_tt,
            "all_calls": all_calls,
            "events": events,
            "pkts": ncalls("sink_receive"),
            "scheduled": ncalls("schedule"),
            "cancelled": ncalls("cancel"),
            "drops": ncalls("drop_record"),
            "queue_pushes": sum(
                entry[1] for key, entry in stats.items()
                if key[2] == "push" and self.module_of(key[0]) == "repro.sim.queues"
            ),
            "sent": ncalls("emit"),
            "retransmitted": ncalls("retransmit"),
            "probe_runs": ncalls("probe_run"),
            "spawn_s": sum(stats[k][3] for k in self.keys["spawn"] if k in stats),
            "unmapped": sorted(unmapped),
        }
