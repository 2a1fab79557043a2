"""Run one workload's passes in a fresh process and write what happened.

Started by ``run.py`` with ``PYTHONPATH=src``; not meant to be run by
hand.  Untraced (``--trace 0``) it runs the workload's pass count for
``--seconds`` (``Workload.passes``) and records each pass's wall time and
each op's latency, host speed (see ``hostspeed.py``) and output digest.
Traced (``--trace 1``) it runs pass 0 untraced, then repeats the *same*
ops under cProfile for about as long, and folds the profile into layer
metrics per traced pass.  Repeating identical ops keeps every count
exact.

Campaign shards run in forked worker processes.  In each forked child a
hook starts a host-speed probe and, while tracing, a fresh profiler; both
are written to files when the child exits, and the parent reads them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import multiprocessing.util
import os
import pstats
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402

perf_counter = time.perf_counter

#: How much slower a traced pass runs than an untraced one, roughly.
TRACE_SLOWDOWN = 2.5


class Spans:
    """In-memory spans (name, start, end, parent); written out at the end."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float, parent=None, **attrs) -> int:
        self.rows.append({"id": len(self.rows), "name": name, "start": start,
                          "end": end, "parent": parent, **attrs})
        return len(self.rows) - 1


# -- forked children (campaign workers) ----------------------------------

#: Set around a campaign pass: where children write their files, and the
#: parent's profiler when tracing (its presence tells children to profile).
_CHILD = {"dir": None, "profile": None}


def _child_after_fork(_owner) -> None:
    """In a forked child: start a speed probe and, when the parent is
    tracing, swap the inherited profiler for a fresh one.  Both are written
    out when the child exits (multiprocessing runs finalizers then)."""
    if _CHILD["dir"] is None:
        return
    prof = None
    if _CHILD["profile"] is not None:
        _CHILD["profile"].disable()
        prof = cProfile.Profile()
    probe = SpeedProbe()
    probe.start()
    multiprocessing.util.Finalize(None, _child_exit,
                                  args=(probe, prof, _CHILD["dir"]),
                                  exitpriority=100)
    if prof is not None:
        prof.enable()


def _child_exit(probe, prof, out_dir) -> None:
    pid = os.getpid()
    if prof is not None:
        prof.disable()
        prof.dump_stats(os.path.join(out_dir, f"child-{pid}.prof"))
    probe.stop()
    with open(os.path.join(out_dir, f"speed-{pid}.json"), "w") as fh:
        json.dump({"speed": probe.overall()}, fh)


class _ForkHook:
    """Weak-referenceable owner for ``register_after_fork``."""


# -- executing passes ---------------------------------------------------


def _fig8_item(op):
    """parallel_map item: one Fig. 8 cell, timed around the public call."""
    key, (n, rtt, entry) = op
    t0 = perf_counter()
    try:
        d, err = W.fig8_run(n, rtt, entry), None
    except Exception as exc:  # noqa: BLE001 - a raised op is a failed op
        d, err = None, f"{type(exc).__name__}: {exc}"
    return key, t0, perf_counter(), d, err


def exec_fig8(ops, ctx):
    from repro.experiments.parallel import parallel_map

    return parallel_map(_fig8_item, ops, workers=1), {}


def exec_zoo(ops, ctx):
    out = []
    for key, (cell, entry) in ops:
        t0 = perf_counter()
        try:
            d, err = W.zoo_run(cell, entry, ctx["zoo_scale"]), None
        except Exception as exc:  # noqa: BLE001
            d, err = None, f"{type(exc).__name__}: {exc}"
        out.append((key, t0, perf_counter(), d, err))
    return out, {}


def exec_campaign(ops, ctx):
    """One whole campaign; one op record per shard, timed from the
    supervisor's own event log (spawn of the shard's last attempt to its
    ``shard.done``), at the host speed its worker measured."""
    ((_key, entry),) = ops
    state = tempfile.mkdtemp(prefix="campaign-", dir=ctx["work"])
    children = tempfile.mkdtemp(prefix="children-", dir=ctx["work"])
    _CHILD["dir"] = children
    try:
        t0 = perf_counter()
        wall0 = time.time()
        try:
            result, err = W.campaign_run(entry, state), None
        except Exception as exc:  # noqa: BLE001
            result, err = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if _CHILD["profile"] is not None:
            _CHILD["profile"].disable()  # reading the results is not the program
        log = Path(state) / "events.jsonl"
        events = ([json.loads(line) for line in log.read_text().splitlines() if line]
                  if log.exists() else [])
        speeds = {}
        for path in Path(children).glob("speed-*.json"):
            speeds[int(path.stem.split("-")[1])] = json.loads(path.read_text())["speed"]
        child_stats = None
        for path in sorted(Path(children).glob("child-*.prof")):
            child_stats = (pstats.Stats(str(path)) if child_stats is None
                           else child_stats.add(str(path)))
    finally:
        _CHILD["dir"] = None
        shutil.rmtree(state, ignore_errors=True)
        shutil.rmtree(children, ignore_errors=True)
    extra = {"child_stats": child_stats}
    if result is None:
        return [(W.campaign_key(entry, s), t0, t1, None, err)
                for s in range(W.CAMPAIGN_SHARDS)], extra
    start = next((e["wall"] for e in events if e["kind"] == "campaign.start"), wall0)
    first_spawn, last_spawn, pid_of, done = {}, {}, {}, {}
    for e in events:
        if e["kind"] == "worker.spawn":
            first_spawn.setdefault(e["shard"], e["wall"])
            last_spawn[e["shard"]] = e["wall"]
            pid_of[e["shard"]] = e["pid"]
        elif e["kind"] == "shard.done":
            done[e["shard"]] = e["wall"]
    whole, shard_digests = W.campaign_digests(result)
    recs = []
    for sid, d in enumerate(shard_digests):
        speed = speeds.get(pid_of.get(sid))
        if sid in done and sid in last_spawn:
            a, b = last_spawn[sid] - wall0, done[sid] - wall0
            recs.append((W.campaign_key(entry, sid), t0 + a, t0 + b, d, None, speed))
        else:
            recs.append((W.campaign_key(entry, sid), t0, t1, None,
                         result.fates.get(sid, {}).get("error", "not done"), speed))
    known = [s for s in speeds.values()]
    extra.update({
        "campaign_key": W.campaign_key(entry),
        "campaign_digest": whole,
        "slot_wait_s": sum(first_spawn[s] - start for s in first_spawn),
        "retries": sum(f.get("attempts", 1) - 1 for f in result.fates.values()),
        "paths": result.n_experiments,
        "speed": sum(known) / len(known) if known else None,
    })
    return recs, extra


EXEC = {"fig8_grid": exec_fig8, "zoo_modern": exec_zoo,
        "campaign_mesh": exec_campaign}


def run_pass(workload, ops, ctx, spans, prof=None) -> dict:
    """Run one pass; latencies are raw seconds, ``speed`` the host speed.
    With ``prof``, only the calls into the program are profiled, not this
    bookkeeping."""
    probe = ctx["probe"]
    t0 = perf_counter()
    if prof is not None:
        prof.enable()
    try:
        recs, extra = EXEC[workload](ops, ctx)
    finally:
        if prof is not None:
            prof.disable()
    t1 = perf_counter()
    pid = spans.add("pass", t0, t1)
    ops_out = []
    for rec in recs:
        key, a, b, d, e = rec[:5]
        speed = rec[5] if len(rec) > 5 and rec[5] is not None else probe.speed(a, b)
        spans.add("op", a, b, parent=pid, key=key)
        ops_out.append({"key": key, "latency_s": b - a, "speed": speed,
                        "digest": d, "error": e})
    if extra.get("speed") is None:
        extra["speed"] = probe.speed(t0, t1)
    busy = sum(o["latency_s"] for o in ops_out)
    return {"wall_s": t1 - t0, "busy_s": busy, "ops": ops_out, **extra}


def ref_seconds(rec: dict) -> float:
    return rec["wall_s"] * rec["speed"]


def traced_pass(workload, ops, ctx, spans, merged):
    """One pass under cProfile, merged with its children's profiles into
    ``merged`` (a ``pstats.Stats`` or None).  Returns (record, merged)."""
    prof = cProfile.Profile()
    _CHILD["profile"] = prof
    try:
        rec = run_pass(workload, ops, ctx, spans, prof)
    finally:
        _CHILD["profile"] = None
    stats = pstats.Stats(prof) if merged is None else merged.add(prof)
    child_stats = rec.pop("child_stats", None)
    if child_stats is not None:
        stats.add(child_stats)
    return rec, stats


def layer_metrics(folded: dict, passes: list, base: dict, uses_map: bool) -> dict:
    """The per-layer metrics of one traced run, per traced pass."""
    from layers import LAYERS

    n_passes = len(passes)
    total = folded["total_s"] or 1.0
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = folded["self_s"][layer] / n_passes
        m[f"{layer}.share"] = folded["self_s"][layer] / total
        m[f"{layer}.calls"] = folded["calls"][layer] / n_passes
    m["unattributed.share"] = folded["unattributed_s"] / total
    pkts = folded["pkts"]
    m["tcp.sink.pkts"] = pkts / n_passes
    m["sim.engine.events"] = folded["events"] / n_passes
    m["sim.engine.events_per_pkt"] = folded["events"] / pkts if pkts else 0.0
    m["sim.engine.cancel_frac"] = (
        folded["cancelled"] / folded["scheduled"] if folded["scheduled"] else 0.0)
    m["all.calls_per_pkt"] = folded["all_calls"] / pkts if pkts else 0.0
    m["sim.queues.drop_frac"] = (
        folded["drops"] / folded["queue_pushes"] if folded["queue_pushes"] else 0.0)
    m["tcp.retx_frac"] = (
        folded["retransmitted"] / folded["sent"] if folded["sent"] else 0.0)
    wall = sum(p["wall_s"] for p in passes) / n_passes
    busy = sum(p["busy_s"] for p in passes) / n_passes
    m["experiments.parallel.busy_s"] = busy if uses_map else 0.0
    m["experiments.parallel.wait_s"] = (wall - busy) if uses_map else 0.0
    m["internet.supervisor.wait_s"] = sum(
        p.get("slot_wait_s", 0.0) for p in passes) / n_passes
    m["internet.supervisor.spawn_s"] = folded["spawn_s"] / n_passes
    m["internet.supervisor.retries"] = sum(p.get("retries", 0) for p in passes)
    paths = sum(p.get("paths", 0) for p in passes)
    m["internet.analytic.skip400_frac"] = (
        (2 * paths - folded["probe_runs"]) / paths if paths else 0.0)
    # Both sides in reference seconds, so a host-speed swing between the
    # untraced and the traced passes does not read as tracing cost.
    m["trace.overhead"] = (sum(ref_seconds(p) for p in passes) / n_passes
                           / ref_seconds(base))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--spans", default=None, help="write spans (JSON lines) here")
    args = ap.parse_args(argv)

    workload = W.WORKLOADS[args.workload]
    for mod in workload.entry_modules:  # import cost stays out of every timing
        __import__(mod)
    probe = SpeedProbe()
    probe.start()
    hook = _ForkHook()
    multiprocessing.util.register_after_fork(hook, _child_after_fork)
    ctx = {"work": args.work, "probe": probe}
    if args.workload == "zoo_modern":
        ctx["zoo_scale"] = W.zoo_scale()
    spans = Spans()
    picker = W.Picker(args.workload, args.seed)
    out: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace == 0:
        if args.workload != "campaign_mesh":
            # Let lazy set-up (registries, first-call caches) finish first.
            warm = W.PLAN_PASS[args.workload](picker, 0)[:1]
            run_pass(args.workload, warm, ctx, Spans())
        out["passes"] = [run_pass(args.workload, W.PLAN_PASS[args.workload](picker, k),
                                  ctx, spans)
                         for k in range(workload.passes(args.seconds))]
    else:
        from layers import Folder

        sys.setrecursionlimit(max(10_000, sys.getrecursionlimit()))
        ops = W.PLAN_PASS[args.workload](picker, 0)
        base = run_pass(args.workload, ops, ctx, spans)
        # Traced passes run slower, so fewer of them fill the same time.
        merged, traced = None, []
        n_traced = max(1, round(workload.passes(args.seconds) / TRACE_SLOWDOWN))
        for _ in range(n_traced):
            rec, merged = traced_pass(args.workload, ops, ctx, spans, merged)
            traced.append(rec)
        folded = Folder().fold(merged.stats)
        base.pop("child_stats", None)
        out["passes"] = [base] + traced
        out["layers"] = layer_metrics(folded, traced, base,
                                      uses_map=args.workload == "fig8_grid")
        out["unmapped"] = folded["unmapped"]
        out["traced_passes"] = len(traced)
    probe.stop()
    del hook
    if args.spans:
        with open(args.spans, "w") as fh:
            for row in spans.rows:
                fh.write(json.dumps(row) + "\n")
    for p in out["passes"]:
        p.pop("child_stats", None)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
