"""The repo's benchmark: end-to-end and per-layer costs of three workloads.

    python3 perfbench/run.py [--workload fig8_grid|zoo_modern|campaign_mesh|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (any directory that holds ``src/repro``
and ``perfbench``).  For each workload it starts ``runner.py`` in a fresh
interpreter with ``PYTHONPATH=src``, samples the memory of that process
tree, checks every op's output digest against ``digests/``, and, when
untraced, times ``setup_s`` in further fresh interpreters.  It prints
each metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when any
op failed or its output differs from the recorded digest, and 2 when the
program under test is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
#: A runner that takes longer than this is killed and its ops fail.
RUNNER_TIMEOUT_S = 150.0
#: Memory sampling period of the runner's process tree.
SAMPLE_PERIOD_S = 0.2

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """The environment every child gets: this checkout's ``src`` on the
    path and no ``REPRO_*`` knobs, so a user's shell cannot change scale,
    workers or observability under the benchmark."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# -- memory of a process tree -------------------------------------------


def _children_of(pid: int) -> list[int]:
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            out.append(int(name))
    return out


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages split among their users, so the
    sum over forked workers does not count the parent's pages twice.
    Falls back to RSS where the kernel has no ``smaps_rollup``."""
    for path, field in ((f"/proc/{pid}/smaps_rollup", "Pss:"),
                        (f"/proc/{pid}/status", "VmRSS:")):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(field):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


class TreeMemory(threading.Thread):
    """Samples the summed PSS of a process and its descendants."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            tree, frontier = [self.pid], [self.pid]
            while frontier:
                kids = [c for p in frontier for c in _children_of(p)]
                tree += kids
                frontier = kids
            self.peak_kb = max(self.peak_kb, sum(_pss_kb(p) for p in tree))
            self._stop_event.wait(SAMPLE_PERIOD_S)

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return self.peak_kb / 1024.0


# -- running one workload -------------------------------------------------


def run_runner(workload: str, seed: int, seconds: float, trace: int,
               work: Path) -> tuple[dict, float]:
    """Run ``runner.py`` and return (its result, peak tree PSS in MB)."""
    out = work / f"{workload}.json"
    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--out", str(out)]
    if trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"spans-{workload}-{seed}.jsonl")]
    # Its own process group, so a timeout can kill the runner with its workers.
    proc = subprocess.Popen(cmd, env=child_env(), cwd=str(ROOT),
                            start_new_session=True)
    mem = TreeMemory(proc.pid)
    mem.start()
    try:
        proc.wait(timeout=RUNNER_TIMEOUT_S)
    except BaseException as exc:  # timeout or interrupt: leave nothing behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
    finally:
        peak = mem.stop()
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{workload}: runner exited {proc.returncode}")
    return json.loads(out.read_text()), peak


def time_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, host speed) of fresh interpreters that import the
    workload's entry modules and build its first scenario."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                              workload, str(seed)], env=child_env(),
                             cwd=str(ROOT), check=True, timeout=60,
                             capture_output=True, text=True)
        samples.append((time.perf_counter() - t0, float(res.stdout.split()[-1])))
    return samples


def time_scipy_import(workload: str) -> float:
    """Cumulative seconds ``scipy.stats`` adds to importing the workload's
    entry modules in a fresh interpreter (0 when it is not imported)."""
    code = "; ".join(f"import {m}" for m in W.WORKLOADS[workload].entry_modules)
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         env=child_env(), cwd=str(ROOT), check=True,
                         capture_output=True, text=True, timeout=60)
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.stats":
            return int(parts[1]) / 1e6
    return 0.0


def load_digests(workload: str) -> dict:
    """Recorded digests of the workload's pool; none recorded fails every op."""
    path = HERE / "digests" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_ops(passes: list, recorded: dict) -> tuple[int, int, list]:
    """(attempted, failed, first few failure notes) over every op."""
    attempted = failed = 0
    notes = []
    for p in passes:
        whole_ok = True
        if "campaign_key" in p:
            whole_ok = recorded.get(p["campaign_key"]) == p["campaign_digest"]
            if not whole_ok:
                notes.append(f"campaign {p['campaign_key']}: fingerprint "
                             f"{p['campaign_digest']} != recorded "
                             f"{recorded.get(p['campaign_key'])}")
        for op in p["ops"]:
            attempted += 1
            want = recorded.get(op["key"])
            if op["error"] is not None:
                bad, why = True, op["error"]
            elif want is None:
                bad, why = True, "no recorded digest"
            else:
                bad, why = op["digest"] != want or not whole_ok, "digest mismatch"
            if bad:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{op['key']}: {why}")
    return attempted, failed, notes


def percentile(values: list, pct: int) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, result: dict, peak_mb: float, setup: list) -> dict:
    """The bounded metrics; times in reference seconds (raw x host speed).

    ``wall_s`` is the run's total over its pass count.  Every seed runs
    the same scenarios but pairs them into passes differently, so the
    mean pass is the same work on every seed and the median pass is not.
    """
    passes = result["passes"]
    lat = [op["latency_s"] * op["speed"] for p in passes for op in p["ops"]]
    return {
        "wall_s": statistics.fmean(p["wall_s"] * p["speed"] for p in passes),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": percentile(lat, W.WORKLOADS[workload].tail_pct(len(lat))),
        "setup_s": statistics.median(t * v for t, v in setup),
        "peak_rss_mb": peak_mb,
    }


def describe(workload: str, result: dict, metrics: dict, setup: list,
             attempted: int, failed: int) -> list[str]:
    """Human-readable lines: every metric by name with its unit, and the
    raw host seconds next to each reference-second figure."""
    passes = result["passes"]
    walls = sorted(p["wall_s"] * p["speed"] for p in passes)
    raw_walls = [p["wall_s"] for p in passes]
    raw_lat = [op["latency_s"] for p in passes for op in p["ops"]]
    speeds = [op["speed"] for p in passes for op in p["ops"]]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
    n = len(raw_lat)
    pct = W.WORKLOADS[workload].tail_pct(n)
    return [
        f"{workload}: {len(passes)} passes, {n} ops (closed loop, one client); "
        f"host speed {statistics.median(speeds):.3f} of reference "
        f"(range {min(speeds):.3f}..{max(speeds):.3f})",
        f"  wall_s      {metrics['wall_s']:.4f} s  mean pass, reference seconds "
        f"(pass quartiles {q[0]:.4f} .. {q[2]:.4f}; raw mean "
        f"{statistics.fmean(raw_walls):.4f} s)",
        f"  op_p50_s    {metrics['op_p50_s']:.4f} s  over {n} ops "
        f"(raw {statistics.median(raw_lat):.4f} s)",
        f"  op_tail_s   {metrics['op_tail_s']:.4f} s  p{pct}, "
        f"{n * (100 - pct) / 100:.1f} ops beyond (raw {percentile(raw_lat, pct):.4f} s)",
        f"  setup_s     {metrics['setup_s']:.4f} s  median of {len(setup)} fresh "
        f"interpreters (raw {statistics.median(t for t, _ in setup):.4f} s)",
        f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB  summed PSS of the "
        f"process tree",
        f"  failed_frac {failed / max(attempted, 1):.4f}  "
        f"({failed} of {attempted} ops)",
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 work: Path) -> tuple[dict, int, int]:
    result, peak_mb = run_runner(workload, seed, seconds, trace, work)
    attempted, failed, notes = check_ops(result["passes"], load_digests(workload))
    for note in notes:
        print(f"  FAILED {note}")
    if trace:
        metrics = dict(result["layers"])
        metrics["import.scipy_s"] = time_scipy_import(workload)
        if result["unmapped"]:
            print(f"  WARNING modules with no layer: {', '.join(result['unmapped'])}")
        print(f"{workload} (traced, {result['traced_passes']} passes): "
              f"failed_frac {failed / max(attempted, 1):.4f}")
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {layer_unit(name)}")
        return metrics, attempted, failed
    setup = time_setup(workload, seed)
    metrics = end_to_end(workload, result, peak_mb, setup)
    for line in describe(workload, result, metrics, setup, attempted, failed):
        print(line)
    return metrics, attempted, failed


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".pkts", ".events", ".retries")):
        return "count"
    if name.endswith("_per_pkt"):
        return "1/pkt"
    if name == "trace.overhead":
        return "x"
    return "fraction"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    names = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds, args.trace, work)
            prefix = "" if len(names) == 1 else f"{name}."
            units = END_TO_END_UNITS if not args.trace else None
            for k, v in m.items():
                unit = units[k] if units else layer_unit(k)
                metrics[prefix + k] = {"value": v, "unit": unit}
            attempted += a
            failed += f
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
