"""Record the per-op output digests the benchmark checks every run against.

Runs every pool entry of one workload through the same public calls the
benchmark makes and writes ``perfbench/digests/<workload>.json``.  Run it
only on a commit whose outputs are known good; a change that must keep
outputs byte-identical never re-records.

    PYTHONPATH=src python3 perfbench/record_digests.py --workload fig8_grid

Campaigns are recorded in-process (``workers=0``); the supervisor's
fingerprints do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def record(workload: str) -> dict:
    out: dict = {}
    entries = range(W.POOL)
    if workload == "fig8_grid":
        for e in entries:
            for rtt in W.FIG8_RTTS:
                for n in W.FIG8_FLOWS:
                    out[W.fig8_key(n, rtt, e)] = W.fig8_run(n, rtt, e)
            print(f"fig8_grid entry {e} done", file=sys.stderr, flush=True)
    elif workload == "zoo_modern":
        scale = W.zoo_scale()
        for e in entries:
            for cell in W.ZOO_CELLS:
                out[W.zoo_key(cell, e)] = W.zoo_run(cell, e, scale)
            print(f"zoo_modern entry {e} done", file=sys.stderr, flush=True)
    elif workload == "campaign_mesh":
        work = HERE.parent / ".perfbench_work"
        work.mkdir(exist_ok=True)
        for e in entries:
            state = tempfile.mkdtemp(prefix="record-", dir=work)
            try:
                result = W.campaign_run(e, state, workers=0)
            finally:
                shutil.rmtree(state, ignore_errors=True)
            whole, shards = W.campaign_digests(result)
            if any(s is None for s in shards):
                raise RuntimeError(f"campaign entry {e}: a shard did not finish")
            out[W.campaign_key(e)] = whole
            for sid, d in enumerate(shards):
                out[W.campaign_key(e, sid)] = d
            print(f"campaign_mesh entry {e} done", file=sys.stderr, flush=True)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    args = ap.parse_args(argv)
    digests = record(args.workload)
    path = HERE / "digests" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
