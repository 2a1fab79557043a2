"""One ``setup_s`` sample: import a workload's entry modules and build its
first scenario, in the fresh interpreter ``run.py`` starts and times.
Prints the host speed sampled meanwhile, so ``run.py`` can state the
sample in reference seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import SpeedProbe  # noqa: E402

if __name__ == "__main__":
    probe = SpeedProbe()
    probe.start()
    import workloads as W

    workload, seed = sys.argv[1], int(sys.argv[2])
    for mod in W.WORKLOADS[workload].entry_modules:
        importlib.import_module(mod)
    W.build_first_scenario(workload, seed)
    probe.stop()
    print(probe.overall())
