"""Time one cold set-up in a fresh interpreter.

Set-up is what every workload does before its first op: import layersafe,
load the bundled scenarios, and build pair, barrier, law and recurrent
barrier for each. Prints the set-up time, then the reference kernel's time
in this same interpreter, both in seconds. Run as
``python3 bench/setup_probe.py SRC_DIR``.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from layersafe import scenario  # noqa: E402

for name in ("two_disks.scn", "open_field.scn"):
    scn = scenario.load_scenario(scenario.bundled_scenario_path(name))
    b = scenario.build_barrier(scn)
    scenario.build_pair(scn)
    scenario.build_law(scn, b)
    scenario.build_scenario_rcbf(scn, b)
setup = time.perf_counter() - t0

import refkernel  # noqa: E402  (bench-local; imported after the timed set-up)

refkernel.seconds()
print(repr(setup), repr(refkernel.seconds()))
