"""The benchmark tracer stays wired to the package.

perfbench/tracing.py patches conicfin functions and methods by name, so a
renamed entry point or a moved call would leave a layer with no recorded
calls and break `perfbench/run.py --trace 1`. One small traced pass per
workload catches that here.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from conicfin.scenario import run_scenario  # noqa: E402

SMALL_CASES = {
    "lattice_quotes": lambda: workloads.lattice_quotes(0, horizon=6),
    "hedge_search": lambda: workloads.hedge_search(0),
    "exact_tables": lambda: workloads.exact_tables(0, planted=1, clean=1),
}


@pytest.mark.parametrize("workload", sorted(SMALL_CASES))
def test_every_active_layer_records_calls(workload, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for case in SMALL_CASES[workload]():
            run_scenario(case.config, str(tmp_path / case.label))
    finally:
        tracer.uninstall()
    idle = [layer for layer in tracing.ACTIVE_LAYERS[workload] if tracer.layer_calls(layer) == 0]
    assert not idle, f"{workload}: no calls recorded in layers {idle}"
    # eval alone keeps the drivers layer active, so make is checked by name
    assert tracer.calls["drivers.make"] > 0, f"{workload}: no drivers.make calls recorded"
