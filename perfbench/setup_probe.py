"""Time `import conicfin` plus the first load_scenario of each given scenario
file, in this fresh process; print the seconds taken.

    python3 perfbench/setup_probe.py SCENARIO.json [SCENARIO.json ...]

The scenario files are read before the clock starts.
"""

import json
import sys
import time
from pathlib import Path

configs = [json.loads(Path(p).read_text()) for p in sys.argv[1:]]
src = Path(__file__).resolve().parent.parent / "src"
start = time.perf_counter()
sys.path.insert(0, str(src))
from conicfin.scenario import load_scenario  # noqa: E402

for cfg in configs:
    load_scenario(cfg)
print(time.perf_counter() - start)
