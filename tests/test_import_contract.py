"""What `import freeperiod` loads, checked in a fresh interpreter.

numpy and freeperiod.cli must load: the benchmark's import-time probe
reads both from `python -X importtime`.  The process-pool modules must
not: only a run with --jobs > 1 needs them, and lspace imports them when
it starts a pool.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import freeperiod
print(json.dumps(sorted(sys.modules)))
"""


def test_package_import_loads_numpy_and_cli_but_no_pool():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"numpy", "freeperiod.cli", "freeperiod.lspace"} <= loaded
    pool = sorted(m for m in loaded
                  if m.split(".")[0] == "multiprocessing"
                  or m == "concurrent.futures"
                  or m.startswith("concurrent.futures."))
    assert pool == []
