"""What importing the replication runner costs: no process-pool machinery."""

import os
import subprocess
import sys
from pathlib import Path


def test_simulate_import_loads_no_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import repden.simulate, sys; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
