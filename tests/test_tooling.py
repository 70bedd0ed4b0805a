"""The benchmark's layer tracer wraps spinlink functions by name.

A renamed or deleted function makes `perfbench/tracer.py`'s `install` raise,
which breaks every traced benchmark run; this test catches that in tier-1.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    code = "import time, tracer; tracer.install(tracer.Tracer(time.perf_counter))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
