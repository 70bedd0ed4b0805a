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


TRACED_RUN = """
import time, tracer
t = tracer.Tracer(time.perf_counter)
tracer.install(t)
from spinlink import cli, schur, spinpoly
braid = spinpoly.parse_braid("1 2")
for engine in ("matrix", "symbolic"):
    spinpoly.eval_spin(braid, 2, engine=engine)
schur.eval_slN(braid, (1, 1, 1), 2)
schur.eval_slN_annular(braid, (1, 1, 1), 2)
assert cli.main(["verify", "xcalc", "--n", "1"]) == 0
metrics = tracer.layer_metrics(t)
names = ("xcalc.build_X.calls", "spinpoly.crossing_data.nnz", "rep.linop_matmul.calls", "schur.annular_eval.calls")
missing = {name: metrics[name] for name in names if not metrics[name] > 0}
assert not missing, missing
"""


def test_the_installed_tracer_runs_every_route():
    # a wrapper whose call no longer fits the wrapped function (its arguments,
    # or what it unpacks from the result) fails only when it runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
