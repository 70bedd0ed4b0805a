"""Re-measure the construction and sweep timings quoted in ROADMAP.md.

    python3 perfbench/micro.py

Each timing runs in a fresh interpreter (the functions cache their results
for the life of the process) and the median of REPEATS runs is printed as
one JSON object. These are not benchmark workloads: they time one function
each, for comparison with the numbers ROADMAP.md records.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3

CASES = {
    "crossing_data(3, +-1)": ("from spinlink.spinpoly import _crossing_data as f",
                              "f(3, 1); f(3, -1)"),
    "rep.H(3)": ("from spinlink.rep import H as f", "f(3)"),
    "sweep_raw_traces(3, 2, 6)": ("from spinlink.spinpoly import sweep_raw_traces as f", "f(3, 2, 6)"),
}


def time_once(setup: str, stmt: str) -> float:
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); {setup}\n"
            f"t = time.perf_counter(); {stmt}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout)


def main() -> int:
    result = {}
    for name, (setup, stmt) in CASES.items():
        samples = [time_once(setup, stmt) for _ in range(REPEATS)]
        result[name] = {"median_s": statistics.median(samples), "samples_s": samples}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
