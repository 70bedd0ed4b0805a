"""The spinlink benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One caller, closed loop, single process at
a time, no threads. Every batch runs in a fresh interpreter (perfbench/
worker.py), because spinlink's caches live for the whole process and a CLI
user pays the cold start on every call.

The inputs are a fixed pool of braid words per workload (references.json,
two pools: "default" and "heldout"). The seed draws the order of each
batch, which decides which word pays for entries the caches share; each
pair of batches of a run gets its own order, once forward, once reversed. Words are not redrawn per seed: a
4-strand symbolic evaluation costs from 1 ms to over 1 s depending on the
word, so redrawn or conjugated words moved the batch time by a third
between seeds, more than any bound could absorb.

Batches repeat until the next one would end after --seconds (at least one;
two in a traced run, one untraced and one traced). Extra setup-only
interpreters are started until MIN_SETUPS set-up times are known. Times are
normalized for the host's drifting CPU speed (calibrate.py). Every value is
compared with its reference by exact equality of canonical forms.
The last line of stdout is the JSON result; a readable summary goes to
stderr. The exit status is 0 only when every value matched.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spin-matrix", "spin-symbolic", "sln-annular", "verify-xcalc")
MIN_SETUPS = 5
TAIL_BEYOND = 10


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text())


def metric_units() -> dict[str, str]:
    """Units of every metric, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in bench[section]}


def pool_items(workload: str, refs: dict, pool: str = "default") -> list[dict]:
    """The workload's items, each with its reference value."""
    return [item for item in refs[pool][workload] if item["id"] != "smoke"]


def batch_order(items: list[dict], workload: str, seed: int, k: int) -> list[dict]:
    """Batch k of a run: the items in an order drawn from the seed.

    Odd batches reverse the batch before them, so within a run each two words
    come in both orders equally often, and which of them pays for a cache entry
    they share does not depend on the luck of the draw.
    """
    out = list(items)
    random.Random(f"{workload}/{seed}/{k // 2}").shuffle(out)
    return out[::-1] if k % 2 else out


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINLINK_THREADS", None)
    return env


def spawn(workload: str, items: list[dict], trace: bool = False, setup_only: bool = False,
          spans_path: str | None = None) -> dict:
    """Run one fresh worker; its times are normalized (calibrate.Timeline), from process start to exit."""
    job = {"workload": workload, "trace": trace, "setup_only": setup_only, "spans_path": spans_path,
           "items": [{k: v for k, v in it.items() if k not in ("value", "source")} for it in items]}
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(json.dumps(job))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    t_end = perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed with exit status {proc.returncode}")
    out = json.loads(stdout.splitlines()[-1])
    clock = calibrate.Timeline(out.pop("probes"))
    out.update(setup_s=clock.between(t0, out["ready"]), total_s=clock.between(t0, t_end),
               raw_total_s=t_end - t0, probe_s=clock.probe_s, trace=trace)
    if not setup_only:
        spans = out.pop("spans")
        out.update(latencies=[clock.between(a, b) for a, b in spans],
                   items_s=clock.between(spans[0][0], spans[-1][1]) if spans else 0.0)
    return out


def check(batch: dict) -> int:
    """Number of items whose value differs from the reference."""
    return sum(value != item["value"] for item, value in zip(batch["items"], batch["values"], strict=True))


def word_latencies(batches: list[dict]) -> list[float]:
    """Each item's median latency over the batches of the run."""
    per_item: dict[str, list[float]] = {}
    for b in batches:
        for item, latency in zip(b["items"], b["latencies"], strict=True):
            per_item.setdefault(item["id"], []).append(latency)
    return [statistics.median(xs) for xs in per_item.values()]


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of {n}"
    return xs[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) // n} of {n}"


def run(workload: str, seed: int, seconds: float, trace: bool, items: list[dict] | None = None,
        pool: str = "default") -> dict:
    """Measure one workload; returns the result object and a summary."""
    items = items if items is not None else pool_items(workload, load_references(), pool)
    spans_dir = HERE / "out"
    spans_path = None
    if trace:
        spans_dir.mkdir(exist_ok=True)
        spans_path = str(spans_dir / f"spans-{workload}.json")

    batches: list[dict] = []
    start = perf_counter()
    while True:
        traced = trace and len(batches) % 2 == 1
        order = batch_order(items, workload, seed, len(batches))
        batch = spawn(workload, order, trace=traced, spans_path=spans_path if traced else None)
        batches.append(dict(batch, items=order))
        durations = [b["raw_total_s"] for b in batches]  # the budget is wall time
        enough = len(batches) >= (2 if trace else 1)
        if enough and perf_counter() - start + statistics.median(durations) > seconds:
            break
    setups = [b["setup_s"] for b in batches if not b["trace"]]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, [], setup_only=True)["setup_s"])

    attempted = len(items) * len(batches)
    failed = sum(check(b) for b in batches)
    plain = [b for b in batches if not b["trace"]]
    summary = {"batches": len(batches), "items": len(items), "failed_frac": failed / attempted,
               "raw_total_s": statistics.median(b["raw_total_s"] for b in plain),
               "host_speed": calibrate.REF_PROBE_S / statistics.median(b["probe_s"] for b in batches)}
    if trace:
        traced = [b for b in batches if b["trace"]]
        names = traced[0]["layers"]
        values = {name: statistics.median(b["layers"][name] for b in traced) for name in names}
        summary["trace_pairs"] = len(traced)
        values["perfbench.trace_overhead_s"] = (statistics.median(b["total_s"] for b in traced)
                                                - statistics.median(b["total_s"] for b in plain))
    else:
        latencies = word_latencies(plain)
        tail_s, tail_label = tail(latencies)
        summary["word_tail"] = tail_label
        summary["setup_samples"] = len(setups)
        values = {
            "setup_s": statistics.median(setups),
            "total_s": statistics.median(b["total_s"] for b in plain),
            "words_per_s": statistics.median(len(items) / b["items_s"] for b in plain),
            "word_p50_s": statistics.median(latencies),
            "word_tail_s": tail_s,
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
        }
    units = metric_units()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    return {"result": result, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=("default", "heldout"), default="default",
                        help="word pool; heldout checks a claimed gain on words it was not tuned on")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinlink" / "__init__.py").is_file():
        print(f"no spinlink sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), pool=args.pool)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    result, summary = out["result"], out["summary"]
    for name, m in result["metrics"].items():
        print(f"{args.workload:13} {name:36} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:13} {json.dumps(summary)}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
