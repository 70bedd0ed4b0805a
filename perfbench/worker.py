"""One workload batch in a fresh interpreter.

Reads a job as JSON on stdin: {"workload", "items", "trace", "setup_only",
"spans_path"}. Starts probing the host's speed (calibrate.py), imports
spinlink, does the workload's one-time construction, evaluates every item in
order (items share the process-wide caches, as a batch does), and prints one
JSON line with each item's canonical value, the peak RSS, and raw
`perf_counter` readings: when set-up ended, when each item started and ended,
and every probe. The parent turns the readings into normalized times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# Each set-up imports what the workload uses, builds its one-time state, and
# returns the function that evaluates one item to a canonical, JSON-able value.


def spin_matrix():
    from spinlink.spinpoly import eval_spin, parse_braid

    eval_spin(parse_braid("1 -1", 2), 3)  # builds the crossing data of both signs
    return lambda item: eval_spin(parse_braid(item["word"], item["strands"]), 3).json_terms()


def spin_symbolic():
    from spinlink import iqsym
    from spinlink.spinpoly import eval_spin, parse_braid

    iqsym.relation_table(3)
    return lambda item: eval_spin(parse_braid(item["word"], item["strands"]), 3,
                                  engine="symbolic").json_terms()


def sln_annular():
    from spinlink.schur import eval_slN
    from spinlink.spinpoly import parse_braid

    return lambda item: eval_slN(parse_braid(item["word"], item["strands"]), tuple(item["colors"]),
                                 item["N"]).json_terms()


def verify_xcalc():
    from spinlink import cli

    def evaluate(item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(item["argv"])
        return {"exit": code, "report": json.loads(out.getvalue())}

    return evaluate


SETUP = {"spin-matrix": spin_matrix, "spin-symbolic": spin_symbolic,
         "sln-annular": sln_annular, "verify-xcalc": verify_xcalc}


def main() -> int:
    clock = calibrate.Clock()
    clock.start()
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(clock.now)
        tracing.install(tracer)
    evaluate = SETUP[job["workload"]]()
    result = {"ready": perf_counter()}

    if not job["setup_only"]:
        spans, values = [], []
        for item in job["items"]:
            if tracer:
                tracer.request = item["id"]
            t0 = perf_counter()
            try:
                value = evaluate(item)
            except Exception as exc:  # a raising item counts as failed, the batch goes on
                value = {"error": repr(exc)}
            spans.append((t0, perf_counter()))
            values.append(value)
        result.update(spans=spans, values=values,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            result["layers"] = tracing.layer_metrics(tracer)
            if job["spans_path"]:
                tracer.dump_spans(job["spans_path"])
    result["probes"] = clock.stop()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
