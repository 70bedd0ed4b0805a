"""Regenerate perfbench/references.json: the word pools and their reference values.

Each pool word is evaluated by an independent route, never by the route the
workload times, and the timed route must agree before the value is stored:

* spin-matrix words are checked against the symbolic route;
* spin-symbolic words are checked against the matrix route (minutes at
  (n, m) = (3, 4), which is why the values are stored, not recomputed);
* sln-annular words at N = 2 are checked against the Kauffman bracket through
  the rank-one normalization dictionary; N = 3 and N = 4 have no second
  route yet, so their values are the current code's and are labelled so;
* verify-xcalc stores the whole report, which must exit 0 with every
  entry "pass".

Usage, from the root of the repository:  python3 perfbench/make_references.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spinlink import cli  # noqa: E402
from spinlink.schur import eval_slN, sl2_from_spin1, spin1_from_jones  # noqa: E402
from spinlink.spinpoly import eval_spin, parse_braid  # noqa: E402

# The default pool is what every run measures; the held-out pool (other
# words, same sizes) is for checking a claimed gain on inputs it was not
# tuned on (run.py --pool heldout).
POOL_SEEDS = {"default": 20240700, "heldout": 20240701}
OUT = Path(__file__).resolve().parent / "references.json"

# (strands, lengths cycled through, pool size) per spin workload, rank n = 3.
SPIN_POOLS = {"spin-matrix": (3, range(4, 11), 24), "spin-symbolic": (4, range(4, 8), 48)}
# (N, colors, lengths cycled through, pool size) for sln-annular.
SLN_POOLS = [(2, (1, 1, 1), range(12, 17), 10), (3, (1, 1, 1), range(12, 17), 10),
             (4, (1, 1, 1), range(12, 17), 10), (4, (2, 2, 2), range(6, 9), 6)]
XCALC_ARGV = {"workload": ["verify", "xcalc", "--n", "3", "--format", "json"],
              "smoke": ["verify", "xcalc", "--n", "1", "--format", "json"]}


def random_word(rng: random.Random, strands: int, length: int) -> str:
    return " ".join(str(rng.randint(1, strands - 1) * rng.choice((1, -1))) for _ in range(length))


def run_cli(argv: list[str]) -> tuple[int, list[dict]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def spin_items(name: str, rng: random.Random) -> list[dict]:
    strands, lengths, size = SPIN_POOLS[name]
    timed, oracle = ("matrix", "symbolic") if name == "spin-matrix" else ("symbolic", "matrix")
    items = []
    for k in range(size):
        word = random_word(rng, strands, lengths[k % len(lengths)])
        braid = parse_braid(word, strands)
        ref = eval_spin(braid, 3, engine=oracle)
        if eval_spin(braid, 3, engine=timed) != ref:
            raise SystemExit(f"{name}: routes disagree on {word!r}")
        items.append({"id": f"w{k:02d}", "word": word, "strands": strands, "value": ref.json_terms(),
                      "source": f"eval_spin(engine={oracle!r}), agrees with engine={timed!r}"})
        print(f"{name} {k} {word!r}", flush=True)
    return items


def sln_items(rng: random.Random) -> list[dict]:
    items = []
    for N, colors, lengths, size in SLN_POOLS:
        for k in range(size):
            word = random_word(rng, 3, lengths[k % len(lengths)])
            braid = parse_braid(word, 3)
            value = eval_slN(braid, colors, N)
            if N == 2 and colors == (1, 1, 1):
                if sl2_from_spin1(braid, spin1_from_jones(braid)) != value:
                    raise SystemExit(f"sln-annular: Kauffman oracle disagrees on {word!r}")
                source = "kauffman_jones via the rank-one dictionary (sl2_from_spin1)"
            else:
                source = "current code (no second route at this N yet)"
            items.append({"id": f"N{N}c{colors[0]}w{k:02d}", "word": word, "strands": 3, "N": N,
                          "colors": list(colors), "value": value.json_terms(), "source": source})
            print(f"sln-annular N={N} {colors} {k} {word!r}", flush=True)
    return items


def xcalc_items() -> list[dict]:
    items = []
    for label, argv in XCALC_ARGV.items():
        code, report = run_cli(argv)
        if code != 0 or any(e["status"] != "pass" for e in report):
            raise SystemExit(f"verify-xcalc: {argv} did not pass")
        items.append({"id": label, "argv": argv, "value": {"exit": code, "report": report},
                      "source": "exit status 0 and every report entry pass"})
    return items


def dump(refs: dict) -> str:
    """JSON with one pool item per line, so a changed reference is a one-line diff."""
    pools = []
    for pool, body in refs.items():
        fields = [f'  "seed": {body["seed"]}']
        for workload, items in body.items():
            if workload != "seed":
                rows = ",\n".join("   " + json.dumps(item) for item in items)
                fields.append(f'  "{workload}": [\n{rows}\n  ]')
        pools.append(f' "{pool}": {{\n' + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(pools) + "\n}\n"


def main() -> int:
    start = time.perf_counter()
    refs = {}
    xcalc = xcalc_items()
    for pool, seed in POOL_SEEDS.items():
        rng = random.Random(seed)
        refs[pool] = {
            "seed": seed,
            "spin-matrix": spin_items("spin-matrix", rng),
            "spin-symbolic": spin_items("spin-symbolic", rng),
            "sln-annular": sln_items(rng),
            "verify-xcalc": xcalc,
        }
    OUT.write_text(dump(refs))
    print(f"wrote {OUT} in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
