"""Command-line interface: polynomial evaluation, verification suites, dumps.

Exit codes: 0 when everything passes, 1 when a gating verification fails,
2 on usage errors and on inputs too deep or too large to evaluate (an
error line on stderr, never a traceback).  The conjecture probes never
gate.  Output ordering is deterministic (exponent-sorted terms, no
timestamps) so reports can be used as golden files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction

from .qalg import GradedScalar, appendixA_suite, report_entry
from .spinpoly import BraidParseError, BraidWord, eval_spin, parse_braid


def _scalar_out(value: GradedScalar, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"terms": value.json_terms()})
    return str(value)


def _emit_report(report: list[dict], fmt: str) -> bool:
    ok = all(e["status"] == "pass" for e in report)
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for e in report:
            line = f"{e['status'].upper():4} {e['identity_id']} {e['parameters']}"
            if "witness" in e:
                line += f" witness={e['witness']}"
            print(line)
    return ok


# -- verification suites ---------------------------------------------------------


def _suite_qalg(args) -> list[dict]:
    return appendixA_suite(args.bound)


def _suite_rep(args) -> list[dict]:
    from . import rep

    items = []

    def entry(name, ok):
        items.append(report_entry(name, {"n": n}, ok))

    for n in range(1, args.n + 1):
        idS = rep.LinOp.identity(("S",), n)
        cup, cap = rep.cup_n(n), rep.cap_n(n)
        entry("snake-identities", (cap.tensor(idS) @ idS.tensor(cup)) == idS
              and (idS.tensor(cap) @ cup.tensor(idS)) == idS)
        entry("circle-value", (cap @ cup).entry((), ()) == rep.circle_value(n))
        entry("cupcap-intertwiners", rep.is_intertwiner(cup, n) and rep.is_intertwiner(cap, n))
        entry("trivalent-intertwiner", rep.is_intertwiner(rep.Y1(n), n))
        entry("h-intertwiner", rep.is_intertwiner(rep.H(n), n))
        tw0, ok = rep.lusztig_T_w0(n), True
        for i in range(0, n + 1):
            J = (1 << i) - 1
            K = ((1 << n) - 1) ^ J
            ok = ok and list(tw0.cols.get((J,), {})) == [(K,)] and tw0.entry((J,), (K,)) == rep.qJ(K, n)
        entry("longest-weyl-on-flags", ok)
    return items


def _suite_clifford(args) -> list[dict]:
    from . import clifford, rep

    items = []
    for n in range(1, args.n + 1):
        action_ok = all(
            clifford.qgrp_via_clifford(kind, i, n) == rep.spin_action(kind, i, n)
            for kind in ("e", "f", "k", "k_inv")
            for i in range(1, n + 1)
        )
        c_ok = clifford.wenzl_C(n) == rep.H(n)
        items += [
            report_entry("clifford-action-matches", {"n": n}, action_ok),
            report_entry("wenzl-c-equals-h", {"n": n}, c_ok),
        ]
    return items


def _suite_xcalc(args) -> list[dict]:
    from . import iqsym, xcalc

    iqsym.relation_table(args.n)  # a rank without tables is refused before any check runs
    items = []
    for n in range(1, args.n + 1):
        try:
            fam = xcalc.build_X(n)
        except AssertionError:
            fam = None  # each check reports the refused H as its x-family entry
        items += xcalc.change_of_basis_check(n, fam)
        items += xcalc.relation_suite(n, fam=fam)
    return items


def _suite_iq(args) -> list[dict]:
    from . import iqsym

    return iqsym.gk_ops()


def _suite_schur(args) -> list[dict]:
    from . import schur
    from .qalg import qbinom

    report = []
    ok = True
    for N in range(0, min(args.n + 2, 5) + 1):
        for a1 in range(0, N + 1):
            x = schur.SchurElement.idempotent((a1,), N)
            if schur.bilinear_form(x) != GradedScalar(0, qbinom(N, a1)):
                ok = False
    report.append(report_entry("bilinear-base-case", {}, ok))
    tre = parse_braid("s1 s1 s1")
    su = eval_spin(tre, 1, normalization="unframed")
    d2 = su == schur.spin1_from_jones(tre)
    d3 = schur.eval_slN(tre, (1, 1), 2) == schur.sl2_from_spin1(tre, su)
    report.append(report_entry("normalization-dictionary-trefoil", {}, d2 and d3))
    # production (blocks on three strands, weight spaces on more) against the oracle
    # (annular evaluation), and on three strands the weight-space route too
    cases = [(parse_braid(text, m), (c,) * m, N) for text, m, N, c in schur.WITNESSES]
    letters = [(i, s) for i in (1, 2) for s in (1, -1)]
    for length in range(4):
        for word in itertools.product(letters, repeat=length):
            for N in (2, 3, 4):
                cases += [(BraidWord(3, word), (c, c, c), N) for c in (1, 2)]

    def agrees(braid, colors, N):
        want = schur.eval_slN_annular(braid, colors, N)
        routes = [schur.eval_slN] + ([schur.eval_slN_weight_space] if braid.strands == 3 else [])
        return all(route(braid, colors, N) == want for route in routes)

    same = all(agrees(*case) for case in cases)
    report.append(report_entry("weight-space-equals-annular", {}, same))
    # a knot's value at q = 1 is +- the dimension C(N, c) of its color
    dims = all(
        abs(schur.eval_slN(parse_braid(text, m), (c,) * m, N).body.subs_v(Fraction(1))) == math.comb(N, c)
        for text, m, N, c in schur.WITNESSES
    )
    report.append(report_entry("q1-dimension", {}, dims))
    return report


def _suite_conjectures(args) -> list[dict]:
    from . import xcalc

    return xcalc.relation_suite(args.n, probe=True)


_SUITES = {
    "qalg": _suite_qalg,
    "rep": _suite_rep,
    "clifford": _suite_clifford,
    "xcalc": _suite_xcalc,
    "iq": _suite_iq,
    "schur": _suite_schur,
    "conjectures": _suite_conjectures,
}


# -- dump -------------------------------------------------------------------------


def _dump_operator(name: str, n: int):
    from . import clifford, rep, xcalc

    lname = name.lower()
    if lname == "h":
        return rep.H(n)
    if lname == "wenzl-c":
        return clifford.wenzl_C(n)
    if lname.startswith("x") and lname[1:].isdigit():
        fam = xcalc.build_X(n, check_product_route=False)
        return fam[int(lname[1:])]
    if lname == "braiding":
        return xcalc.braiding(n)
    if lname == "inverse-braiding":
        return xcalc.braiding(n, sign=-1)
    if lname == "cup":
        return rep.cup_n(n)
    if lname == "cap":
        return rep.cap_n(n)
    if lname == "y1":
        return rep.Y1(n)
    if lname[:1] in ("e", "f", "k") and lname[1:].isdigit():
        return rep.spin_action(lname[0], int(lname[1:]), n)
    if lname.startswith("t") and lname[1:].isdigit():
        return rep.lusztig_T(int(lname[1:]), n)
    raise ValueError(f"unknown operator {name!r}")


# -- main -------------------------------------------------------------------------


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="spinlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="evaluate a link polynomial of a braid closure")
    polysub = poly.add_subparsers(dest="flavor", required=True)

    spin = polysub.add_parser("spin", help="spin-colored type B polynomial")
    spin.add_argument("--n", type=_positive, required=True, help="rank of so(2n+1)")
    spin.add_argument("--strands", type=_positive, default=None)
    spin.add_argument("--braid", type=str, default="")
    spin.add_argument("--normalize", choices=("raw", "unframed", "intro"), default="raw")
    spin.add_argument("--mirror", action="store_true")
    spin.add_argument("--engine", choices=("matrix", "symbolic"), default="matrix")
    spin.add_argument("--format", choices=("text", "json"), default="text")

    sln = polysub.add_parser("sln", help="colored sl_N polynomial")
    sln.add_argument("--N", type=_positive, required=True)
    sln.add_argument("--colors", type=str, required=True, help="comma-separated strand colors")
    sln.add_argument("--braid", type=str, default="")
    sln.add_argument("--strands", type=_positive, default=None)
    sln.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(_SUITES))
    verify.add_argument("--bound", type=_positive, default=10, help="parameter bound (qalg)")
    verify.add_argument("--n", type=_positive, default=2,
                        help="max rank (rep/clifford/xcalc/schur) or probe rank (conjectures)")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    dump = sub.add_parser("dump", help="dump an operator as canonical JSON rows")
    dump.add_argument("operator")
    dump.add_argument("--n", type=_positive, required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "poly" and args.flavor == "spin":
            braid = parse_braid(args.braid, args.strands)
            value = eval_spin(
                braid, args.n, normalization=args.normalize, mirror=args.mirror, engine=args.engine
            )
            print(_scalar_out(value, args.format))
            return 0
        if args.command == "poly" and args.flavor == "sln":
            from . import schur

            braid = parse_braid(args.braid, args.strands)
            try:
                colors = tuple(int(c) for c in args.colors.split(","))
            except ValueError:
                raise ValueError(f"--colors takes comma-separated integers, got {args.colors!r}") from None
            value = schur.eval_slN(braid, colors, args.N)
            print(_scalar_out(value, args.format))
            return 0
        if args.command == "verify":
            ok = _emit_report(_SUITES[args.suite](args), args.format)
            if args.suite == "conjectures":
                return 0  # probes never gate
            return 0 if ok else 1
        if args.command == "dump":
            op = _dump_operator(args.operator, args.n)
            print(json.dumps(op.dump_rows()))
            return 0
    except BraidParseError as exc:
        print(f"braid parse error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input is too deep to evaluate (Python recursion limit reached)", file=sys.stderr)
        return 2
    except OverflowError:  # a size past ssize_t, refused by itertools or range
        print("error: the input is too large to evaluate", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError) as exc:  # RuntimeError: schur.AnnularDepthError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
