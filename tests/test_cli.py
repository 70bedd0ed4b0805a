"""Tests for the command-line surface."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import from_json_terms
from spinlink import schur
from spinlink.cli import _SUITES, main
from spinlink.qalg import GradedScalar, RatFunc
from spinlink.spinpoly import eval_spin, parse_braid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPolySpin:
    def test_unknot_circle(self, capsys):
        code, out, _ = run(capsys, "poly", "spin", "--n", "2", "--strands", "1", "--braid", "")
        assert code == 0
        assert out.strip() == "-q^4 - q^2 - q^-2 - q^-4"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "poly", "spin", "--n", "1", "--braid", "s1 s1 s1", "--format", "json"
        )
        assert code == 0
        terms = json.loads(out)["terms"]
        value = from_json_terms(terms)
        assert value == eval_spin(parse_braid("s1 s1 s1"), 1)

    def test_engines_agree(self, capsys):
        argv = ["poly", "spin", "--n", "2", "--braid", "s1 s2^-1 s1", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv, "--engine", "symbolic")
        assert code == code2 == 0
        assert json.loads(out) == json.loads(out2)

    def test_mirror_flag(self, capsys):
        _, out_plain, _ = run(capsys, "poly", "spin", "--n", "1", "--braid", "s1 s1 s1", "--format", "json")
        _, out_mirror, _ = run(
            capsys, "poly", "spin", "--n", "1", "--braid", "s1^-1 s1^-1 s1^-1", "--format", "json", "--mirror"
        )
        assert json.loads(out_plain) == json.loads(out_mirror)

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "poly", "spin", "--n", "2", "--braid", "s0")
        assert code == 2
        assert "parse error" in err

    def test_explicit_plus_sign(self, capsys):
        code, out, err = run(capsys, "poly", "spin", "--n", "1", "--braid", "1 +2", "--format", "json")
        assert code == 0, err
        _, want, _ = run(capsys, "poly", "spin", "--n", "1", "--braid", "1 2", "--format", "json")
        assert out == want

    def test_symbolic_rank_guard(self, capsys):
        code, _, err = run(capsys, "poly", "spin", "--n", "4", "--braid", "s1", "--engine", "symbolic")
        assert code == 2
        assert err.startswith("error: ") and "n <= 3" in err


class TestPolySln:
    def test_colored_unknot(self, capsys):
        code, out, _ = run(
            capsys, "poly", "sln", "--N", "4", "--colors", "2", "--braid", "", "--strands", "1"
        )
        assert code == 0
        assert out.strip() == "q^4 + q^2 + 2 + q^-2 + q^-4"

    def test_negative_color_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "poly", "sln", "--N", "3", "--colors=-1,-1", "--braid", "1 1")
        assert code == 2
        assert out == "" and err.startswith("error: colors must be >= 0") and "Traceback" not in err

    def test_offset_in_json(self, capsys):
        code, out, _ = run(
            capsys, "poly", "sln", "--N", "3", "--colors", "1,1", "--braid", "s1", "--format", "json"
        )
        assert code == 0
        terms = json.loads(out)["terms"]
        # exponents carry thirds from the q^{1/N} prefactor
        assert any(d % 3 == 0 and d > 1 for _, d, _, _ in terms)

    @pytest.mark.parametrize(
        "exc",
        (
            RecursionError("maximum recursion depth exceeded"),
            schur.AnnularDepthError("annular evaluation exceeded its depth bound"),
        ),
    )
    def test_too_deep_is_an_error_not_a_traceback(self, capsys, monkeypatch, exc):
        def deep(*args):
            raise exc

        monkeypatch.setattr(schur, "eval_slN", deep)
        code, out, err = run(capsys, "poly", "sln", "--N", "2", "--colors", "1,1", "--braid", "s1")
        assert code == 2
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


class TestVerify:
    def test_qalg_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "qalg", "--bound", "6")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "qalg", "--bound", "4", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert all(e["status"] == "pass" for e in report)
        assert all({"identity_id", "parameters", "status"} <= set(e) for e in report)

    def test_schur_runs_both_routes(self, capsys):
        code, out, _ = run(capsys, "verify", "schur", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert [e["identity_id"] for e in report] == [
            "bilinear-base-case",
            "normalization-dictionary-trefoil",
            "weight-space-equals-annular",
            "q1-dimension",
        ]
        assert all(e["status"] == "pass" and e["parameters"] == {} for e in report)

    def test_schur_fails_when_the_routes_disagree(self, capsys, monkeypatch):
        monkeypatch.setattr(schur, "eval_slN_annular", lambda *args: GradedScalar.zero())
        code, out, _ = run(capsys, "verify", "schur", "--format", "json")
        assert code == 1
        status = {e["identity_id"]: e["status"] for e in json.loads(out)}
        assert status["weight-space-equals-annular"] == "fail" and status["q1-dimension"] == "pass"

    def test_schur_fails_when_the_weight_space_route_is_wrong(self, capsys, monkeypatch):
        # production takes blocks on three strands, so the weight-space route is
        # evaluated there on its own
        pairing = schur._weight_space_pairing

        def negated(braid, a, N):
            value = pairing(braid, a, N)
            return -value if braid.strands == 3 else value

        monkeypatch.setattr(schur, "_weight_space_pairing", negated)
        code, out, _ = run(capsys, "verify", "schur", "--format", "json")
        assert code == 1
        status = {e["identity_id"]: e["status"] for e in json.loads(out)}
        assert status["weight-space-equals-annular"] == "fail" and status["q1-dimension"] == "pass"

    def test_conjectures_never_gate(self, capsys):
        code, out, _ = run(capsys, "verify", "conjectures", "--n", "2")
        assert code == 0

    def test_a_defective_h_is_a_fail_entry_not_a_traceback(self, capsys, monkeypatch):
        from spinlink import clifford

        wenzl_C = clifford.wenzl_C

        def defective(n):
            c = wenzl_C(n)
            if n == 2:
                row = next(iter(c.cols[(0, 1)]))
                c.set_entry((0, 1), row, c.entry((0, 1), row) + RatFunc.one())
            return c

        monkeypatch.setattr(clifford, "wenzl_C", defective)
        refused = {"identity_id": "x-family", "parameters": {"n": 2}, "status": "fail",
                   "witness": "X^(3) is nonzero at n=2"}
        code, out, err = run(capsys, "verify", "xcalc", "--n", "2", "--format", "json")
        assert code == 1 and "Traceback" not in err
        report = json.loads(out)
        assert [e for e in report if e["status"] == "fail"] == [refused, refused]  # change of basis, relations
        code, out, err = run(capsys, "verify", "conjectures", "--n", "2", "--format", "json")
        assert code == 0 and "Traceback" not in err
        assert json.loads(out) == [refused]

    def test_xcalc_one_family_per_rank(self, capsys, monkeypatch):
        from spinlink import xcalc

        built = []
        build_X = xcalc.build_X
        monkeypatch.setattr(xcalc, "build_X", lambda n, *args, **kw: built.append(n) or build_X(n, *args, **kw))
        code, _, _ = run(capsys, "verify", "xcalc", "--n", "2")
        assert code == 0 and built == [1, 2]

    def test_xcalc_without_relation_tables_fails_before_any_check(self, capsys, monkeypatch):
        from spinlink import xcalc

        ran = []
        for name in ("build_X", "change_of_basis_check", "relation_suite"):
            monkeypatch.setattr(xcalc, name, lambda *args, name=name, **kw: ran.append(name))
        code, out, err = run(capsys, "verify", "xcalc", "--n", "4")
        assert code == 2 and out == "" and ran == []
        assert "relation tables are only known for rank <= 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("suite", sorted(_SUITES))
    def test_every_entry_has_the_report_keys(self, suite):
        for entry in _SUITES[suite](argparse.Namespace(bound=1, n=1)):
            keys = {"identity_id", "parameters", "status"}
            if entry["status"] == "fail":
                keys.add("witness")
            assert set(entry) == keys, entry

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nonsense")
        assert exc.value.code == 2


# sha256 of the stdout of `spinlink <command>`: every evaluation route, each
# normalization, both formats and a q^{1/N} offset, so a change of the value
# representation must never reach what a user reads
STDOUT_DIGESTS = {
    "poly spin --n 2 --braid '1 -2 -2' --engine matrix --normalize raw --format text":
        "88f7b741afb89e740a2124f077fdb337fa65dd6c78e4ee73b38dbd44abca4a57",
    "poly spin --n 2 --braid '1 -2 -2' --engine matrix --normalize raw --format json":
        "0c84e37bf8305b9cfb9b082c31029596ee5d3b5443650820e5114c04cd7a43d0",
    "poly spin --n 2 --braid '1 -2 -2' --engine matrix --normalize unframed --format text":
        "5893b2aa12905686f5d32d405d0d9afe4f0fb3d4a55ea7bc077a2232d8822af2",
    "poly spin --n 2 --braid '1 -2 -2' --engine matrix --normalize unframed --format json":
        "85c15dfd85fd1ce576eb208c23006f5a4d1347271ca780e1e07cc87d44852dbf",
    "poly spin --n 2 --braid '1 -2 -2' --engine matrix --normalize intro --format text":
        "f816d92f381a0eab6f80ca5247dcf676103104d340646baa9146c06004af4a6b",
    "poly spin --n 2 --braid '1 -2 -2' --engine matrix --normalize intro --format json":
        "c70359e2031b2b013ecf79c202cfe4a448c1e7c2b3d880a1d41cb61d5ce2588d",
    "poly spin --n 1 --braid '1 1 1' --engine matrix --normalize unframed --mirror --format text":
        "b2a8df789454a30cf57578182b2eff4225d9e19cdec51ab7c815f9902eccc5e0",
    "poly spin --n 1 --braid '1 1 1' --engine matrix --normalize unframed --mirror --format json":
        "bc31dfb7c18869e72d9a8ae37e8fd9aa3e2830ab40c5b967d644669a9904c517",
    "poly spin --n 2 --braid '1 -2 -2' --engine symbolic --normalize raw --format text":
        "88f7b741afb89e740a2124f077fdb337fa65dd6c78e4ee73b38dbd44abca4a57",
    "poly spin --n 2 --braid '1 -2 -2' --engine symbolic --normalize raw --format json":
        "0c84e37bf8305b9cfb9b082c31029596ee5d3b5443650820e5114c04cd7a43d0",
    "poly spin --n 2 --braid '1 -2 -2' --engine symbolic --normalize unframed --format text":
        "5893b2aa12905686f5d32d405d0d9afe4f0fb3d4a55ea7bc077a2232d8822af2",
    "poly spin --n 2 --braid '1 -2 -2' --engine symbolic --normalize unframed --format json":
        "85c15dfd85fd1ce576eb208c23006f5a4d1347271ca780e1e07cc87d44852dbf",
    "poly spin --n 2 --braid '1 -2 -2' --engine symbolic --normalize intro --format text":
        "f816d92f381a0eab6f80ca5247dcf676103104d340646baa9146c06004af4a6b",
    "poly spin --n 2 --braid '1 -2 -2' --engine symbolic --normalize intro --format json":
        "c70359e2031b2b013ecf79c202cfe4a448c1e7c2b3d880a1d41cb61d5ce2588d",
    "poly spin --n 1 --braid '1 1 1' --engine symbolic --normalize unframed --mirror --format text":
        "b2a8df789454a30cf57578182b2eff4225d9e19cdec51ab7c815f9902eccc5e0",
    "poly spin --n 1 --braid '1 1 1' --engine symbolic --normalize unframed --mirror --format json":
        "bc31dfb7c18869e72d9a8ae37e8fd9aa3e2830ab40c5b967d644669a9904c517",
    "poly sln --N 3 --colors 1,1 --braid s1 --format text":
        "80e65aec54d31a2d73ba1438a7c293ccd7541361ec775d6e6345561ec2dede27",
    "poly sln --N 4 --colors 2,2,2 --braid '1 -2 1' --format text":
        "00e91d20493524d0d73344908558e8a12b2266d03dbdb6c1e863040ff80823a9",
    "poly sln --N 2 --colors 1,1 --braid 's1 s1 s1' --format text":
        "e3d2ca4d9f9b7ca9615a2d5e65972c85bd6fe2c6e544f7dc965c5e2ae2c85243",
    "poly sln --N 3 --colors 1,1 --braid s1 --format json":
        "bcb768c2056b8f54fc667d666ae817cf6ba2ce7263cf9c0a05f838449f2eb75d",
    "poly sln --N 4 --colors 2,2,2 --braid '1 -2 1' --format json":
        "f085aff5264eb5b21294299f89e7c902cca83afccaa053e559e0e8787595b15d",
    "poly sln --N 2 --colors 1,1 --braid 's1 s1 s1' --format json":
        "76917bce468b4d55f9c7820976efa6d66669c9319f6b78c2bcc661cb398ed407",
    "verify schur":
        "0be5f686b2b84df6a9fad7999bd86d89464508d9dafcb4df9a327e60954736e4",
    "verify xcalc --n 2 --format json":
        "52e0b8b2c2cea9f9145578fd767f6ef8f22d0a3368b8841f4330a8b0564edd9e",
}


class TestGoldenStdout:
    @pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
    def test_stdout_is_byte_identical(self, capsys, command):
        code, out, _ = run(capsys, *shlex.split(command))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command]


# sha256 of the stdout of `spinlink dump <name> --n <k>`: golden files read these
# rows, so a change of the operator representation must never reach them
DUMP_DIGESTS = {
        ("h", 1): "30e0f6a853b33860219d08ea033ce063beee579bb1e294f36ec6b436727c6a3c",
        ("wenzl-c", 1): "30e0f6a853b33860219d08ea033ce063beee579bb1e294f36ec6b436727c6a3c",
        ("x0", 1): "a5dda115c09c5976b17f2375dcbd9a65fd7f0e289830750f98d53f921b12bce0",
        ("x1", 1): "0298422a6821cf6b9bdc3b753c8ce450d188100d5fb91769fd9c37ebd0ed31fe",
        ("braiding", 1): "34a656e0166a5fccef0d9e2adf576a9f5e9035b18c69763725e3c7ca1a1cd4a7",
        ("inverse-braiding", 1): "0bd3655ed6e778bcfcacab68c0d884618c8e9ae6c52e4490a6c95b7801a27df3",
        ("cup", 1): "ecd8084a4e427cb779b77145b54ebaced781f0cdc07282ab274e74ef078c4a96",
        ("cap", 1): "90606e45d6aa69aa03248173c7a76b939bcb425c7713ee0e3fa1d11ecf46edd6",
        ("y1", 1): "43434218c028368a7a124bf07be850efab43d9c9d983515eb108774e5969000e",
        ("e1", 1): "93c45790bd1f3ed2a165e8f74f03360ad535623364aa9db70393e1bdbd448bfb",
        ("f1", 1): "ad6af9a69ea74f42ba868634a0d9633e22ea37400203f4fd04140d7a1b61f417",
        ("k1", 1): "54bc333f81c78bfb0ce410af138ec7a6c9b8bcc19c82c50e2e1f3be4f1165548",
        ("t1", 1): "85d07a477a00d5d6bdd924a051ac071968563f31f413e194b764846526bdcbd0",
        ("h", 2): "d2f7473fe5a09c85575b3432e614161f090df0bb3fad0879a39ef0abf2127f61",
        ("wenzl-c", 2): "d2f7473fe5a09c85575b3432e614161f090df0bb3fad0879a39ef0abf2127f61",
        ("x0", 2): "49ed972428dae690784d351b1a425149326ce4f2b4e1be6b5da3ad95967972fb",
        ("x1", 2): "f86717bcd68326c34a84815ae6a93c77a2e0ee2e6fa928552c0904103f3e3b45",
        ("x2", 2): "8909e25e5ad172d51f24ae9766b436a8304d00f58b11d63969b731b5d099fb37",
        ("braiding", 2): "0b2a5bd748a8a1e1d2ff53cc81826c78574186e670dc59188810a1263dac6039",
        ("inverse-braiding", 2): "404b9951172daaa55257bd64c617964e693c91bb21a115ab4542077b60adb5de",
        ("cup", 2): "084f8bca8034c12095008f20901b168eac7a3d9bfb4918678a485951eb917202",
        ("cap", 2): "522407eeefb5976816a3e30a62038c12df868d6f6069c047f7360c84d77f0054",
        ("y1", 2): "819947fe5d7c92c7452b7f75c19d3273a0dd8d31f70407b9f4df69c58bf2ce8c",
        ("e1", 2): "44a7ee84b6a5c4474534f7d04d360c9f0db4cd0ec22c27efca20307fdb27cf84",
        ("f1", 2): "c8837d078aaa609f24369b718bcfbe4941d41ac784999f3d9d684588de916385",
        ("k1", 2): "3039d2ba23dae17e8e4dee98729f8e51f3e727685820027f5a71d7fb31203dff",
        ("e2", 2): "ff15c0514b1b61656ab3fbb6ffeb19bc99268a923addd09be6984545a1423ac1",
        ("f2", 2): "eaaa6328c3d413fdf8ef57ad41d24939f80aebc67bfe5ca9b1e961af1879db2d",
        ("k2", 2): "1d67ac2d4709c57646eb72f21264e44874eec3bb4e05840c5c3536796046fb24",
        ("t1", 2): "df28be04dea3d6a22d949d63a165197cd19195106021f2fdc18091d236463be7",
        ("t2", 2): "6d0e138657bbc11359bd9ce65e809e7387cf70fbe926c2b29051491a9e4b0450",
}


class TestDump:
    @pytest.mark.parametrize("name,n", sorted(DUMP_DIGESTS, key=lambda key: (key[1], key[0])))
    def test_rows_are_byte_identical(self, capsys, name, n):
        code, out, _ = run(capsys, "dump", name, "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DUMP_DIGESTS[(name, n)]

    def test_cup_rows(self, capsys):
        code, out, _ = run(capsys, "dump", "cup", "--n", "1")
        assert code == 0
        assert json.loads(out) == [[[], [0, 1], "-q"], [[], [1, 0], "1"]]

    def test_unknown_operator(self, capsys):
        code, _, err = run(capsys, "dump", "bogus", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("name", ("t0", "t3"))
    def test_lusztig_index_out_of_range(self, capsys, name):
        code, out, err = run(capsys, "dump", name, "--n", "2")
        assert code == 2
        assert out == "" and err == f"error: generator index {name[1:]} out of range for rank 2\n"


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        (
            ("dump", "h", "--n", "0"),
            ("poly", "sln", "--N", "-1", "--colors", "1,1", "--braid", "s1"),
            ("verify", "xcalc", "--n", "0"),
            ("poly", "spin", "--n", "0", "--braid", "s1"),
            ("poly", "spin", "--n", "two", "--braid", "s1"),
            ("verify", "qalg", "--bound", "0"),
            ("verify", "qalg", "--bound", "-3"),
        ),
    )
    def test_rank_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be an integer >= 1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        (
            ("poly", "spin", "--n", "1", "--strands", "-2", "--braid", ""),
            ("poly", "spin", "--n", "1", "--strands", "0", "--braid", ""),
            ("poly", "sln", "--N", "2", "--colors", "1", "--strands", "0", "--braid", ""),
        ),
    )
    def test_strands_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --strands: must be an integer >= 1" in err and "Traceback" not in err

    def test_colors_that_are_not_integers(self, capsys):
        code, out, err = run(capsys, "poly", "sln", "--N", "2", "--colors", "1,x", "--braid", "1")
        assert code == 2
        assert out == "" and err == "error: --colors takes comma-separated integers, got '1,x'\n"

    @pytest.mark.parametrize("colors", ("1,,1", "1,1,", ",1,1"))
    def test_colors_with_an_empty_entry(self, capsys, colors):
        # an empty entry is not dropped: "1,,1" is not the two-colored "1,1"
        code, out, err = run(capsys, "poly", "sln", "--N", "2", "--colors", colors, "--braid", "1")
        assert code == 2
        assert out == "" and err == f"error: --colors takes comma-separated integers, got {colors!r}\n"

    @pytest.mark.parametrize("name", ("x-1", ""), ids=("x-1", "empty"))
    def test_negative_x_index(self, capsys, name):
        code, out, err = run(capsys, "dump", name, "--n", "1")
        assert code == 2
        assert out == "" and f"unknown operator {name!r}" in err

    @pytest.mark.parametrize(
        "argv",
        (
            ("poly", "spin", "--n", "2", "--braid", "99999999999999999999"),
            ("poly", "spin", "--n", "2", "--strands", "99999999999999999999"),
            ("poly", "spin", "--n", "99999999999999999999", "--braid", "1"),
            ("dump", "cup", "--n", "99999999999999999999"),
        ),
    )
    def test_size_past_ssize_t_is_an_error_not_a_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err == "error: the input is too large to evaluate\n"

    def test_x_index_above_rank_is_zero(self, capsys):
        code, out, _ = run(capsys, "dump", "x9", "--n", "1")
        assert code == 0
        assert json.loads(out) == []


ROOT = Path(__file__).resolve().parents[1]

# prints the modules that loading spinlink and running one command added
FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
from spinlink import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""


class TestImportFootprint:
    """A command imports only the modules its route runs: every import compiles
    its source again when bytecode is not written, and that is most of a short
    call's time.  Each case runs in a fresh interpreter."""

    @pytest.mark.parametrize(
        "argv, loaded, absent",
        (
            (("poly", "sln", "--N", "3", "--colors", "1,1,1", "--braid", "1 -2 1"),
             {"spinlink.schur", "spinlink.slnblocks"},
             {"spinlink.xcalc", "spinlink.clifford", "spinlink.iqsym", "spinlink.hwblocks", "dataclasses"}),
            (("poly", "sln", "--N", "3", "--colors", "1,1,1,1", "--braid", "1 -2 3"), {"spinlink.schur"},
             {"spinlink.xcalc", "spinlink.clifford", "spinlink.iqsym", "spinlink.hwblocks", "spinlink.slnblocks",
              "dataclasses"}),
            (("poly", "spin", "--n", "2", "--braid", "1 2"), {"spinlink.hwblocks"},
             {"spinlink.xcalc", "spinlink.clifford", "spinlink.schur", "spinlink.iqsym", "dataclasses"}),
            (("poly", "spin", "--n", "2", "--braid", "1 2 3"), {"spinlink.xcalc", "spinlink.clifford"},
             {"spinlink.hwblocks", "spinlink.schur", "spinlink.iqsym", "dataclasses"}),
            (("poly", "spin", "--n", "2", "--braid", "1 2", "--engine", "symbolic"), {"spinlink.iqsym"},
             {"spinlink.hwblocks"}),
            (("verify", "xcalc", "--n", "1"), {"spinlink.xcalc"}, {"spinlink.schur"}),
        ),
        ids=("poly-sln", "poly-sln-four-strands", "poly-spin", "poly-spin-four-strands", "poly-spin-symbolic",
             "verify-xcalc"),
    )
    def test_a_command_loads_only_its_route(self, argv, loaded, absent):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.split())
        assert loaded <= modules and not absent & modules, sorted(absent & modules)
