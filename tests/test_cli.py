"""Tests for the command-line surface."""

import json

import pytest

from spinlink import schur
from spinlink.cli import main
from spinlink.qalg import GradedScalar
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
        value = GradedScalar.from_json_terms(terms)
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

    def test_conjectures_never_gate(self, capsys):
        code, out, _ = run(capsys, "verify", "conjectures", "--n", "2")
        assert code == 0

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nonsense")
        assert exc.value.code == 2


class TestDump:
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

    @pytest.mark.parametrize("name", ("x-1", ""), ids=("x-1", "empty"))
    def test_negative_x_index(self, capsys, name):
        code, out, err = run(capsys, "dump", name, "--n", "1")
        assert code == 2
        assert out == "" and f"unknown operator {name!r}" in err

    def test_x_index_above_rank_is_zero(self, capsys):
        code, out, _ = run(capsys, "dump", "x9", "--n", "1")
        assert code == 0
        assert json.loads(out) == []
