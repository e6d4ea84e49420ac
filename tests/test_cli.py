import json
import math

import pytest

from lerchlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_zeta_basel(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "zeta",
                               "--s", "2,0", "--a", "0", "--c", "1",
                               "--tol", "1e-8")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"][0] - math.pi ** 2 / 6) < 1e-7
        assert abs(payload["value"][1]) < 1e-12
        assert payload["strategy"] in ("direct_series", "accelerated")

    def test_zeta_alternating(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "zeta",
                               "--s", "2,0", "--a", "0.5", "--c", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"][0] - math.pi ** 2 / 12) < 1e-9

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--s", "2,0", "--a", "0"])
        assert exc.value.code == 2

    def test_complex_s_literal(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "zeta-star",
                               "--s", "0.5+10j", "--a", "0.2", "--c", "0.8")
        assert code == 0
        payload = json.loads(out)
        assert payload["error_estimate"] < 1e-9

    def test_l_hat_with_parity(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "L-hat",
                               "--s", "0.4,0", "--a", "0.25", "--c", "0.7",
                               "--parity", "-")
        assert code == 0
        json.loads(out)

    def test_evaluation_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--function", "zeta",
                               "--s", "2,0", "--a", "0.3", "--c", "-1")
        assert code == 1
        assert "error" in err

    def test_head_past_the_cap_is_an_evaluation_error(self, capsys):
        # a = 0.1 at t = 1e8 plans a twisted Euler-Maclaurin head past 2^27
        code, out, err = run_cli(capsys, "eval", "--s", "0.5,1e8",
                                 "--a", "0.1", "--c", "0.5")
        assert code == 1
        assert out == ""
        assert "2^27" in json.loads(err)["error"]

    @pytest.mark.parametrize("flag, value", [("--a", "nan"), ("--c", "inf"),
                                             ("--s", "nan")])
    def test_non_finite_argument_is_usage_error(self, capsys, flag, value):
        argv = {"--s": "2,0", "--a": "0.3", "--c": "0.4", flag: value}
        code, out, err = run_cli(capsys, "eval", "--function", "zeta-star",
                                 *[x for pair in argv.items() for x in pair])
        assert code == 2
        assert out == ""
        assert f"{flag[2:]} must be finite" in err

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "eval", "--function", "zeta-star",
                                 "--s", "4,0", "--a", "0.3", "--c", "0.7",
                                 f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"usage error: tol must be finite and positive, not {float(tol)!r}"]

    def test_s_1_on_integer_c_is_not_a_pole(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "zeta",
                               "--s", "1,0", "--a", "0.5", "--c", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"][0] - math.log(2)) <= payload["error_estimate"]

    def test_hurwitz(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "hurwitz",
                               "--s", "2", "--a", "0", "--c", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"][0] - math.pi ** 2 / 2) < 1e-10


class TestVerify:
    def test_group_filter_writes_reports(self, tmp_path, capsys):
        jp = tmp_path / "r.json"
        cp = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "verify", "--group", "special_fns",
                               "--json-out", str(jp), "--csv-out", str(cp))
        assert code == 0
        records = json.loads(jp.read_text())
        assert records and all(r["passed"] for r in records)
        assert "PASS" in out

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("definitely_not_a_key = 1\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg),
                               "--json-out", str(tmp_path / "r.json"),
                               "--csv-out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "config error" in err

    def test_evaluation_failure_is_exit_1_without_traceback(self, tmp_path,
                                                             capsys):
        # critical-line samples up to |t| = 40 reach a point, a more than
        # 1/3 from an integer, where Levin acceleration fails to stabilise
        cfg = tmp_path / "fe.cfg"
        cfg.write_text("fe_samples = 10\nfe_im_max = 40\n")
        code, _, err = run_cli(capsys, "verify", "--group",
                               "functional_equations", "--seed", "2",
                               "--config", str(cfg),
                               "--json-out", str(tmp_path / "r.json"),
                               "--csv-out", str(tmp_path / "r.csv"))
        assert code == 1
        assert err.startswith("evaluation error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [
        # sum_m T_m F converges to zeta(s) F only for Re s > 1, so s is
        # fixed at 3 and a config cannot set it
        "groups = zeta_operator\nzeta_op_s = 0.5\nzeta_op_M = 20\n"
        "zeta_op_points = 2\n",
        "groups = characterization\nchar_s =\n",
        # empty s lists: the group would run no check and pass 0 of 0
        "groups = hecke_eigen\nhecke_s =\n",
        "groups = differential_eigen\neigen_s =\n",
        "groups = eigenspace_structure\neigen_structure_s =\n",
        "groups = milnor_baseline\nmilnor_s =\n",
        # sizes at which a group's checks test nothing and pass with 0
        "groups = functional_equations\nfe_samples = 0\n",
        "groups = hecke_eigen\nhecke_m_max = 1\n",
        "groups = hecke_eigen\nhecke_points = 0\n",
        "groups = operator_algebra\nalgebra_m_max = 1\n",
        "groups = adjoint\nadjoint_trials = 0\n",
        "groups = adjoint\nadjoint_m_max = 1\n",
        "groups = differential_eigen\neigen_points = 0\n",
        "groups = milnor_baseline\nmilnor_m_max = 1\n",
        "groups = zeta_operator\nzeta_op_points = 0\n",
        "groups = zeta_operator\nzeta_op_M = 0\n",
        # from M = 499 on, no c keeps every m*c clear of the integers
        "groups = zeta_operator\nzeta_op_M = 499\n",
    ], ids=["zeta_op_s_at_most_1", "empty_char_s", "empty_hecke_s",
            "empty_eigen_s", "empty_eigen_structure_s", "empty_milnor_s",
            "fe_samples_0",
            "hecke_m_max_1", "hecke_points_0", "algebra_m_max_1",
            "adjoint_trials_0", "adjoint_m_max_1", "eigen_points_0",
            "milnor_m_max_1", "zeta_op_points_0", "zeta_op_M_0",
            "zeta_op_M_499"])
    def test_config_outside_a_check_domain_is_exit_2(self, tmp_path, capsys,
                                                      config):
        cfg = tmp_path / "domain.cfg"
        cfg.write_text(config)
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg),
                               "--json-out", str(tmp_path / "r.json"),
                               "--csv-out", str(tmp_path / "r.csv"))
        assert code == 2
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("key, value", [("hecke_tol", "1"),
                                            ("commutator_h", "1e-3"),
                                            ("zeta_op_s", "4")])
    def test_fixed_criterion_is_not_a_setting(self, tmp_path, capsys, key,
                                              value):
        # tolerances, the Gram-gap threshold, the stencil step and the
        # zeta-operator s are literals at their checks; hecke_tol = 1
        # would pass every Hecke residual below 1
        cfg = tmp_path / "loose.cfg"
        cfg.write_text(f"groups = special_fns\n{key} = {value}\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg),
                               "--json-out", str(tmp_path / "r.json"),
                               "--csv-out", str(tmp_path / "r.csv"))
        assert code == 2
        assert err.startswith("config error: ")
        assert f"unknown key {key!r}" in err


class TestReport:
    def test_rerender(self, tmp_path, capsys):
        jp = tmp_path / "r.json"
        cp1 = tmp_path / "r.csv"
        run_cli(capsys, "verify", "--group", "special_fns", "--quiet",
                "--json-out", str(jp), "--csv-out", str(cp1))
        cp2 = tmp_path / "rr.csv"
        code, _, _ = run_cli(capsys, "report", "--json-in", str(jp),
                             "--csv-out", str(cp2))
        assert code == 0
        assert cp2.read_text().splitlines()[0].startswith("identity,")

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "report", "--json-in",
                               str(tmp_path / "nope.json"),
                               "--csv-out", str(tmp_path / "x.csv"))
        assert code == 2


class TestCharacterizeCommand:
    def test_zeta_star_a_path(self, capsys):
        code, out, _ = run_cli(capsys, "characterize", "--function",
                               "zeta-star", "--s", "2,0", "--path", "a",
                               "--n", "16")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["A"][0] - 1.0) < 1e-6
        assert abs(payload["B"][0]) < 1e-6
        assert payload["residual"] < 1e-6

    @pytest.mark.parametrize("argv", [
        # no coefficient sampled: nothing would be checked
        ("--n", "-1"),
        # the dilation checks read coefficients up to |n| = 6
        ("--n", "5"),
        # c_path needs Re s < 1
        ("--path", "c"),
    ], ids=["n_negative", "n_5", "c_path_at_re_s_2"])
    def test_outside_the_domain_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "characterize", "--function",
                                 "zeta-star", "--s", "2,0", *argv)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)


class TestEvalLFunction:
    def test_l_minus(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "L",
                               "--s", "2.5,0", "--a", "0.5", "--c", "0.5",
                               "--parity", "-")
        assert code == 0
        payload = json.loads(out)
        # every term of L^- is real at the center point
        assert abs(payload["value"][1]) < 1e-10


class TestNegativeS:
    def test_equals_form_for_negative_real_part(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "zeta-star",
                               "--s=-1.5,0", "--a", "0.3", "--c", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "reflected"
