import json

import numpy as np
import pytest

from lerchlab import DomainError, OperatorKind, apply_hecke, unit_square_grid
from lerchlab.harness import (
    CHECK_GROUPS,
    DEFAULT_SUITE_CONFIG,
    ReportRecord,
    _adjoint_resid,
    _bump,
    _lp_bound_resid,
    _norm_identity_resid,
    inner_product,
    load_config,
    lp_norm,
    run_suite,
    smooth_twisted_fn,
    write_csv,
)
from lerchlab.quadrature import line_nodes, rectangle_grid
from lerchlab.twisted_space import TwistedFn


def const_one():
    return TwistedFn(
        lambda a, c: np.ones_like(np.asarray(a, dtype=complex)), 1, "1")


def char_a():
    return TwistedFn(
        lambda a, c: np.exp(2j * np.pi * a), 1, "e(a)")


def per_mode_exp_core(rng, modes):
    """The test-function core as a sum of one exponential per mode, drawing
    its coefficients from rng in the order smooth_twisted_fn does."""
    ja = np.arange(-modes, modes + 1)
    jc = np.arange(0, modes + 1)
    ca = rng.normal(size=ja.size) + 1j * rng.normal(size=ja.size)
    cc = rng.normal(size=jc.size) + 1j * rng.normal(size=jc.size)

    def core(a, c):
        pa = sum(ca[i] * np.exp(2j * np.pi * j * a) for i, j in enumerate(ja))
        pc = sum(cc[i] * np.exp(2j * np.pi * j * c) for i, j in enumerate(jc))
        return pa * pc * _bump(c)

    return core


class TestSmoothTwistedFn:
    @pytest.mark.parametrize("modes", [0, 1, 2, 4])
    def test_horner_matches_per_mode_exponentials(self, modes):
        rng_f = np.random.default_rng(30 + modes)
        rng_o = np.random.default_rng(30 + modes)
        f = smooth_twisted_fn(rng_f, modes)
        oracle = per_mode_exp_core(rng_o, modes)
        # same draws, in the same order: the streams stay in step
        assert rng_f.random() == rng_o.random()
        pts = np.random.default_rng(7)
        a = pts.uniform(0.0, 1.0, 40)
        c = pts.uniform(0.0, 1.0, 30)
        for x, y in ((a[:30], c), (a[:, None], c[None, :])):
            got = f.core(x, y)
            want = oracle(x, y)
            assert got.shape == np.broadcast_shapes(x.shape, y.shape)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestQuadratureGrid:
    def test_axis_form(self):
        grid = rectangle_grid(3, 5, 8)
        xa, wa = line_nodes(3, 8)
        xc, wc = line_nodes(5, 8)
        np.testing.assert_array_equal(grid.a, xa[:, None])
        np.testing.assert_array_equal(grid.c, xc[None, :])
        np.testing.assert_array_equal(grid.weights, np.outer(wa, wc))
        assert grid.size == 24 * 40

    def test_weights_sum_to_area(self):
        for p in (2, 4, 7):
            grid = unit_square_grid(p, 12)
            assert abs(np.sum(grid.weights) - 1.0) < 1e-14

    def test_nodes_strictly_interior(self):
        grid = unit_square_grid(4, 16)
        assert grid.a.min() > 0 and grid.a.max() < 1
        assert grid.c.min() > 0 and grid.c.max() < 1

    def test_refinement_self_consistency(self):
        rng = np.random.default_rng(2)
        f = smooth_twisted_fn(rng)
        g = smooth_twisted_fn(rng)
        v1 = inner_product(f, g, unit_square_grid(4, 16))
        v2 = inner_product(f, g, unit_square_grid(8, 16))
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


class TestInnerProduct:
    def test_unit_constant(self):
        grid = unit_square_grid(2, 8)
        assert abs(inner_product(const_one(), const_one(), grid) - 1.0) < 1e-14

    def test_unit_character(self):
        grid = unit_square_grid(2, 16)
        assert abs(inner_product(char_a(), char_a(), grid) - 1.0) < 1e-13

    def test_character_orthogonality(self):
        grid = unit_square_grid(2, 16)
        assert abs(inner_product(char_a(), const_one(), grid)) < 1e-12


class TestOperatorChecks:
    def test_adjoint_m1_trivial(self):
        residual = _adjoint_resid(1, 3, np.random.default_rng(0))
        assert residual <= 1e-7 and residual < 1e-12

    def test_adjoint_m2(self):
        residual = _adjoint_resid(2, 20, np.random.default_rng(0))
        assert residual <= 1e-8, residual

    def test_adjoint_m5(self):
        residual = _adjoint_resid(5, 10, np.random.default_rng(0))
        assert residual <= 1e-7, residual

    def test_adjoint_m_limit(self):
        cfg = dict(DEFAULT_SUITE_CONFIG, adjoint_m_max=9, adjoint_trials=1)
        with pytest.raises(DomainError):
            CHECK_GROUPS["adjoint"](cfg, np.random.default_rng(0))

    def test_norm_identity_m1(self):
        residual = _norm_identity_resid(1, 3, np.random.default_rng(0))
        assert residual <= 1e-8 and residual < 1e-13

    def test_norm_identity_m4(self):
        residual = _norm_identity_resid(4, 10, np.random.default_rng(1))
        assert residual <= 1e-8, residual

    def test_lp_bound_m3_p1(self):
        # zero residual = no violation
        assert _lp_bound_resid(3, 1.0, 5, np.random.default_rng(2)) <= 0.0

    def test_lp_ratio_at_p2_matches_unitarity(self):
        # ||T_m f||_2 / ||f||_2 = m^(-1/2), far below the bound m
        rng = np.random.default_rng(3)
        grid = unit_square_grid(8, 20)  # resolve the dilated c-period
        f = smooth_twisted_fn(rng)
        tf = apply_hecke(OperatorKind.T, 2, f)
        ratio = lp_norm(tf, grid, 2) / lp_norm(f, grid, 2)
        assert abs(ratio - 2 ** -0.5) < 1e-9

    def test_lp_bound_m1_identity(self):
        residual = _lp_bound_resid(1, 2.0, 3, np.random.default_rng(4))
        assert residual <= 0.0 and residual == 0.0


class TestConfig:
    def test_defaults_returned_without_path(self):
        cfg = load_config(None)
        assert cfg == DEFAULT_SUITE_CONFIG

    def test_settings_are_sizes_and_exponents(self):
        # tolerances and other acceptance criteria are literals at their
        # checks, so no config can loosen them
        assert set(DEFAULT_SUITE_CONFIG) == {
            "seed", "groups", "fe_samples", "fe_im_max", "hecke_s",
            "hecke_m_max", "hecke_points", "algebra_m_max", "adjoint_m_max",
            "adjoint_trials", "eigen_s", "eigen_points", "eigen_structure_s",
            "char_s", "milnor_m_max", "milnor_s", "zeta_op_M",
            "zeta_op_points"}

    def test_parse_file(self, tmp_path):
        p = tmp_path / "suite.cfg"
        p.write_text(
            "# comment\n"
            "seed = 7\n"
            "groups = special_fns, milnor_baseline\n"
            "hecke_s = 2.0, 0.5+10j\n"
            "fe_im_max = 1e1\n")
        cfg = load_config(p)
        assert cfg["seed"] == 7
        assert cfg["groups"] == ["special_fns", "milnor_baseline"]
        assert cfg["hecke_s"] == [2.0, 0.5 + 10j]
        assert cfg["fe_im_max"] == 10.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("not_a_key = 3\n")
        with pytest.raises(DomainError):
            load_config(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed 7\n")
        with pytest.raises(DomainError):
            load_config(p)


class TestRunSuite:
    def test_empty_groups(self, tmp_path):
        code, records = run_suite(groups=[],
                                  json_path=tmp_path / "r.json",
                                  csv_path=tmp_path / "r.csv")
        assert code == 0
        assert records == []
        assert json.loads((tmp_path / "r.json").read_text()) == []

    def test_unknown_group(self):
        with pytest.raises(DomainError):
            run_suite(groups=["nonexistent"])

    def test_special_fns_group_passes(self, tmp_path):
        code, records = run_suite(groups=["special_fns"],
                                  json_path=tmp_path / "r.json",
                                  csv_path=tmp_path / "r.csv")
        assert code == 0
        assert all(r.passed for r in records)
        rows = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert rows[0].startswith("identity,")
        assert len(rows) == len(records) + 1

    def test_exit_code_contract_with_broken_tolerance(self, tmp_path,
                                                      monkeypatch):
        # a group whose one check misses its tolerance
        monkeypatch.setitem(CHECK_GROUPS, "broken", lambda cfg, rng: [
            ReportRecord.from_residual("broken", {}, 1e-9, 0.0)])
        p = tmp_path / "broken.cfg"
        p.write_text("groups = milnor_baseline, broken\n")
        code, records = run_suite(config_path=p)
        assert code == 1
        assert any(not r.passed for r in records)

    @pytest.mark.parametrize(
        "group", ["special_fns", "commutators", "eigenspace_structure"])
    def test_deterministic_reports_byte_identical(self, tmp_path, group):
        kw = dict(groups=[group], seed=42, deterministic_timing=True)
        run_suite(json_path=tmp_path / "a.json", **kw)
        run_suite(json_path=tmp_path / "b.json", **kw)
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_group_records_do_not_depend_on_selection_or_order(self,
                                                               tmp_path):
        # each group draws from its own stream seeded with `seed`
        cfg = tmp_path / "small.cfg"
        cfg.write_text("milnor_m_max = 3\nmilnor_s = 2.5, 0.5\n")

        def records(groups):
            _, recs = run_suite(config_path=cfg, groups=groups,
                                deterministic_timing=True)
            return [r.to_dict() for r in recs]

        special, milnor = records(["special_fns"]), records(["milnor_baseline"])
        assert records(["special_fns", "milnor_baseline"]) == special + milnor
        assert records(["milnor_baseline", "special_fns"]) == milnor + special

    def test_operator_algebra_draw_order(self, monkeypatch):
        # the report bytes depend on the order in which the group draws its
        # sample points: 25 a-values, then 25 c-values, per case and law
        import lerchlab.harness as harness

        draws = []
        sample = harness.sample_off_lattice

        def spy(rng, n, denominator=1, guard=1e-3):
            draws.append((n, denominator, guard))
            return sample(rng, n, denominator, guard)

        monkeypatch.setattr(harness, "sample_off_lattice", spy)
        cfg = dict(DEFAULT_SUITE_CONFIG, algebra_m_max=3)
        CHECK_GROUPS["operator_algebra"](cfg, np.random.default_rng(42))
        assert {(n, guard) for n, _, guard in draws} == {(25, 1e-3)}
        per_case = [
            4, 8, 12, 8, 16, 24, 12, 24,               # T_m T_n, mn <= 6
            2, 8, 18,                                  # S_m T_m, 2 m^2
            2, 4, 6, 8, 16, 24, 18, 36, 54,            # S_m T_dm, 2 d m^2
            2, 4, 6,                                   # vee collapse, 2m
            4, 8, 12, 8, 16, 24, 12, 24, 36,           # S_m T_l, 4 m l
            1,                                         # R^4
        ]
        assert [d for _, d, _ in draws] == [d for d in per_case for _ in "ac"]

    def test_milnor_samples_evaluated_once_per_s(self, monkeypatch):
        # f1, f2 at xs and 1 - xs once per s, plus one Kubert call over
        # every m per member: 6 Hurwitz calls, not 2 m_max + 4
        import lerchlab.harness as harness

        calls = []
        hurwitz = harness.hurwitz_many

        def counted(*args):
            calls.append(args[1].shape)
            return hurwitz(*args)

        monkeypatch.setattr(harness, "hurwitz_many", counted)
        m_max = 7
        cfg = dict(DEFAULT_SUITE_CONFIG, milnor_m_max=m_max,
                   milnor_s=(2.5, 0.5))
        records = CHECK_GROUPS["milnor_baseline"](cfg, np.random.default_rng(3))
        assert [r.passed for r in records] == [True, True]
        assert len(calls) == 2 * 6
        assert calls.count((15,)) == 2 * 4
        assert calls.count((m_max * (m_max + 1) // 2, 15)) == 2 * 2

    @pytest.mark.parametrize("s", [2.5, 1.7, 0.5])
    def test_differential_eigen_engine_calls(self, monkeypatch, s):
        # one engine call per stencil, not per offset, for the whole pair
        # at once, and Delta_L F from D_L F and F in hand: at most 8 calls
        # per s, where one call per offset and member made 105
        import lerchlab.lerch_core as lerch_core

        calls = []
        engine = lerch_core._engine

        def counted(*args):
            calls.append(args[1])
            return engine(*args)

        monkeypatch.setattr(lerch_core, "_engine", counted)
        cfg = dict(DEFAULT_SUITE_CONFIG, eigen_points=1, eigen_s=(s,))
        records = CHECK_GROUPS["differential_eigen"](
            cfg, np.random.default_rng(5))
        assert [r.passed for r in records] == [True, True]
        assert 0 < len(calls) <= 8

    def test_records_roundtrip_csv(self, tmp_path):
        _, records = run_suite(groups=["special_fns"])
        write_csv(records, tmp_path / "out.csv")
        text = (tmp_path / "out.csv").read_text()
        assert "gamma:recurrence" in text


class TestGoldenSuite:
    def test_full_default_suite_matches_golden(self, default_suite):
        # record list (identities and count) is pinned by the suite
        # definition; a change here is an interface change
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden_suite_identities.json")
            .read_text())
        code, records, _ = default_suite
        assert code == 0
        assert [r.identity for r in records] == golden
        assert all(r.passed for r in records)

