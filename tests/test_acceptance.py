"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the worst residual against its stated tolerance.

The criteria read the records of the default suite, run once per session
by the ``default_suite`` fixture (tests/conftest.py) through the same
harness groups the `lerchlab verify` CLI runs.  Each test pins the sizes
its criterion states by asserting them against DEFAULT_SUITE_CONFIG; each
criterion's tolerance is a literal at its check, and the tests assert the
records carry it.
"""

from lerchlab.harness import DEFAULT_SUITE_CONFIG


def group_records(default_suite, name: str, **sizes):
    """The default suite's records of group ``name``, after asserting that
    the default config runs it at the criterion's ``sizes``."""
    for key, value in sizes.items():
        assert DEFAULT_SUITE_CONFIG[key] == value, (key, value)
    return default_suite[2][name]


def assert_criterion(records, prefix: str, tol: float) -> None:
    """Every record whose identity starts with prefix checks at tol."""
    pinned = [r for r in records if r.identity.startswith(prefix)]
    assert pinned, prefix
    assert all(r.tolerance == tol for r in pinned), (prefix, tol)


def report(number: int, title: str, records) -> None:
    worst = max((r.residual for r in records), default=0.0)
    ok = all(r.passed for r in records)
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {title}: "
          f"{len(records)} checks, worst residual {worst:.3e}")
    for r in records:
        mark = "ok " if r.passed else "BAD"
        print(f"    {mark} {r.identity} residual={r.residual:.3e} "
              f"tol={r.tolerance:.3e}")
    assert ok, f"criterion {number} failed"


class TestAcceptance:
    def test_01_functional_equations(self, default_suite):
        # 100 random s on the critical line (|Im| <= 20) and in the strip;
        # completed-function residuals below 1e-7
        records = group_records(default_suite, "functional_equations",
                                fe_samples=100, fe_im_max=20.0)
        assert_criterion(records, "functional_equation:", 1e-7)
        report(1, "completed functional equations", records)

    def test_02_hecke_eigenfunctions(self, default_suite):
        # s in {3, 2, 1/2, 1/2+10i}, m = 2..16, 50 off-lattice points,
        # both active basis members, residual / (1+|F|) < 1e-8; the
        # default suite adds s = -1.5 last, so the first four records come
        # from the same draws as a run at these four s alone
        s_values = [3.0, 2.0, 0.5, 0.5 + 10j]
        records = group_records(default_suite, "hecke_eigen",
                                hecke_s=s_values + [-1.5], hecke_m_max=16,
                                hecke_points=50)[:len(s_values)]
        assert [r.params["s"] for r in records] == s_values
        assert_criterion(records, "hecke_eigen:", 1e-8)
        report(2, "Hecke eigenfunction identity", records)

    def test_03_operator_algebra(self, default_suite):
        # composition laws, inverse/scaled-inverse, family collapse and
        # cross-family commutativity at 1e-11 for m, n <= 6
        records = group_records(default_suite, "operator_algebra",
                                algebra_m_max=6)
        assert_criterion(records, "algebra:", 1e-11)
        report(3, "Hecke operator algebra", records)

    def test_04_adjoint_norm_lp(self, default_suite):
        # adjointness <T_m f, g> = <f, S_m g> at 1e-7, the norm identity
        # at 1e-8, 20 random pairs, m <= 8; L^p bound never violated
        records = group_records(default_suite, "adjoint", adjoint_m_max=8,
                                adjoint_trials=20)
        assert_criterion(records, "adjoint:T_m*=S_m", 1e-7)
        assert_criterion(records, "norm:", 1e-8)
        report(4, "adjoint / norm / L^p bounds", records)

    def test_05_commutation_relations(self, default_suite):
        # finite-difference residuals at h = 1e-4, fourth order, < 1e-5,
        # plus the observed O(h^4) convergence under halving
        records = group_records(default_suite, "commutators")
        assert_criterion(records, "commutator:", 1e-5)
        assert all(r.params["h"] == 1e-4 for r in records
                   if r.identity.startswith("commutator:"))
        report(5, "differential commutation relations", records)

    def test_06_differential_eigenvalues(self, default_suite):
        # raising/lowering and D_L / Delta_L eigenvalue identities at
        # s in {2.5, 1.7, 0.5}, 20 points, residuals < 1e-5
        records = group_records(default_suite, "differential_eigen",
                                eigen_s=[2.5, 1.7, 0.5], eigen_points=20)
        assert_criterion(records, "raising_lowering", 1e-5)
        assert_criterion(records, "differential_eigen:", 1e-5)
        report(6, "differential eigenvalue identities", records)

    def test_07_eigenspace_structure(self, default_suite):
        # Gram rank 2 with singular-value gap > 1e6, J-eigenvalues at
        # 1e-10, R-action identity at 1e-8
        records = group_records(default_suite, "eigenspace_structure",
                                eigen_structure_s=[0.3 + 0.4j, 0.64, 2.0])
        assert all(r.params["gap_min"] == 1e6 for r in records
                   if r.identity == "eigenspace:gram rank 2")
        assert_criterion(records, "eigenspace:J F", 1e-10)
        assert_criterion(records, "eigenspace:R L_s", 1e-8)
        assert_criterion(records, "eigenspace:L = w", 1e-8)
        report(7, "eigenspace structure", records)

    def test_08_characterization_round_trip(self, default_suite):
        # characterize(zeta*) recovers (A, B) = (1, 0) within 1e-6 with
        # reconstruction residual < 1e-6 at s in {2, 0.7}; the untwisted
        # counterexample is rejected
        records = group_records(default_suite, "characterization",
                                char_s=[2.0, 0.7])
        assert_criterion(records, "characterize:zeta*", 1e-6)
        assert_criterion(records, "characterize:reconstruction", 1e-6)
        report(8, "eigenspace characterization round-trip", records)

    def test_09_milnor_baseline(self, default_suite):
        # Kubert eigenfunction residual on the Hurwitz basis < 1e-9, m <= 12
        records = group_records(default_suite, "milnor_baseline",
                                milnor_m_max=12)
        assert_criterion(records, "milnor:", 1e-9)
        report(9, "one-variable Kubert/Hurwitz baseline", records)

    def test_10_zeta_operator_partial_sums(self, default_suite):
        # sum_{m<=200} T_m zeta at s = 3 within the eigenvalue tail bound
        # at 10 test points
        records = group_records(default_suite, "zeta_operator",
                                zeta_op_M=200, zeta_op_points=10)
        assert_criterion(records, "zeta_operator:", 0.0)
        assert records[0].params["s"] == 3.0
        report(10, "zeta-operator partial sums", records)
