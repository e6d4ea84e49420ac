import numpy as np
import pytest

from lerchlab import (
    DomainError,
    IdentityViolationError,
    Parity,
    apply_R,
    build_eigenspace,
    characterize,
    fourier_slice,
    j_split,
    lerch_star_twisted,
    l_pm_twisted,
    root_number,
    tate_gamma,
)
from lerchlab.eigenspace import dependency_residual
from lerchlab.harness import _PlainPeriodicFn


class TestBuildEigenspace:
    def test_active_pair_by_regime(self):
        assert build_eigenspace(2.0).active == "L"
        assert build_eigenspace(0.5).active == "L"
        assert build_eigenspace(-1.5).active == "R"

    def test_functional_dependency_at_s2(self):
        basis = build_eigenspace(2.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.9, (12, 2))
        assert dependency_residual(basis, pts) < 1e-8

    def test_overlap_cross_check(self):
        # in the strip both pairs span; L and gamma-scaled R agree
        basis = build_eigenspace(0.5)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 0.9, (12, 2))
        assert dependency_residual(basis, pts) < 1e-8

    def test_degenerate_flags(self):
        # at integer s exactly one of the four members vanishes
        assert build_eigenspace(2.0).degenerate == ("R-",)
        assert build_eigenspace(1.0).degenerate == ("R+",)
        assert build_eigenspace(0.0).degenerate == ("L+",)
        assert build_eigenspace(-1.0).degenerate == ("L-",)
        assert build_eigenspace(0.5).degenerate == ()

    def test_degenerate_member_is_numerically_zero(self):
        basis = build_eigenspace(2.0)
        assert list(basis.pairs) == ["L", "R"]
        rng = np.random.default_rng(2)
        a = rng.uniform(0.1, 0.9, 6)
        c = rng.uniform(0.1, 0.9, 6)
        r_minus = basis.pairs["R"].extend(a, c)[1]
        assert np.max(np.abs(r_minus)) < 1e-8

    def test_gram_rank_two(self):
        rng = np.random.default_rng(3)
        for s in (0.3 + 0.4j, 2.0, 0.64):
            basis = build_eigenspace(s)
            a = rng.uniform(0.08, 0.92, 50)
            c = rng.uniform(0.08, 0.92, 50)
            V = np.stack([*basis.pairs["L"].extend(a, c),
                          *basis.pairs["R"].extend(a, c)], axis=1)
            gram = V.conj().T @ V / V.shape[0]
            sv = np.linalg.svd(gram, compute_uv=False)
            assert sv[1] / max(sv[2], 1e-300) > 1e6


class TestJSplit:
    def test_j_eigenvalues(self):
        rng = np.random.default_rng(4)
        for s in (2.0, 0.5, -1.5):
            pair = j_split(build_eigenspace(s))
            a = rng.uniform(0.05, 0.95, 15)
            c = rng.uniform(0.05, 0.95, 15)
            (jp, jm), (fp, fm) = (G.extend(a, c)
                                  for G in (apply_R(pair, 2), pair))
            assert np.max(np.abs(jp - fp)) < 1e-10
            assert np.max(np.abs(jm + fm)) < 1e-10

    def test_involution(self):
        pair = j_split(build_eigenspace(1.3))
        jj = apply_R(apply_R(pair, 2), 2)
        a, c = 0.31, 0.67
        assert abs(jj.extend(a, c)[0] - pair.extend(a, c)[0]) < 1e-12

    def test_degenerate_active_member_raises(self):
        basis = build_eigenspace(0.0)  # L+ vanishes; active pair is R
        assert j_split(basis) is basis.pairs["R"]  # fine: R-pair is active
        basis_bad = build_eigenspace(0.0)
        basis_bad.active = "L"
        with pytest.raises(DomainError):
            j_split(basis_bad)


class TestFourierSlice:
    def test_lerch_a_axis_coefficients(self):
        # f_n(c) = (n + c)^(-s) for n >= 0 and 0 for n < 0
        s, c0 = 2.0, 0.4
        sl = fourier_slice(lerch_star_twisted(s), "a_axis", c0, 8)
        for n in range(0, 9):
            assert abs(sl[n] - (n + c0) ** (-s)) < 1e-9, n
        for n in range(-8, 0):
            assert abs(sl[n]) < 1e-9, n

    def test_r_image_c_axis_coefficients(self):
        # F = R(zeta*_(1-s)): e^(2 pi i a c) F(a, c) = zeta*(1-s, 1-c, a)
        # = sum_{k>=0} e^(-2 pi i k c) |k + a|^(s-1), so the c-coefficients
        # are g_n(a) = |a - n|^(s-1) supported on n <= 0 (the side a > n,
        # matching the A-side of the characterization identities); small s
        # keeps the dropped edge-sliver mass (~cutoff^(1-s)) negligible
        s, a0 = 0.3, 0.3
        F = apply_R(lerch_star_twisted(1.0 - s), 1)
        sl = fourier_slice(F, "c_axis", a0, 6)
        for n in range(-6, 1):
            assert abs(sl[n] - abs(a0 - n) ** (s - 1.0)) < 5e-8, n
        for n in range(1, 7):
            assert abs(sl[n]) < 5e-8, n

    def test_shift_identity(self):
        # twisted periodicity: f_n(c + l) = f_{n+l}(c)
        s, c0 = 1.4, 0.37
        F = lerch_star_twisted(s)
        base = fourier_slice(F, "a_axis", c0, 6)
        for ell in (1, 2):
            shifted = fourier_slice(F, "a_axis", c0 + ell, 6)
            for n in range(-3, 4):
                assert abs(shifted[n] - base[n + ell]) < 1e-9, (n, ell)

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            fourier_slice(lerch_star_twisted(2.0), "b_axis", 0.3, 4)

    @pytest.mark.parametrize("n", [-5, 5])
    def test_mode_beyond_n_raises(self, n):
        # modes -N..N only: an out-of-range mode must not wrap around
        sl = fourier_slice(lerch_star_twisted(2.0), "a_axis", 0.4, 4)
        assert abs(sl[4] - 4.4 ** -2.0) < 1e-9
        with pytest.raises(KeyError):
            sl[n]


class TestCharacterize:
    def test_zeta_star_at_s2(self):
        result = characterize(lerch_star_twisted(2.0), 2.0, "a_path")
        assert abs(result.A - 1.0) < 1e-6
        assert abs(result.B) < 1e-6
        assert result.residual < 1e-6

    def test_zeta_star_at_s07(self):
        result = characterize(lerch_star_twisted(0.7), 0.7, "a_path")
        assert abs(result.A - 1.0) < 1e-6
        assert abs(result.B) < 1e-6
        assert result.residual < 1e-6

    def test_l_plus_gives_equal_constants(self):
        result = characterize(l_pm_twisted(0.7, Parity.PLUS), 0.7, "a_path")
        assert abs(result.A - 1.0) < 1e-6
        assert abs(result.B - 1.0) < 1e-6
        assert result.residual < 1e-6

    def test_c_path_round_trip(self):
        # on the dual path the constants are the gamma-scaled pair, but
        # the reconstruction must still reproduce F pointwise
        s = 0.3
        result = characterize(lerch_star_twisted(s), s, "c_path")
        gp = tate_gamma(1.0 - s, Parity.PLUS).value
        gm = tate_gamma(1.0 - s, Parity.MINUS).value
        want_ca = 0.5 * gp                       # (A+B)/2
        want_cb = 0.5 * root_number(Parity.MINUS) * gm
        assert abs(0.5 * (result.A + result.B) - want_ca) < 1e-6
        assert abs(0.5 * (result.A - result.B) - want_cb) < 1e-6
        assert result.residual < 1e-6

    def test_untwisted_counterexample_rejected(self):
        s = 2.0
        fake = _PlainPeriodicFn(
            lambda a, c: np.asarray(c, dtype=complex) ** (-s), 1, "c^-s")
        with pytest.raises(IdentityViolationError):
            characterize(fake, s, "a_path")

    def test_path_preconditions(self):
        F = lerch_star_twisted(2.0)
        with pytest.raises(DomainError):
            characterize(F, 2.0, "c_path")  # needs Re(s) < 1
        with pytest.raises(DomainError):
            characterize(F, -0.5, "a_path")  # needs Re(s) > 0
        with pytest.raises(DomainError):
            characterize(F, 0.5, "diagonal")

    # characterize falsely rejects members with an even part: the sliver
    # that line_nodes drops at each lattice line adds one constant to every
    # coefficient under the |x|^(s-1) (or |x|^(-s)) blow-up
    @pytest.mark.xfail(raises=IdentityViolationError, strict=True,
                       reason="deviation 7.5e-4: the dropped sliver biases "
                              "every coefficient")
    def test_l_plus_on_c_path(self):
        result = characterize(l_pm_twisted(0.7, Parity.PLUS), 0.7, "c_path")
        assert result.residual < 1e-6

    @pytest.mark.xfail(raises=IdentityViolationError, strict=True,
                       reason="deviation 9.4e-4: the dropped sliver biases "
                              "every coefficient")
    def test_l_plus_in_the_strip_on_a_path(self):
        s = 0.3 + 0.4j
        result = characterize(l_pm_twisted(s, Parity.PLUS), s, "a_path")
        assert abs(result.A - 1.0) < 1e-6
        assert abs(result.B - 1.0) < 1e-6
        assert result.residual < 1e-6

    def test_dual_dilation_identity_sampled(self):
        # g_{mn-k}(a) = m^(s-1) g_n((a+k)/m) for the reflected basis member
        s = 0.3
        F = apply_R(lerch_star_twisted(1.0 - s), 1)
        m, a0 = 2, 0.41
        base = fourier_slice(F, "c_axis", a0, 8)
        for k in range(m):
            inner = fourier_slice(F, "c_axis", (a0 + k) / m, 8)
            for n in (0, 1, 2):
                lhs = base[m * n - k]
                rhs = m ** (s - 1.0) * inner[n]
                assert abs(lhs - rhs) < 5e-8, (n, k)


class TestSharedSliceRule:
    """characterize builds one slice rule per call and hands it to every
    fourier_slice call; the coefficients are those of standalone calls."""

    # (F, s, path): a-slices on the a path; c-slices, dilation slices
    # included, on the c path
    CASES = [(lambda: lerch_star_twisted(2.0), 2.0, "a_path"),
             (lambda: lerch_star_twisted(0.3), 0.3, "c_path")]

    @pytest.mark.parametrize("make, s, path", CASES)
    def test_line_nodes_once_per_call(self, make, s, path, monkeypatch):
        import lerchlab.eigenspace as eigenspace

        calls = []
        nodes = eigenspace.line_nodes

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return nodes(*args, **kwargs)

        monkeypatch.setattr(eigenspace, "line_nodes", counted)
        characterize(make(), s, path)
        assert len(calls) == 1

    @pytest.mark.parametrize("make, s, path", CASES)
    def test_shared_rule_is_bit_identical(self, make, s, path, monkeypatch):
        import lerchlab.eigenspace as eigenspace

        seen = []
        slice_fn = eigenspace.fourier_slice

        def spy(F, axis, x0, N, *, _rule=None):
            assert _rule is not None
            sl = slice_fn(F, axis, x0, N, _rule=_rule)
            seen.append((F, axis, x0, N, sl.coefficients))
            return sl

        monkeypatch.setattr(eigenspace, "fourier_slice", spy)
        characterize(make(), s, path)
        assert len(seen) == (11 if path == "a_path" else 11 + 5)
        axis = "a_axis" if path == "a_path" else "c_axis"
        assert {entry[1] for entry in seen} == {axis}
        for F, axis, x0, N, coeffs in seen:
            alone = slice_fn(F, axis, x0, N).coefficients
            assert alone.tobytes() == coeffs.tobytes(), x0


class TestFourFamilyInvariance:
    def test_eigenvalues_in_strip(self):
        # inside the critical strip the eigenspace is invariant under all
        # four families; T and T_vee act by m^(-s), S and S_vee by
        # m^(s-1) = (1/m) m^s (they are the scaled inverses)
        import lerchlab as ll

        s = 0.6 + 0.4j
        basis = build_eigenspace(s)
        a = np.array([0.313, 0.727, 0.155])
        c = np.array([0.441, 0.169, 0.835])
        lam = {
            ll.OperatorKind.T: np.exp(-s * np.log(2)),
            ll.OperatorKind.T_VEE: np.exp(-s * np.log(2)),
            ll.OperatorKind.S: np.exp((s - 1) * np.log(2)),
            ll.OperatorKind.S_VEE: np.exp((s - 1) * np.log(2)),
        }
        pair = basis.pairs[basis.active]
        fv = pair.extend(a, c)
        for kind, ev in lam.items():
            got = ll.apply_hecke(kind, 2, pair).extend(a, c)
            for row in (0, 1):
                assert np.max(np.abs(got[row] - ev * fv[row])) < 1e-10, kind

    def test_hecke_eigen_below_strip_via_reflected_basis(self):
        # at s = -1.5 the working basis is the R-pair; T_m still acts by
        # m^(-s) on it
        import lerchlab as ll

        s = -1.5
        basis = build_eigenspace(s)
        assert basis.active == "R"
        pair = basis.pairs[basis.active]
        rng = np.random.default_rng(12)
        a = rng.uniform(0.05, 0.95, 10)
        c = rng.uniform(0.05, 0.95, 10)
        for m in (2, 3, 7):
            ev = m ** 1.5  # m^(-s)
            fv = pair.extend(a, c)
            got = ll.apply_hecke(ll.OperatorKind.T, m, pair).extend(a, c)
            for row in (0, 1):
                assert np.max(np.abs(got[row] - ev * fv[row])
                              / (1 + np.abs(fv[row]))) < 1e-8


class TestSliceDecayWarning:
    def test_non_integrable_slice_warns(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fourier_slice(lerch_star_twisted(2.6), "c_axis", 0.3, 8)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_integrable_slice_is_silent(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fourier_slice(lerch_star_twisted(2.0), "a_axis", 0.4, 8)
        assert not caught
