import math

import numpy as np
import pytest

from lerchlab import (
    DomainError,
    LatticePointError,
    OperatorKind,
    Parity,
    TwistedFn,
    apply_R,
    apply_hecke,
    hurwitz_many,
    kubert_1d,
    l_pm_many,
    l_pm_twisted,
    lerch_star_twisted,
    riemann_zeta,
    zeta_operator_partial,
)
from lerchlab.harness import sample_off_lattice, smooth_twisted_fn
from lerchlab.twisted_space import l_pm_pair_twisted

from oracles import direct_sum


def poly_core(a, c):
    # simple analytic core with no hidden symmetries
    return (1.3 + 0.7j) * np.exp(2j * np.pi * a) * c ** 2 \
        + 0.4 * np.exp(-2j * np.pi * a) * (1.0 + c)


@pytest.fixture
def F():
    return TwistedFn(poly_core, 1, "poly")


class TestExtend:
    def test_a_periodicity_exact(self, F):
        # exact for dyadic a (the shift is representable), ulp-level else
        assert F.extend(0.25 + 1.0, 0.4) == F.extend(0.25, 0.4)
        diff = abs(F.extend(0.3 + 1.0, 0.4) - F.extend(0.3, 0.4))
        assert diff < 1e-14

    def test_c_shift_phase(self, F):
        got = F.extend(0.3, 2.4)
        want = np.exp(-2j * np.pi * 0.6) * poly_core(0.3, 0.4)
        assert abs(got - want) < 1e-15

    def test_negative_a(self, F):
        assert abs(F.extend(-0.7, 0.4) - poly_core(np.array(0.3),
                                                   np.array(0.4))) < 1e-15

    def test_lattice_rejection(self, F):
        with pytest.raises(LatticePointError):
            F.extend(0.0, 0.4)
        with pytest.raises(LatticePointError):
            F.extend(0.3, 1.0 + 5e-14)

    def test_denominator_lattice(self, F):
        G = apply_hecke(OperatorKind.T, 2, F)
        assert G.denominator == 2
        with pytest.raises(LatticePointError):
            G.extend(0.5, 0.3)
        # fine for the base function
        assert F.extend(0.5, 0.3) is not None

    def test_vector_evaluation(self, F):
        a = np.array([0.1, 0.6, -0.3])
        c = np.array([0.2, 1.7, 0.9])
        vals = F.extend(a, c)
        for i in range(3):
            assert abs(vals[i] - F.extend(float(a[i]), float(c[i]))) < 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_axis_inputs_match_flattened_meshgrid(self, m):
        rng = np.random.default_rng(100 + m)
        f = smooth_twisted_fn(rng)
        # off the 1/60 lattice (60 = lcm(1..5)); c reaches past 1 and below 0
        # so the twist phase is exercised
        a = sample_off_lattice(rng, 9, 60) + np.array([0, 0, 0, 1, 1, 1, -1, -1, 2])
        c = sample_off_lattice(rng, 7, 60) + np.array([0, 0, 0, 1, 1, -1, 2])
        A, C = np.meshgrid(a, c, indexing="ij")
        ops = [f, apply_R(f, 1)] + [apply_hecke(kind, m, f) for kind in (
            OperatorKind.T, OperatorKind.S, OperatorKind.T_VEE,
            OperatorKind.S_VEE)]
        for G in ops:
            axis = G.extend(a[:, None], c[None, :])
            flat = G.extend(A.ravel(), C.ravel())
            assert axis.shape == (a.size, c.size), G
            assert axis.flags.writeable, G
            np.testing.assert_array_equal(axis.ravel(), flat, err_msg=repr(G))

    def test_broadcast_result_is_writable(self):
        const = TwistedFn(lambda a, c: np.ones_like(a, dtype=complex), 1, "1")
        out = const.extend(np.array([[0.2], [0.3]]), np.array([[0.4, 0.6, 0.7]]))
        assert out.shape == (2, 3) and out.flags.writeable
        out[0, 0] = 5.0
        assert out[1, 0] == 1.0

    def test_lattice_rejection_on_one_axis_node(self, F):
        G = apply_hecke(OperatorKind.T, 2, F)
        good = np.array([0.1, 0.3, 0.7])
        with pytest.raises(LatticePointError, match=r"^a = .*0\.5\b"):
            G.extend(np.array([0.1, 0.5, 0.7])[:, None], good[None, :])
        with pytest.raises(LatticePointError, match=r"^c = .*1\.5\b"):
            G.extend(good[:, None], np.array([0.2, 1.5])[None, :])


class TestHecke:
    def test_t1_is_identity(self, F):
        G = apply_hecke(OperatorKind.T, 1, F)
        a, c = 0.37, 0.61
        assert abs(G.extend(a, c) - F.extend(a, c)) < 1e-15

    def test_t_composition(self, F):
        rng = np.random.default_rng(0)
        lhs = apply_hecke(OperatorKind.T, 2, apply_hecke(OperatorKind.T, 3, F))
        rhs = apply_hecke(OperatorKind.T, 6, F)
        for _ in range(50):
            a = rng.uniform(0.01, 0.99)
            c = rng.uniform(0.01, 0.99)
            if min(abs(a * 6 - round(a * 6)), abs(c * 6 - round(c * 6))) < 6e-3:
                continue
            assert abs(lhs.extend(a, c) - rhs.extend(a, c)) < 1e-12

    def test_s_inverts_t(self, F):
        rng = np.random.default_rng(1)
        for m in (2, 3, 5):
            g = apply_hecke(OperatorKind.S, m, apply_hecke(OperatorKind.T, m, F))
            for _ in range(10):
                a = rng.uniform(0.02, 0.98)
                c = rng.uniform(0.02, 0.98)
                d = m * m
                if min(abs(a * d - round(a * d)), abs(c * d - round(c * d))) < 1e-3:
                    continue
                assert abs(g.extend(a, c) - F.extend(a, c) / m) < 1e-12

    def test_index_validation(self, F):
        with pytest.raises(DomainError):
            apply_hecke(OperatorKind.T, 0, F)
        with pytest.raises(DomainError):
            apply_hecke(OperatorKind.D_L, 2, F)


class TestROperator:
    def test_composition_law(self, F):
        rng = np.random.default_rng(2)
        rr = apply_R(apply_R(F, 1), 1)
        r2 = apply_R(F, 2)
        for _ in range(20):
            a, c = rng.uniform(0.01, 0.99, 2)
            assert abs(rr.extend(a, c) - r2.extend(a, c)) < 1e-13

    def test_order_four(self, F):
        g = F
        for _ in range(4):
            g = apply_R(g, 1)
        a, c = 0.3, 0.8
        assert abs(g.extend(a, c) - F.extend(a, c)) < 1e-13

    def test_preserves_twisted_periodicity(self, F):
        g = apply_R(F, 1)
        a, c = 0.23, 0.67
        v = g.extend(a, c)
        assert abs(g.extend(a + 1, c) - v) < 1e-13
        assert abs(g.extend(a, c + 1) - np.exp(-2j * np.pi * a) * v) < 1e-13

    def test_j_fixes_lerch_plus(self):
        Lp = l_pm_twisted(2.0, Parity.PLUS)
        J = apply_R(Lp, 2)
        rng = np.random.default_rng(3)
        for _ in range(8):
            a, c = rng.uniform(0.05, 0.95, 2)
            assert abs(J.extend(a, c) - Lp.extend(a, c)) < 1e-10

    def test_power_validation(self, F):
        with pytest.raises(DomainError):
            apply_R(F, 4)
        assert apply_R(F, 0) is F


class TestPairEvaluator:
    """l_pm_pair_twisted: both members from one engine pass per point set,
    bit-equal to l_pm_many with the twist phase, never a stale value."""

    # (s, apply R): the L-pair at Re s > 0, and the R-pair of s = -1.5,
    # R^pm = R L^pm(1 - s), the active pair at Re s <= 0
    CASES = [(0.7 + 2.0j, False), (-1.5, True)]

    @staticmethod
    def reference(s, parity):
        # l_pm_many(s, parity, a, c)[0], with the twist phase applied by
        # TwistedFn.extend
        return TwistedFn(lambda a, c: l_pm_many(s, parity, a, c)[0])

    @classmethod
    def pair_and_reference(cls, s, reflected):
        s_eval = 1 - s if reflected else s
        pair = l_pm_pair_twisted(s_eval)
        ref = [cls.reference(s_eval, p) for p in (Parity.PLUS, Parity.MINUS)]
        if reflected:
            pair = tuple(apply_R(F, 1) for F in pair)
            ref = [apply_R(F, 1) for F in ref]
        return pair, ref

    @staticmethod
    def count_engine(monkeypatch):
        import lerchlab.lerch_core as core

        calls = []
        engine = core._engine

        def counted(*args):
            calls.append(args[0])
            return engine(*args)

        monkeypatch.setattr(core, "_engine", counted)
        return calls

    @pytest.mark.parametrize("s, reflected", CASES)
    def test_second_member_makes_no_engine_call(self, s, reflected,
                                                monkeypatch):
        pair, ref = self.pair_and_reference(s, reflected)
        rng = np.random.default_rng(4)
        a = rng.uniform(0.05, 0.95, 12)
        c = rng.uniform(0.05, 2.95, 12)   # floor(c) > 0: the twist phase
        calls = self.count_engine(monkeypatch)
        got = [F.extend(a, c) for F in pair]
        assert calls == [True]
        want = [F.extend(a, c) for F in ref]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("s, reflected", CASES)
    def test_interleaved_calls_are_never_stale(self, s, reflected,
                                               monkeypatch):
        (plus, minus), (ref_plus, ref_minus) = self.pair_and_reference(
            s, reflected)
        rng = np.random.default_rng(5)
        X = rng.uniform(0.05, 0.95, (2, 7))
        Y = rng.uniform(0.05, 0.95, (2, 7))
        calls = self.count_engine(monkeypatch)
        first = plus.extend(*X)
        assert minus.extend(*Y).tobytes() == ref_minus.extend(*Y).tobytes()
        again = plus.extend(*X)
        assert first.tobytes() == again.tobytes()
        assert again.tobytes() == ref_plus.extend(*X).tobytes()
        assert len(calls) == 3 + 2   # three pair passes, two references

    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_single_member_evaluator(self, parity):
        # l_pm_twisted is one member of its own pair
        rng = np.random.default_rng(6)
        a = rng.uniform(0.05, 0.95, 9)
        c = rng.uniform(-1.95, 1.95, 9)
        got = l_pm_twisted(0.7 + 2.0j, parity).extend(a, c)
        want = self.reference(0.7 + 2.0j, parity).extend(a, c)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [0, 1])
    def test_inputs_and_outputs_mutated_in_place(self, row):
        members = l_pm_pair_twisted(0.7 + 2.0j)
        ref = self.reference(0.7 + 2.0j, (Parity.PLUS, Parity.MINUS)[row])
        a = np.array([0.21, 0.38, 0.77])
        c = np.array([0.33, 0.64, 0.52])
        out = members[row].core(a, c)
        out[:] = 0.0              # the caller owns what it gets back
        assert members[row].core(a, c).tobytes() == ref.core(a, c).tobytes()
        a[1] = 0.59               # same array objects, new bytes
        other = members[1 - row].core(a, c)
        assert members[row].core(a, c).tobytes() == ref.core(a, c).tobytes()
        assert other.tobytes() == l_pm_many(
            0.7 + 2.0j, (Parity.PLUS, Parity.MINUS)[1 - row], a, c)[0].tobytes()


class TestKubert:
    def test_single_term(self):
        f = lambda x: np.exp(2j * np.pi * x)
        assert abs(kubert_1d(1, f, 0.3) - f(0.3)) < 1e-15

    def test_constant_average(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=complex))
        assert abs(kubert_1d(2, one, 0.41) - 1.0) < 1e-15

    def test_hurwitz_eigenfunction(self):
        # Kubert operator on zeta_H(1-s, .) has eigenvalue m^(-s)
        s = 2.5
        f = lambda x: hurwitz_many(1.0 - s, x, 1e-13)[0]
        for m in (2, 3, 7, 12):
            for x in (0.21, 0.5, 0.83):
                got = kubert_1d(m, f, x)
                want = m ** (-s) * f(np.array([x]))[0]
                assert abs(got - want) < 1e-9

    def test_domain(self):
        f = lambda x: np.asarray(x, dtype=complex)
        with pytest.raises(DomainError):
            kubert_1d(2, f, 1.2)
        with pytest.raises(DomainError):
            kubert_1d(0, f, 0.5)

    @pytest.mark.parametrize("x", [float("nan"), [0.3, float("nan")], 0.0, 1.0])
    def test_x_outside_the_open_interval(self, x):
        calls = []
        with pytest.raises(DomainError):
            kubert_1d(2, lambda y: calls.append(y) or y, x)
        assert calls == []

    @pytest.mark.parametrize("m", [2.5, 2.0, 0, -1, [1, 2.5], [1, 0], []])
    def test_m_not_an_integer_at_least_one(self, m):
        with pytest.raises(DomainError):
            kubert_1d(m, lambda y: np.asarray(y, dtype=complex), 0.3)

    @pytest.mark.parametrize("s", [2.5, 0.5, -1.5])
    @pytest.mark.parametrize("m_max", [12, 40])
    def test_rows_over_m_are_the_single_m_calls(self, s, m_max):
        # one Hurwitz call on the preimages of every m; each row has the
        # bits of its own call (the head length N is planned from the
        # smallest preimage, min(xs)/m_max, and is the same here)
        calls = []

        def f(x):
            calls.append(x.shape)
            return hurwitz_many(1.0 - s, x, 1e-13)[0]

        xs = np.random.default_rng(m_max).uniform(0.05, 0.95, 15)
        ms = range(1, m_max + 1)
        rows = kubert_1d(ms, f, xs)
        assert calls == [(m_max * (m_max + 1) // 2, 15)]
        assert rows.shape == (m_max, 15)
        for m, row in zip(ms, rows):
            assert row.tobytes() == kubert_1d(m, f, xs).tobytes()

    def test_rows_at_a_scalar_x(self):
        f = lambda x: np.exp(2j * np.pi * x) * (1.0 + x)
        rows = kubert_1d((3, 1, 7), f, 0.41)
        assert rows.shape == (3,)
        assert [complex(r) for r in rows] == [kubert_1d(m, f, 0.41)
                                             for m in (3, 1, 7)]


def cancellation_noise(c: float, M: int, sigma: float) -> float:
    """Rounding-noise allowance for sum_{m<=M} T_m zeta at (a, c).

    When m*c falls near an integer the inner extended-function values are
    ~dist^(-sigma) large and cancel analytically in the k-sum, leaving
    float rounding of order eps sqrt(m) dist^(-sigma); summed over m this
    is the honest numerical floor underneath the truncation tail bound.
    """
    eps = 2.3e-16
    total = 0.0
    for m in range(1, M + 1):
        dist = abs(m * c - round(m * c))
        total += 16.0 * eps * math.sqrt(m) * dist ** (-sigma)
    return total


class TestZetaOperator:
    def test_single_term(self):
        F = lerch_star_twisted(3.0)
        a, c = 0.3, 0.6
        assert abs(zeta_operator_partial(1, F, a, c) - F.extend(a, c)) < 1e-13

    def test_converges_to_riemann_multiple_s3(self):
        # c must avoid k/m for every m <= M (the dilated arguments m*c hit
        # the discontinuity lattice otherwise), so use a generic point
        s, M = 3.0, 200
        F = lerch_star_twisted(s)
        a, c = 0.3, 1.0 / math.e
        got = zeta_operator_partial(M, F, a, c)
        fv = F.extend(a, c)
        want = riemann_zeta(s).real * fv
        tail = M ** (1.0 - s) / (s - 1.0) * abs(fv)
        noise = cancellation_noise(c, M, s)
        assert noise < tail  # the check is not noise-dominated
        assert abs(got - want) <= tail + noise

    def test_s4_with_pi4_oracle(self):
        s, M = 4.0, 100
        # zeta(4) = pi^4 / 90, cross-checked by direct summation
        z4 = direct_sum(4.0, 0.0, 1.0, N=10_000)
        assert abs(z4 - math.pi ** 4 / 90.0) < 1e-11
        F = lerch_star_twisted(s)
        a, c = 0.41, 1.0 / math.pi
        got = zeta_operator_partial(M, F, a, c)
        fv = F.extend(a, c)
        want = (math.pi ** 4 / 90.0) * fv
        tail = M ** (1.0 - s) / (s - 1.0) * abs(fv)
        noise = cancellation_noise(c, M, s)
        assert noise < 1e-3
        assert abs(got - want) <= tail + noise
