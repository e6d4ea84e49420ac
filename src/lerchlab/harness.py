"""Identity-suite runner: L2 operator checks, all verification groups,
and machine-readable reports.

Test-function family for the operator checks: finite trigonometric
polynomials in a times smooth bumps in c.  The bump vanishes to all
orders at c = 0, 1, so the twisted-periodic extension of such a function
is globally smooth and every quadrature below converges at spectral rate;
they are the dense-subspace surrogates for the L^p statements.

Each check group yields rows (identity, params, tolerance, residual) that
`_check_group` turns into the ReportRecords of CHECK_GROUPS[name];
`run_suite` executes the selected groups, writes a JSON array plus a CSV
summary, and its exit status is 0 exactly when every record passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .diff_ops import apply_D, commutator_residual, raising_lowering_scan
from .eigenspace import build_eigenspace, characterize, dependency_residual, j_split
from .errors import DomainError, IdentityViolationError
from .lerch_core import (
    LerchParams,
    _frac,
    completed_L,
    hurwitz_many,
    riemann_zeta,
)
from .quadrature import QuadratureGrid, rectangle_grid, unit_square_grid
from .report import ReportRecord, timed_call
from .special_functions import Parity, complex_gamma, root_number, tate_gamma
from .twisted_space import (
    OperatorKind,
    TwistedFn,
    apply_R,
    apply_hecke,
    kubert_1d,
    lattice_distance,
    lerch_star_twisted,
    l_pm_pair_twisted,
    zeta_operator_partial,
)

__all__ = [
    "ReportRecord",
    "smooth_twisted_fn",
    "inner_product",
    "lp_norm",
    "run_suite",
    "CHECK_GROUPS",
    "load_config",
    "DEFAULT_SUITE_CONFIG",
]


# ---------------------------------------------------------------------------
# smooth twisted test functions
# ---------------------------------------------------------------------------

def _bump(t: np.ndarray) -> np.ndarray:
    """C-infinity bump on (0,1), zero to all orders at the endpoints."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(4.0 - 1.0 / (ti * (1.0 - ti)))
    return out


def smooth_twisted_fn(rng: np.random.Generator, modes: int = 2,
                      label: str = "") -> TwistedFn:
    """Random trig polynomial in a times a bump-modulated trig part in c.

    f(a, c) = sum_{|j| <= modes} ca_j e(j a) * sum_{0 <= j <= modes} cc_j e(j c)
    * bump(c), with e(x) = e^(2 pi i x); both sums are evaluated by Horner's
    rule in w = e(a) and e(c), one exponential per node.
    """
    size_a = 2 * modes + 1
    size_c = modes + 1
    ca = rng.normal(size=size_a) + 1j * rng.normal(size=size_a)
    cc = rng.normal(size=size_c) + 1j * rng.normal(size=size_c)

    def core(a, c):
        # np.polyval takes the top degree first
        w = np.exp(2j * math.pi * a)
        pa = np.polyval(ca[::-1], w) * np.conj(w) ** modes
        pc = np.polyval(cc[::-1], np.exp(2j * math.pi * c))
        return pa * (pc * _bump(c))

    return TwistedFn(core, 1, label or "smooth-test")


def sample_off_lattice(rng: np.random.Generator, n: int, denominator: int = 1,
                       guard: float = 1e-3) -> np.ndarray:
    """n points in (0,1) at distance > guard/denominator from the
    1/denominator lattice (rejection sampling)."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        cand = rng.uniform(0.0, 1.0, 2 * (n - filled) + 8)
        good = cand[lattice_distance(cand, denominator) > guard / denominator]
        take = min(good.size, n - filled)
        out[filled:filled + take] = good[:take]
        filled += take
    return out


# ---------------------------------------------------------------------------
# L2 machinery
# ---------------------------------------------------------------------------

def inner_product(F: TwistedFn, G: TwistedFn, grid: QuadratureGrid) -> complex:
    """Quadrature approximation of <F, G> = int int F conj(G) da dc."""
    return grid.integrate(F.extend(grid.a, grid.c)
                          * np.conj(G.extend(grid.a, grid.c)))


def lp_norm(F: TwistedFn, grid: QuadratureGrid, p: float) -> float:
    return _lp_norm_of(F.extend(grid.a, grid.c), grid, p)


def _lp_norm_of(values: np.ndarray, grid: QuadratureGrid, p: float) -> float:
    """L^p norm of values already evaluated on the grid."""
    vals = np.abs(values)
    if math.isinf(p):
        return float(np.max(vals))
    return float(np.sum(grid.weights * vals ** p) ** (1.0 / p))


def _sup(values) -> float:
    """Max-norm over the sample points."""
    return float(np.max(np.abs(values)))


def _rel_sup(diff, values) -> float:
    """Max over the sample points of |diff| / (1 + |values|)."""
    return float(np.max(np.abs(diff) / (1.0 + np.abs(values))))


def _grid_c_refined(m: int) -> QuadratureGrid:
    """Suitable for T_m images: two panels per dilated c-period."""
    return rectangle_grid(4, max(4, 2 * m), 20)


def _grid_a_refined(m: int) -> QuadratureGrid:
    """Suitable for S_m images: two panels per dilated a-period."""
    return rectangle_grid(max(4, 2 * m), 4, 20)


def _adjoint_resid(m: int, trials: int, rng: np.random.Generator) -> float:
    """|<T_m f, g> - <f, S_m g>| / (||f|| ||g||) over random smooth pairs."""
    grid_t = _grid_c_refined(m)
    grid_s = _grid_a_refined(m)
    worst = 0.0
    for _ in range(trials):
        f = smooth_twisted_fn(rng)
        g = smooth_twisted_fn(rng)
        g_t = g.extend(grid_t.a, grid_t.c)
        tf_t = apply_hecke(OperatorKind.T, m, f).extend(grid_t.a, grid_t.c)
        lhs = grid_t.integrate(tf_t * np.conj(g_t))
        rhs = inner_product(f, apply_hecke(OperatorKind.S, m, g), grid_s)
        scale = lp_norm(f, grid_t, 2) * _lp_norm_of(g_t, grid_t, 2)
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-30))
    return worst


def _norm_identity_resid(m: int, trials: int,
                         rng: np.random.Generator) -> float:
    """| ||T_m f||_2 - m^(-1/2) ||f||_2 | / ||f||_2 (unitarity of sqrt(m) T_m)."""
    grid = _grid_c_refined(m)
    worst = 0.0
    for _ in range(trials):
        f = smooth_twisted_fn(rng)
        tn = lp_norm(apply_hecke(OperatorKind.T, m, f), grid, 2)
        fn = lp_norm(f, grid, 2)
        worst = max(worst, abs(tn - fn / math.sqrt(m)) / max(fn, 1e-30))
    return worst


def _lp_bound_resid(m: int, p: float, trials: int,
                    rng: np.random.Generator) -> float:
    """Slack of ||T_m f||_p <= m ||f||_p and the same for S_m.

    The residual is max(ratio/m) - 1 clipped at 0, so any positive value
    is a genuine violation; p = inf uses a supremum sampled at 10^4
    points (a lower bound on the true sup for both sides).
    """
    if math.isinf(p):
        xs = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
        ys = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
        norm = lambda F: _sup(F.extend(xs, ys))
    else:
        grid = unit_square_grid(max(4, 2 * m), 16)
        norm = lambda F: lp_norm(F, grid, p)
    worst = 0.0
    for _ in range(trials):
        f = smooth_twisted_fn(rng)
        den = norm(f)
        for kind in (OperatorKind.T, OperatorKind.S):
            num = norm(apply_hecke(kind, m, f))
            worst = max(worst, num / max(den, 1e-30) / m - 1.0)
    return max(worst, 0.0)


# ---------------------------------------------------------------------------
# suite configuration
# ---------------------------------------------------------------------------

DEFAULT_SUITE_CONFIG: dict = {
    "seed": 42,
    "groups": ["special_fns", "functional_equations", "hecke_eigen",
               "operator_algebra", "commutators", "differential_eigen",
               "eigenspace_structure", "adjoint", "characterization",
               "milnor_baseline", "zeta_operator"],
    "fe_samples": 100,
    "fe_im_max": 20.0,
    "hecke_s": [3.0, 2.0, 0.5, 0.5 + 10j, -1.5],
    "hecke_m_max": 16,
    "hecke_points": 50,
    "algebra_m_max": 6,
    "adjoint_m_max": 8,
    "adjoint_trials": 20,
    "eigen_s": [2.5, 1.7, 0.5],
    "eigen_points": 20,
    "eigen_structure_s": [0.3 + 0.4j, 0.64, 2.0],
    "char_s": [2.0, 0.7],
    "milnor_m_max": 12,
    "milnor_s": [2.5, 0.5, -1.5],
    "zeta_op_M": 200,
    "zeta_op_points": 10,
}


def load_config(path: str | Path | None) -> dict:
    """Flat key-value config: `key = value` lines, '#' comments.

    Values parse as int, float, complex, comma-separated lists thereof,
    or bare strings.  Unknown keys are rejected so typos fail loudly.
    """
    cfg = dict(DEFAULT_SUITE_CONFIG)
    if path is None:
        return cfg
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULT_SUITE_CONFIG:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(value.strip(), DEFAULT_SUITE_CONFIG[key])
    return cfg


def _parse_scalar(tok: str):
    for cast in (int, float, complex):
        try:
            return cast(tok)
        except ValueError:
            continue
    return tok


def _parse_value(value: str, template):
    if isinstance(template, list):
        if not value:
            return []
        return [_parse_scalar(tok.strip()) for tok in value.split(",")]
    return _parse_scalar(value)


# ---------------------------------------------------------------------------
# check groups
# ---------------------------------------------------------------------------

CHECK_GROUPS: dict[str, Callable[[dict, np.random.Generator],
                                 list[ReportRecord]]] = {}


def _size(cfg: dict, key: str, least: int) -> int:
    """cfg[key] as an int; DomainError below ``least``, since there the
    checks that the key sizes test nothing and pass with residual 0."""
    value = int(cfg[key])
    if value < least:
        raise DomainError(f"{key} = {value} leaves its checks vacuous; "
                          f"it must be at least {least}")
    return value


def _s_values(cfg: dict, key: str) -> list[complex]:
    """cfg[key] as complex exponents; DomainError when the list is empty,
    since a group then runs no check and passes 0 of 0."""
    values = [complex(s) for s in cfg[key]]
    if not values:
        raise DomainError(f"{key} needs at least one s")
    return values


def _check_group(rows):
    """Register a generator of check rows as CHECK_GROUPS[name].

    ``rows(cfg, rng)`` yields (identity, params, tolerance, residual),
    with ``residual`` a zero-argument callable; the registered group
    times each residual into a ReportRecord.  Rows are consumed one at a
    time, in order, and each residual runs before the next row is asked
    for, so every draw from the group's stream happens where the
    generator's code puts it, and a residual may read loop variables
    late (``lambda: _adjoint_resid(m, trials, rng)`` inside a loop over
    m).  The group returns only when all of its rows have run.
    """
    def group(cfg: dict, rng: np.random.Generator) -> list[ReportRecord]:
        return [ReportRecord.timed(*row) for row in rows(cfg, rng)]

    CHECK_GROUPS[rows.__name__.removeprefix("group_")] = group
    return group


@_check_group
def group_special_fns(cfg: dict, rng: np.random.Generator):
    def gamma_recurrence() -> float:
        worst = 0.0
        for _ in range(200):
            z = complex(rng.uniform(-3, 4), rng.uniform(-10, 10))
            if abs(z - round(z.real)) < 0.1 and z.real <= 0.5:
                continue
            g1 = complex_gamma(z + 1)
            g0 = complex_gamma(z)
            if g1.is_pole or g0.is_pole:
                continue
            worst = max(worst, abs(g1.value - z * g0.value) / abs(g1.value))
        return worst

    yield "gamma:recurrence", {"samples": 200}, 1e-11, gamma_recurrence

    def tate_reflection() -> float:
        worst = 0.0
        count = 0
        while count < 200:
            s = complex(rng.uniform(-3, 4), rng.uniform(-10, 10))
            if abs(s.imag) < 0.05 and abs(s.real - round(s.real)) < 0.05:
                continue
            for parity in (Parity.PLUS, Parity.MINUS):
                g1 = tate_gamma(s, parity)
                g2 = tate_gamma(1 - s, parity)
                if g1.is_pole or g2.is_pole:
                    continue
                worst = max(worst, abs(g1.value * g2.value - 1.0))
            count += 1
        return worst

    yield "tate_gamma:reflection", {"samples": 200}, 1e-10, tate_reflection

    def root_numbers() -> float:
        wp = root_number(Parity.PLUS)
        wm = root_number(Parity.MINUS)
        return max(abs(wp - 1.0), abs(wm - 1j),
                   abs(wp ** 4 - 1.0), abs(wm ** 4 - 1.0))

    yield "root_number:values", {}, 0.0, root_numbers


@_check_group
def group_functional_equations(cfg: dict, rng: np.random.Generator):
    """Completed-function equations at random s on the critical line and
    in the strip; residuals are relative (the gamma factors decay fast in
    |Im s|, making absolute residuals vacuous)."""
    n = _size(cfg, "fe_samples", 1)
    im_max = float(cfg["fe_im_max"])
    samples = []
    for i in range(n):
        if i % 2 == 0:
            s = complex(0.5, rng.uniform(-im_max, im_max))
        else:
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-3, 3))
        samples.append((s, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))

    def residual(parity: Parity) -> float:
        worst = 0.0
        for s, a, c in samples:
            lhs = completed_L(LerchParams(s, a, c), parity).value
            rhs_inner = completed_L(LerchParams(1 - s, 1 - c, a), parity).value
            rhs = root_number(parity) * np.exp(-2j * math.pi * a * c) * rhs_inner
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst

    for parity in (Parity.PLUS, Parity.MINUS):
        yield (f"functional_equation:L{parity.value}-hat",
               {"samples": n, "im_max": im_max}, 1e-7,
               lambda: residual(parity))


@_check_group
def group_hecke_eigen(cfg: dict, rng: np.random.Generator):
    """T_m F = m^(-s) F for both active basis members of the eigenspace."""
    m_max = _size(cfg, "hecke_m_max", 2)
    n_pts = _size(cfg, "hecke_points", 1)
    for s in _s_values(cfg, "hecke_s"):
        basis = build_eigenspace(s)

        def eigen_resid() -> float:
            worst = 0.0
            for m in range(2, m_max + 1):
                # keep sample points and their Hecke preimages off the 1/m grids
                a = sample_off_lattice(rng, n_pts, m, guard=5e-3)
                c = sample_off_lattice(rng, n_pts, m, guard=5e-3)
                eig = np.exp(-s * math.log(m))
                # T_m F for both members, then F for both: each pair
                # shares one engine pass per point set
                pair = basis.active()
                tmfs = [apply_hecke(OperatorKind.T, m, F).extend(a, c)
                        for F in pair]
                fvs = [F.extend(a, c) for F in pair]
                for tmf, fv in zip(tmfs, fvs):
                    worst = max(worst, _rel_sup(tmf - eig * fv, fv))
            return worst

        yield ("hecke_eigen:T_m F = m^-s F",
               {"s": s, "m_max": m_max, "points": n_pts,
                "basis": basis.active_pair},
               1e-8, eigen_resid)


@_check_group
def group_operator_algebra(cfg: dict, rng: np.random.Generator):
    """Composition laws of the four Hecke families on smooth twisted
    functions: T_m T_n = T_mn, S_m T_m = (1/m) I, the family collapses
    T_m_vee = T_m / S_m_vee = S_m, and cross-family commutativity."""
    tol = 1e-11
    m_max = _size(cfg, "algebra_m_max", 2)
    ms = range(1, m_max + 1)
    f = smooth_twisted_fn(rng, label="algebra-test")
    T = lambda m, F: apply_hecke(OperatorKind.T, m, F)
    S = lambda m, F: apply_hecke(OperatorKind.S, m, F)
    R = lambda k, F: apply_R(F, k)

    def worst_gap(cases) -> float:
        """Worst |lhs - rhs / d| over cases (denominator, [(lhs, rhs, d)]),
        each at 25 a-values, then 25 c-values, clear of its 1/denominator
        lattice; d = 1 where nothing is divided, since that is exact."""
        worst = 0.0
        for denominator, laws in cases:
            a = sample_off_lattice(rng, 25, denominator, guard=1e-3)
            c = sample_off_lattice(rng, 25, denominator, guard=1e-3)
            for lhs, rhs, d in laws:
                worst = max(worst, _sup(lhs.extend(a, c) - rhs.extend(a, c) / d))
        return worst

    yield ("algebra:T_m T_n = T_mn", {"m_max": m_max}, tol,
           lambda: worst_gap((m * n * 4, [(T(m, T(n, f)), T(m * n, f), 1)])
                             for m in ms for n in ms if m * n <= m_max * 2))
    yield ("algebra:S_m T_m = T_m S_m = (1/m) I", {"m_max": m_max}, tol,
           lambda: worst_gap((m * m * 2, [(S(m, T(m, f)), f, m),
                                          (T(m, S(m, f)), f, m)])
                             for m in ms))
    yield ("algebra:S_m T_dm = (1/m) T_d", {"m_max": 3, "d_max": 3}, tol,
           lambda: worst_gap((d * m * m * 2, [(S(m, T(d * m, f)), T(d, f), m)])
                             for m in range(1, 4) for d in range(1, 4)))
    yield ("algebra:T_vee = T, S_vee = S", {"m_max": m_max}, tol,
           lambda: worst_gap(
               (m * 2, [(apply_hecke(OperatorKind.T_VEE, m, f), T(m, f), 1),
                        (apply_hecke(OperatorKind.S_VEE, m, f), S(m, f), 1)])
               for m in ms))
    yield ("algebra:S_m T_l = T_l S_m", {"m_max": m_max}, tol,
           lambda: worst_gap((m * l * 4, [(S(m, T(l, f)), T(l, S(m, f)), 1)])
                             for m in ms for l in ms))
    yield ("algebra:R^4 = I", {}, tol,
           lambda: worst_gap([(1, [(R(1, R(1, R(1, R(1, f)))), f, 1),
                                   (R(1, R(1, f)), R(2, f), 1)])]))


@_check_group
def group_commutators(cfg: dict, rng: np.random.Generator):
    """Differential commutation relations on a smooth twisted function,
    plus the observed fourth-order convergence under h-halving."""
    f = smooth_twisted_fn(rng, label="commutator-test")
    pts = [(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
           for _ in range(12)]
    h = 1e-4
    # (relation, A, B): A and B label the operator pair in the report
    relations = [("D+ D- - D- D+ = I", "D_plus", "D_minus"),
                 ("D+ R = -2 pi i R D-", "D_plus", "R_pow"),
                 ("D- R = (1/2 pi i) R D+", "D_minus", "R_pow"),
                 ("D_L R + R D_L = -R", "D_L", "R_pow"),
                 ("D_L R^2 = R^2 D_L", "D_L", "R_pow")]
    for relation, A, B in relations:
        yield (f"commutator:{relation}",
               {"A": A, "B": B, "h": h, "order": 4, "points": len(pts)},
               1e-5, lambda: commutator_residual(relation, f, pts, h))

    def convergence_order() -> float:
        # truncation must dominate roundoff, so measure at coarser h
        h0 = 8e-3
        res = [max(commutator_residual("D_L R + R D_L = -R", f, pts, hh),
                   1e-300) for hh in (h0, h0 / 2)]
        order = math.log2(res[0] / res[1])
        # pass iff observed order is ~4 (between 3 and 5.5)
        return 0.0 if 3.0 <= order <= 5.5 else abs(order - 4.0)

    yield "commutators:h-halving order ~ 4", {"h0": 8e-3}, 0.0, convergence_order


@_check_group
def group_adjoint(cfg: dict, rng: np.random.Generator):
    m_max = _size(cfg, "adjoint_m_max", 2)
    if m_max > 8:
        raise DomainError("adjoint group supports adjoint_m_max <= 8 "
                          "(quadrature cost)")
    trials = _size(cfg, "adjoint_trials", 1)
    for m in range(1, m_max + 1):
        yield ("adjoint:T_m*=S_m", {"m": m, "trials": trials},
               1e-7, lambda: _adjoint_resid(m, trials, rng))
        yield ("norm:||T_m f|| = m^-1/2 ||f||", {"m": m, "trials": trials},
               1e-8, lambda: _norm_identity_resid(m, trials, rng))
    lp_trials = max(4, trials // 4)
    for m in (2, 3, 4):
        for p in (1.0, 2.0, math.inf):
            yield ("lp_bound:||T_m f||_p <= m ||f||_p",
                   {"m": m, "p": ("inf" if math.isinf(p) else p),
                    "trials": lp_trials},
                   0.0, lambda: _lp_bound_resid(m, p, lp_trials, rng))

    def r_isometry() -> float:
        grid = unit_square_grid(4, 16)
        worst = 0.0
        for _ in range(5):
            f = smooth_twisted_fn(rng)
            rf = apply_R(f, 1)
            for p in (1.0, 2.0):
                fn = lp_norm(f, grid, p)
                worst = max(worst, abs(lp_norm(rf, grid, p) - fn)
                            / max(fn, 1e-30))
        return worst

    yield "adjoint:R isometry (p=1,2)", {}, 1e-9, r_isometry


@_check_group
def group_differential_eigen(cfg: dict, rng: np.random.Generator):
    """Raising/lowering shifts and the D_L / Delta_L eigenvalue identities
    on the eigenspace basis; derivatives by fourth-order stencils with a
    step coarse enough that series noise does not dominate the mixed
    partial."""
    tol = 1e-5
    n_pts = _size(cfg, "eigen_points", 1)
    # first-order stencils tolerate a fine step; the mixed partial in D_L
    # wants a coarser one so series noise stays below its h^-2 weight
    scan_h, h = 1e-4, 1e-3
    for s in _s_values(cfg, "eigen_s"):
        pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
               for _ in range(n_pts)]
        yield ("raising_lowering", {"s": s, "h": scan_h, "points": n_pts},
               tol, lambda: raising_lowering_scan(s, pts, scan_h))

        def eigen_resid() -> float:
            basis = build_eigenspace(s)
            a = np.array([p[0] for p in pts])
            c = np.array([p[1] for p in pts])
            members = basis.active()
            # F for both members first, so the pair shares that engine pass
            fvs = [F.extend(a, c) for F in members]
            dls = [apply_D(OperatorKind.D_L, F, a, c, h) for F in members]
            deltas = [apply_D(OperatorKind.DELTA_L, F, a, c, h)
                      for F in members]
            worst = 0.0
            for fv, dl, delta in zip(fvs, dls, deltas):
                worst = max(worst, _rel_sup(dl + s * fv, fv),
                            _rel_sup(delta + (s - 0.5) * fv, fv))
            return worst

        yield ("differential_eigen:D_L F = -s F, Delta_L F = -(s-1/2) F",
               {"s": s, "points": n_pts, "h": h}, tol, eigen_resid)


@_check_group
def group_eigenspace_structure(cfg: dict, rng: np.random.Generator):
    """Two-dimensionality (Gram rank), J-eigenvalues, and the R-action."""
    gap_min = 1e6
    r_tol = 1e-8
    for s in _s_values(cfg, "eigen_structure_s"):
        basis = build_eigenspace(s)

        def gram_gap() -> float:
            a = rng.uniform(0.08, 0.92, 60)
            c = rng.uniform(0.08, 0.92, 60)
            V = np.stack([basis.member(name).extend(a, c)
                          for name in ("L+", "L-", "R+", "R-")], axis=1)
            gram = V.conj().T @ V / V.shape[0]
            sv = np.linalg.svd(gram, compute_uv=False)
            gap = sv[1] / max(sv[2], 1e-300)
            # residual formulated so that pass = gap above threshold
            return 0.0 if gap > gap_min else 1.0 / max(gap, 1e-300)

        yield ("eigenspace:gram rank 2", {"s": s, "gap_min": gap_min}, 0.0,
               gram_gap)

        def j_resid() -> float:
            fp, fm = j_split(basis)
            a = rng.uniform(0.05, 0.95, 20)
            c = rng.uniform(0.05, 0.95, 20)
            # J F for both members, then F for both, so each pair shares
            # one engine pass per point set
            jp, jm = (apply_R(f, 2).extend(a, c) for f in (fp, fm))
            return max(_sup(jp - fp.extend(a, c)), _sup(jm + fm.extend(a, c)))

        yield "eigenspace:J F = +- F", {"s": s}, 1e-10, j_resid

        def r_action() -> float:
            a = rng.uniform(0.05, 0.95, 20)
            c = rng.uniform(0.05, 0.95, 20)
            # R L for both members, then both targets: each pair shares
            # one engine pass per point set
            targets = dict(zip((Parity.PLUS, Parity.MINUS),
                               l_pm_pair_twisted(1.0 - s)))
            coeffs = {}
            for parity in targets:
                g = tate_gamma(1.0 - s, parity)
                if not g.is_pole:
                    coeffs[parity] = g.value / root_number(parity)
            lhs = [apply_R(basis.member(f"L{p.value}"), 1).extend(a, c)
                   for p in coeffs]
            rhs = [coeff * targets[p].extend(a, c)
                   for p, coeff in coeffs.items()]
            worst = 0.0
            for left, right in zip(lhs, rhs):
                worst = max(worst, _sup(left - right))
            return worst

        yield ("eigenspace:R L_s = w^-1 gamma(1-s) L_(1-s)", {"s": s}, r_tol,
               r_action)
        yield ("eigenspace:L = w gamma(1-s) R dependency", {"s": s}, r_tol,
               lambda: dependency_residual(basis,
                                           rng.uniform(0.1, 0.9, (15, 2))))


def group_characterization(cfg: dict,
                           rng: np.random.Generator) -> list[ReportRecord]:
    """Round-trip: characterize zeta_star, recover (A, B) = (1, 0); reject
    the untwisted counterexample.  The two records of one s share one
    `characterize` call and both carry its time."""
    char_s = _s_values(cfg, "char_s")
    records = []
    for s in char_s:
        F = lerch_star_twisted(s)
        result, ms = timed_call(lambda: characterize(F, s, "a_path"))
        records.append(ReportRecord.from_residual(
            "characterize:zeta* -> (A,B)=(1,0)",
            {"s": s, "A": result.A, "B": result.B},
            max(abs(result.A - 1.0), abs(result.B)), 1e-6, ms))
        records.append(ReportRecord.from_residual(
            "characterize:reconstruction residual",
            {"s": s}, result.residual, 1e-6, ms))

    def counterexample() -> float:
        s = char_s[0]
        fake = _PlainPeriodicFn(
            lambda a, c: np.asarray(c, dtype=complex) ** (-s), 1, "c^-s")
        try:
            characterize(fake, s, "a_path")
        except IdentityViolationError:
            return 0.0
        return 1.0

    records.append(ReportRecord.timed(
        "characterize:untwisted c^-s rejected",
        {"s": cfg["char_s"][0]}, 0.0, counterexample))
    return records


CHECK_GROUPS["characterization"] = group_characterization


class _PlainPeriodicFn(TwistedFn):
    """Periodic extension WITHOUT the twist phase: satisfies the Hecke
    eigenvalue and integrability conditions but violates
    twisted-periodicity; used as the characterization counterexample."""

    def extend(self, a, c):
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        c_arr = np.atleast_1d(np.asarray(c, dtype=float))
        a_arr, c_arr = np.broadcast_arrays(a_arr, c_arr)
        return np.asarray(self.core(_frac(a_arr), _frac(c_arr)),
                          dtype=np.complex128)


@_check_group
def group_milnor_baseline(cfg: dict, rng: np.random.Generator):
    """One-variable Kubert eigenfunction identity on the Hurwitz basis,
    with the reflection splitting into even/odd members."""
    m_max = _size(cfg, "milnor_m_max", 2)
    for s in _s_values(cfg, "milnor_s"):

        def kubert_resid() -> float:
            xs = rng.uniform(0.05, 0.95, 15)
            f1 = lambda x: hurwitz_many(1.0 - s, x, 1e-13)[0]
            f2 = lambda x: hurwitz_many(1.0 - s, 1.0 - x, 1e-13)[0]
            # f1 and f2 at xs and at 1 - xs, once for every m below, and
            # the Kubert averages of every m from one call per member
            (f1x, f2x), (f1r, f2r) = ([f1(x), f2(x)] for x in (xs, 1 - xs))
            ms = range(1, m_max + 1)
            rows = [kubert_1d(ms, f, xs) for f in (f1, f2)]
            worst = 0.0
            for i, m in enumerate(ms):
                eig = np.exp(-s * math.log(m)) if m > 1 else 1.0
                for row, fx in zip(rows, (f1x, f2x)):
                    worst = max(worst, _sup(row[i] - eig * fx))
            # J_0 split: even/odd combinations are +-1 eigenfunctions
            worst = max(worst, _sup((f1r + f2r) - (f1x + f2x)),
                        _sup((f1r - f2r) + (f1x - f2x)))
            return worst

        yield ("milnor:Kubert eigenfunctions (Hurwitz basis)",
               {"s": s, "m_max": m_max}, 1e-9, kubert_resid)


def _dilation_noise(c: float, M: int, sigma: float) -> float:
    """Rounding-noise floor for sum_{m<=M} T_m at (a, c): near-integer
    dilated arguments m*c produce ~dist^(-sigma) inner values whose
    analytic cancellation leaves eps-level residue."""
    eps = 2.3e-16
    m = np.arange(1, M + 1, dtype=float)
    dist = lattice_distance(m * c, 1)
    return float(np.sum(16.0 * eps * np.sqrt(m) * dist ** (-sigma)))


@_check_group
def group_zeta_operator(cfg: dict, rng: np.random.Generator):
    """Partial sums of the zeta operator against zeta(s) zeta(s, a, c),
    within the eigenvalue tail bound plus the explicit cancellation-noise
    floor, at s = 3 (sum_m T_m F converges to zeta(s) F only for Re s > 1)."""
    M = _size(cfg, "zeta_op_M", 1)
    # Dirichlet: some m <= M puts m*c within 1/(M+1) of an integer, so
    # from M = 499 on no c clears the 2e-3 guard of sample_c
    if M > 498:
        raise DomainError(f"zeta_op_M = {M} leaves no c with every m*c, "
                          "m <= M, 2e-3 clear of the integers; it must be "
                          "at most 498")
    s = 3 + 0j
    n_pts = _size(cfg, "zeta_op_points", 1)
    sigma = s.real

    def sample_c() -> float:
        # keep every dilated argument m*c clear of the integer lattice so
        # the noise floor stays far below the truncation tail
        while True:
            c = rng.uniform(0.1, 0.9)
            m = np.arange(1, M + 1, dtype=float)
            if np.min(lattice_distance(m * c, 1)) > 2e-3:
                return c

    def resid() -> float:
        F = lerch_star_twisted(s)
        zs = riemann_zeta(s).real
        pts = [(rng.uniform(0.1, 0.9), sample_c()) for _ in range(n_pts)]
        worst = 0.0
        for a, c in pts:
            fv = F.extend(a, c)
            # sum_{m>M} m^-sigma <= M^(1-sigma)/(sigma-1)
            bound = (M ** (1.0 - sigma) / (sigma - 1.0) * abs(fv)
                     + _dilation_noise(c, M, sigma))
            zsum = zeta_operator_partial(M, F, a, c)
            err = abs(zsum - zs * fv)
            worst = max(worst, err / bound)
        # ratio <= 1 means within the stated bound
        return max(0.0, worst - 1.0)

    yield ("zeta_operator:partial sums within tail bound",
           {"M": M, "s": s, "points": n_pts}, 0.0, resid)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def run_suite(config_path: str | Path | None = None,
              groups: Sequence[str] | None = None,
              json_path: str | Path | None = None,
              csv_path: str | Path | None = None,
              seed: int | None = None,
              deterministic_timing: bool = False) -> tuple[int, list[ReportRecord]]:
    """Run the selected check groups; returns (exit_code, records).

    Writes a JSON array of records and a CSV summary when paths are
    given; ``deterministic_timing`` zeroes every record's runtime_ms.
    Exit code 0 iff all records passed, 1 on any failure; config errors
    raise DomainError (mapped to exit 2 by the CLI).
    """
    cfg = load_config(config_path)
    if groups is not None:
        cfg["groups"] = list(groups)
    if seed is not None:
        cfg["seed"] = int(seed)
    unknown = [g for g in cfg["groups"] if g not in CHECK_GROUPS]
    if unknown:
        raise DomainError(f"unknown check groups: {unknown}")

    records: list[ReportRecord] = []
    for name in cfg["groups"]:
        # every group draws from its own identically-seeded stream, so
        # results do not depend on which groups are selected
        rng = np.random.default_rng(int(cfg["seed"]))
        records.extend(CHECK_GROUPS[name](cfg, rng))
    if deterministic_timing:
        for r in records:
            r.runtime_ms = 0
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps([r.to_dict() for r in records], indent=2) + "\n")
    if csv_path is not None:
        write_csv(records, csv_path)
    exit_code = 0 if all(r.passed for r in records) else 1
    return exit_code, records


def write_csv(records: Sequence[ReportRecord], path: str | Path):
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["identity", "params", "residual", "tolerance",
                         "passed", "runtime_ms"])
        for r in records:
            writer.writerow([
                r.identity,
                json.dumps(r.to_dict()["params"], sort_keys=True),
                f"{r.residual:.6e}",
                f"{r.tolerance:.6e}",
                str(r.passed).lower(),
                r.runtime_ms,
            ])
