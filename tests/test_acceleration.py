"""The blocked Levin kernel against the term-by-term sweep it replaced.

``levin_oracle`` is the per-order recursion, one term and one table row
per numpy call.  The blocked kernel does the same arithmetic on every
element, so values, error estimates, orders and failure payloads must
match it bit for bit, at every batch width and block size, with one
tolerance for the batch or one per point.
"""

import math

import numpy as np
import pytest

from lerchlab import acceleration, lerch_core
from lerchlab.acceleration import levin_sum
from lerchlab.errors import AccelerationFailureError

_SAFETY = 8.0
_TINY = 1e-300
HEAD = 8


def levin_oracle(term_fn, shape, tol, max_order=80, beta=1.0, min_order=6):
    """Levin u-transform, term by term; ``term_fn(n)`` gives term n.

    ``tol`` is a scalar or per-point tolerances broadcasting to ``shape``;
    the sum stops once every point's estimate is at or below its own.
    """
    tols = np.broadcast_to(np.asarray(tol, dtype=float), shape)
    num = np.zeros((max_order,) + shape, dtype=np.complex128)
    den = np.zeros((max_order,) + shape, dtype=np.complex128)
    partial = np.zeros(shape, dtype=np.complex128)

    best = np.zeros(shape, dtype=np.complex128)
    err = np.full(shape, np.inf)
    prev1 = None
    prev2 = None

    for n in range(max_order):
        t_n = np.asarray(term_fn(n), dtype=np.complex128)
        partial = partial + t_n
        omega = (beta + n) * t_n
        omega = np.where(np.abs(omega) < _TINY, _TINY, omega)
        num[n] = partial / omega
        den[n] = 1.0 / omega
        for k in range(1, n + 1):
            j = n - k
            if k == 1:
                factor = 1.0
            else:
                base = (beta + j + k - 1.0) / (beta + j + k)
                factor = (beta + j) / (beta + j + k) * base ** (k - 2)
            num[j] = num[j + 1] - factor * num[j]
            den[j] = den[j + 1] - factor * den[j]
        if n < 2:
            continue
        d0 = np.where(np.abs(den[0]) < _TINY, _TINY, den[0])
        val = num[0] / d0
        if prev1 is not None and prev2 is not None:
            step = np.maximum(np.abs(val - prev1), np.abs(prev1 - prev2))
            est = _SAFETY * step + 1e-16 * np.abs(val)
            improved = est < err
            best = np.where(improved, val, best)
            err = np.where(improved, est, err)
            if n >= min_order and np.all(err <= tols):
                return best, err, n + 1
        prev2 = prev1
        prev1 = val

    lo, hi = tols.min(), tols.max()
    bound = f"{lo:g}" if lo == hi else f"per-point tolerances {lo:g} to {hi:g}"
    raise AccelerationFailureError(
        f"Levin transform did not stabilize below {bound} within "
        f"{max_order} terms (worst estimate {err.max():g})",
        value=best,
        error_estimate=err,
    )


def lerch_tail(s, a, c):
    """Term n of sum_{n>=HEAD} e^(2 pi i n a)(n+c)^(-s), one n at a time."""
    def term(n):
        idx = HEAD + n
        ph = np.exp(2j * math.pi * np.mod(idx * a, 1.0))
        return ph * (idx + c) ** (-s)
    return term


def lerch_tail_block(s, a, c):
    """The same terms for an index array, one (len(idx), points) block."""
    def terms(idx):
        n = HEAD + idx[:, None]
        phase = np.exp(2j * math.pi * np.mod(n * a, 1.0))
        return phase * (n + c) ** (-s)
    return terms


def outcome(fn):
    """(value, error, orders) of a run, or its failure message and payload."""
    try:
        return "ok", fn()
    except AccelerationFailureError as exc:
        return "raised", (str(exc), exc.value, exc.error_estimate)


def assert_bit_identical(got, want):
    assert got[0] == want[0]
    for x, y in zip(got[1], want[1]):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y


def run_both(s, a, c, shape, tol=1e-12, max_order=90):
    """Outcome of the blocked kernel, checked against the oracle's."""
    def blocked():
        res = levin_sum(lerch_tail_block(s, a, c), shape, tol,
                        max_order=max_order)
        return res.value, res.error, res.orders
    got = outcome(blocked)
    want = outcome(lambda: levin_oracle(lerch_tail(s, a, c), shape, tol,
                                        max_order=max_order))
    assert_bit_identical(got, want)
    return got


def random_batch(seed, width):
    """s in the strip with |Im s| <= 60, a in the band Levin gets at m = 1."""
    rng = np.random.default_rng(seed)
    s = complex(rng.uniform(-0.5, 1.5), rng.uniform(-60.0, 60.0))
    a = rng.uniform(0.36, 0.64, width)
    c = rng.uniform(0.05, 1.0, width)
    return s, a, c


# block sizes 24, 24, 24, 24, 23, 8, 1, 1, 1 (85, 86 and 256 sit at the
# cap's transitions); the seeds give converging and failing batches
WIDTHS = (1, 3, 64, 85, 86, 256, 2047, 2048, 4096)


class TestMatchesOracle:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_batch(self, width, seed):
        s, a, c = random_batch(1000 * width + seed, width)
        run_both(s, a, c, (width,))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_failure_payload(self, width):
        # at Im s = 60, a below 0.35 does not stabilize within 90 terms
        rng = np.random.default_rng(width)
        a = rng.uniform(0.05, 0.35, width)
        c = rng.uniform(0.05, 1.0, width)
        assert run_both(0.5 + 60j, a, c, (width,))[0] == "raised"

    def test_orders_past_first_table_rows(self):
        kind, (_, _, orders) = run_both(0.5 + 60j, np.array([0.5]),
                                        np.array([0.4]), (1,))
        assert kind == "ok" and orders > 32

    def test_multidimensional_points(self):
        rng = np.random.default_rng(7)
        s = 0.8 + 4j
        a = rng.uniform(0.3, 0.7, (2, 3))
        c = rng.uniform(0.05, 1.0, (2, 3))

        def terms(idx):
            n = HEAD + idx[:, None, None]
            phase = np.exp(2j * math.pi * np.mod(n * a, 1.0))
            return phase * (n + c) ** (-s)

        res = levin_sum(terms, (2, 3), 1e-12, max_order=90)
        want = levin_oracle(lerch_tail(s, a, c), (2, 3), 1e-12, max_order=90)
        assert_bit_identical(("ok", (res.value, res.error, res.orders)),
                             ("ok", want))


class TestBlockSize:
    @pytest.mark.parametrize("s, a_lo, a_hi, kind",
                             [(0.7 + 4j, 0.36, 0.64, "ok"),
                              (0.5 + 60j, 0.05, 0.35, "raised")])
    def test_results_do_not_depend_on_it(self, monkeypatch, s, a_lo, a_hi,
                                         kind):
        # one converging and one failing batch (Im s = 60, a below 0.35);
        # blocks of 40 and 80 terms pass the table's first rows, and 80
        # passes twice their number, on the first block
        assert 2 * acceleration._FIRST_ROWS < 80
        rng = np.random.default_rng(40)
        a = rng.uniform(a_lo, a_hi, 5)
        c = rng.uniform(0.05, 1.0, 5)

        def run():
            res = levin_sum(lerch_tail_block(s, a, c), (5,), 1e-12,
                            max_order=90)
            return res.value, res.error, res.orders

        outcomes = []
        for block in (1, 8, 24, 40, 80):
            monkeypatch.setattr(acceleration, "_BLOCK_TERMS", block)
            outcomes.append(outcome(run))
        assert outcomes[0][0] == kind
        for got in outcomes[1:]:
            assert_bit_identical(got, outcomes[0])


def random_tols(seed, shape):
    """Per-point tolerances spread over 1e-13 .. 1e-8."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-13.0, -8.0, shape)


def run_pair(term_fn, shape, tol, max_order=90):
    """Outcomes of the blocked kernel and the oracle, which must agree."""
    def blocked():
        res = levin_sum(term_fn, shape, tol, max_order=max_order)
        return res.value, res.error, res.orders
    got = outcome(blocked)
    want = outcome(lambda: levin_oracle(lambda n: term_fn(np.array([n]))[0],
                                        shape, tol, max_order=max_order))
    assert_bit_identical(got, want)
    return got


class TestPerPointTolerance:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_batch(self, width, seed):
        s, a, c = random_batch(7000 * width + seed, width)
        run_pair(lerch_tail_block(s, a, c), (width,),
                 random_tols(seed, (width,)))

    @pytest.mark.parametrize("width", (1, 3, 64, 2048))
    def test_failure_payload(self, width):
        rng = np.random.default_rng(width)
        a = rng.uniform(0.05, 0.35, width)
        c = rng.uniform(0.05, 1.0, width)
        kind, (message, _, _) = run_pair(lerch_tail_block(0.5 + 60j, a, c),
                                         (width,), random_tols(width, (width,)))
        assert kind == "raised"
        assert ("per-point tolerances" in message) == (width > 1)

    def test_broadcast_tolerance(self):
        # one tolerance per column of a (2, 3) batch
        rng = np.random.default_rng(11)
        s = 0.6 - 9j
        a = rng.uniform(0.36, 0.64, (2, 3))
        c = rng.uniform(0.05, 1.0, (2, 3))

        def terms(idx):
            n = HEAD + idx[:, None, None]
            phase = np.exp(2j * math.pi * np.mod(n * a, 1.0))
            return phase * (n + c) ** (-s)

        kind, (_, err, _) = run_pair(terms, (2, 3),
                                     np.array([1e-13, 1e-10, 1e-8]))
        assert kind == "ok"
        assert np.all(err <= np.array([1e-13, 1e-10, 1e-8]))

    def test_constant_array_matches_scalar(self):
        s, a, c = random_batch(5, 64)
        terms = lerch_tail_block(s, a, c)
        scalar = levin_sum(terms, (64,), 1e-12, max_order=90)
        array = levin_sum(terms, (64,), np.full(64, 1e-12), max_order=90)
        assert scalar.orders == array.orders
        assert scalar.value.tobytes() == array.value.tobytes()
        assert scalar.error.tobytes() == array.error.tobytes()

    @pytest.mark.parametrize("s, a0", [(0.7 + 5j, 0.5), (0.3 - 12j, 0.4),
                                       (1.2 + 25j, 0.6), (0.5 + 60j, 0.2)])
    def test_merged_batch_stops_at_latest_point(self, s, a0):
        # a point's estimates depend only on its own terms and never grow,
        # so a batch stops at the largest of its points' stopping orders
        # and fails exactly when one of its points fails on its own (the
        # point a0 = 0.2 at Im s = 60 does)
        rng = np.random.default_rng(int(abs(s.imag)))
        a = np.append(a0, rng.uniform(0.36, 0.64, 5))
        c = rng.uniform(0.05, 1.0, 6)
        tols = random_tols(int(abs(s.imag)), (6,))
        alone = [outcome(lambda i=i: levin_sum(
            lerch_tail_block(s, a[i:i + 1], c[i:i + 1]), (1,), tols[i],
            max_order=90)) for i in range(6)]
        merged = outcome(lambda: levin_sum(lerch_tail_block(s, a, c), (6,),
                                           tols, max_order=90))
        any_raised = any(kind == "raised" for kind, _ in alone)
        assert (merged[0] == "raised") == any_raised
        assert any_raised == (a0 == 0.2)
        if not any_raised:
            orders = [res.orders for _, res in alone]
            assert len(set(orders)) > 1
            assert merged[1].orders == max(orders)
            assert np.all(merged[1].error <= tols)

    def test_rejects_unbroadcastable_tolerance(self):
        s, a, c = random_batch(3, 4)
        with pytest.raises(ValueError):
            levin_sum(lerch_tail_block(s, a, c), (4,), np.full(3, 1e-12))


class TestPhiLevin:
    @pytest.mark.parametrize("width", (1, 64, 4096))
    def test_head_and_tail_unchanged(self, width):
        # from 2048 points up numpy reuses temporaries of the 8-term head in
        # place, which would change the head's bits without a named phase
        rng = np.random.default_rng(width)
        s = complex(0.7, rng.uniform(-6.0, 6.0))
        a = rng.uniform(0.36, 0.64, width)
        c = rng.uniform(0.05, 1.0, width)
        # the terms as lerch_core forms them, with (n + c)^(-s) taken as
        # exp(log(n + c) (-s))
        def term(n):
            phase = np.exp(2j * math.pi * np.mod(n * a, 1.0))
            return phase * np.exp(np.log(n + c) * (-s))

        n_head = np.arange(HEAD)[:, None]
        head_sum = np.sum(term(n_head), axis=0)
        best, err, _ = levin_oracle(lambda n: term(HEAD + n), a.shape, 1e-12,
                                    max_order=90)
        want_v = head_sum + best
        want_e = err + 1e-16 * np.abs(head_sum)
        got_v, got_e = lerch_core._phi_levin(s, a, c, 1e-12, max_order=90)
        assert got_v.tobytes() == want_v.tobytes()
        assert got_e.tobytes() == want_e.tobytes()


class TestKnownSums:
    def test_alternating_harmonic_is_log_2(self):
        res = levin_sum(lambda n: (-1.0) ** n / (n + 1.0), (), 1e-13)
        assert res.value.shape == ()
        true_err = abs(res.value - math.log(2.0))
        assert true_err <= res.error and true_err < 1e-14
        want = levin_oracle(lambda n: (-1.0) ** n / (n + 1.0), (), 1e-13)
        assert_bit_identical(("ok", (res.value, res.error, res.orders)),
                             ("ok", want))

    def test_log_series_on_unit_circle(self):
        # sum z^n/(n+1) = -log(1-z)/z for |z| = 1, z != 1; within about 1
        # of arg z = 0 the sum needs decimation first (lerch_core does that)
        theta = np.array([1.0, math.pi / 2, 2.0, math.pi, 4.0, 5.0])
        z = np.exp(1j * theta)

        def terms(n):
            n = n[:, None]
            return z ** n / (n + 1.0)

        res = levin_sum(terms, z.shape, 1e-12, max_order=90)
        true_err = np.abs(res.value - (-np.log(1.0 - z) / z))
        assert np.all(true_err <= res.error)
        assert np.all(true_err < 1e-12)
