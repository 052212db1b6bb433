import inspect
import json
import random

import mpmath as mp
import pytest
from mpmath.libmp import (dps_to_prec, from_man_exp, mpf_acos, mpf_cos, mpf_log, pi_fixed,
                          round_nearest, to_fixed)

from logjones import habiro, jones, loginv, volume
from logjones.qcalc import RootContext
from logjones.volume import (
    asymptotic_scan,
    cone_volume,
    gamma_fig8_fast,
    scan_precision,
    vol_reference,
)
from conftest import (assert_close, asymptotic_scan_every_row, asymptotic_scan_mp, clausen_libmp,
                      cone_params, cone_t, cone_volume_derivative_reference, cone_volume_mp,
                      convergence_gaps, lobachevsky, lobachevsky_mp, lobachevsky_quadrature,
                      s_N_alpha, theta_libmp)

VOL_4_1 = mp.mpf("2.029883212819307250042405108549")


def polylog_lobachevsky(x, dps):
    """Im Li_2(e^{2ix})/2 after reducing x into [0, pi), the closed Clausen
    form the Lobachevsky function was first evaluated by (oracle)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        red = x - mp.pi * mp.floor(x / mp.pi)
        return mp.polylog(2, mp.expj(2 * red)).imag / 2


class TestLobachevsky:
    @pytest.mark.parametrize("dps", [30, 57, 110, 300])
    def test_series_matches_polylog_oracle(self, dps):
        with mp.workdps(dps):
            a = 2 * mp.pi / 150
            theta = cone_params(a, dps)
            xs = [mp.mpf(0), +mp.pi / 2, -mp.pi / 2, mp.pi - mp.mpf(10) ** -20,
                  mp.mpf("-0.4"), mp.mpf(-2), mp.mpf("-7.1"), mp.mpf(4), mp.mpf("10.5"),
                  (a + theta) / 2, (a - theta) / 2]
        for x in xs:
            assert abs(lobachevsky(x, dps) - polylog_lobachevsky(x, dps)) < mp.mpf(10) ** -dps, x

    def test_series_length_per_precision(self):
        # the Clausen coefficients d_k = c_k pi^{2k} stop at
        # d_k < 2^{-prec-10} and each falls by more than 4 from the one before
        with mp.workdps(57):
            prec = mp.mp.prec
        q, coeffs = volume._clausen_coeffs(prec)
        ds = coeffs[::-1]  # d_1, d_2, ...
        assert all(d >= 1 << (q - prec - 10) for d in ds)
        assert all(4 * b < a for a, b in zip(ds, ds[1:]))
        k = len(ds) + 1
        with mp.workdps(57):
            assert mp.zeta(2 * k) / (k * (2 * k + 1) * 4 ** k) < mp.ldexp(1, -prec - 10)

    @pytest.mark.parametrize("dps", [30, 110, 300])
    def test_coefficients_match_mpmath_zeta(self, dps):
        # the recurrence below the crossover and mp.zeta above it both give
        # each d_k within the stated 2 units 2^-q of zeta(2k)/(k (2k+1) 4^k)
        with mp.workdps(dps):
            prec = mp.mp.prec
        q, coeffs = volume._clausen_coeffs(prec)
        with mp.workprec(q + 30):
            for k, d in enumerate(reversed(coeffs), start=1):
                exact = mp.zeta(2 * k) / (k * (2 * k + 1) * mp.mpf(4) ** k)
                assert abs(mp.ldexp(d, -q) - exact) <= mp.ldexp(2, -q), k


    def test_zeros(self):
        assert abs(lobachevsky(0)) < 1e-25
        assert abs(lobachevsky(mp.pi / 2)) < 1e-25

    def test_known_volume_value(self):
        # 6 L(pi/3) is the figure-eight complement volume; the quadrature
        # of the defining integral is the independent oracle
        series = 6 * lobachevsky(mp.pi / 3)
        quad = 6 * lobachevsky_quadrature(mp.pi / 3)
        assert_close(series, quad, mp.mpf(10) ** -22)
        assert_close(series, VOL_4_1, mp.mpf(10) ** -25)

    def test_quadrature_agreement_generic_points(self):
        for x in (0.2, 0.7, 1.1, 2.9):
            assert_close(lobachevsky(x), lobachevsky_quadrature(x), mp.mpf(10) ** -20)

    def test_odd_and_periodic(self):
        for k in range(1, 24):
            x = mp.mpf(k) / 7
            assert abs(lobachevsky(-x) + lobachevsky(x)) < 1e-12
            assert abs(lobachevsky(x + mp.pi) - lobachevsky(x)) < 1e-12

    def test_maximum_at_pi_over_6(self):
        xs = [mp.pi * k / 600 for k in range(601)]
        vals = [lobachevsky(x) for x in xs]
        best = max(range(len(xs)), key=lambda i: vals[i])
        assert abs(xs[best] - mp.pi / 6) < mp.pi / 100

    def test_duplication_identity(self):
        # L(pi/6) = (3/2) L(pi/3)
        assert_close(lobachevsky(mp.pi / 6), mp.mpf(3) / 2 * lobachevsky(mp.pi / 3),
                     mp.mpf(10) ** -22)


class TestConeVolume:
    def test_params_branch(self):
        theta = cone_params(0)
        assert abs(theta - 5 * mp.pi / 3) < 1e-20  # 2 pi - pi/3
        assert mp.pi < theta < 2 * mp.pi
        assert abs(cone_t(0) - 1) < 1e-20
        theta2 = cone_params(mp.mpf("0.8"))
        assert abs(mp.cos(theta2) - (mp.cos(mp.mpf("0.8")) - mp.mpf(1) / 2)) < 1e-20

    def test_volume_at_zero(self):
        v = cone_volume(0)
        assert_close(v, VOL_4_1, mp.mpf(10) ** -5)
        assert_close(v, 4 * lobachevsky(mp.pi / 6), mp.mpf(10) ** -22)
        assert_close(v, 6 * lobachevsky(mp.pi / 3), mp.mpf(10) ** -22)

    def test_positive_and_decreasing(self):
        vals = [cone_volume(2 * mp.pi / 3 * k / 12) for k in range(12)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_arccosh(self):
        # Richardson-extrapolated central differences at 20 interior points
        for k in range(1, 21):
            a = 2 * mp.pi / 3 * k / 21
            h = mp.mpf(1) / 10 ** 6
            d1 = (cone_volume(a + h, 40) - cone_volume(a - h, 40)) / (2 * h)
            d2 = (cone_volume(a + h / 2, 40) - cone_volume(a - h / 2, 40)) / h
            fd = (4 * d2 - d1) / 3
            assert_close(fd, cone_volume_derivative_reference(a, 40), mp.mpf(10) ** -6)

    def test_flat_derivative_at_boundary(self):
        # t -> 1 as alpha -> 2pi/3, so the derivative flattens
        assert abs(cone_t(2 * mp.pi / 3 - mp.mpf(10) ** -8) - 1) < 1e-7
        assert abs(cone_volume_derivative_reference(2 * mp.pi / 3 - mp.mpf(10) ** -8)) < 1e-3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cone_volume(2 * mp.pi / 3)
        with pytest.raises(ValueError):
            cone_volume(-0.1)


class TestIntPipeline:
    # cone_volume runs on ints at the scale 2^q of the Clausen coefficients
    # and rounds once; the former mpf pipeline, which rounds at every step,
    # is the oracle cone_volume_mp, and the double a row keeps is the same

    @pytest.mark.parametrize("N, dps", [(97, 30), (150, 30), (400, 30), (800, 30), (1600, 30),
                                        (30, 1010)])
    def test_rows_are_the_double_of_the_mpf_oracle(self, N, dps):
        for s in range(1, N):
            if 3 * s >= N:
                break
            with mp.workdps(dps):
                alpha = 2 * mp.pi * s / N
            assert float(cone_volume(alpha, dps)) == float(cone_volume_mp(alpha, dps)), s

    @pytest.mark.parametrize("dps", [30, 57, 110])
    def test_lobachevsky_matches_the_mpf_oracle(self, dps):
        with mp.workdps(dps + 20):
            xs = [mp.mpf(k) / 7 for k in range(-10, 11)]
            # near the multiples of pi/2, zeros of L, where t = 2x wraps
            xs += [j * mp.pi / 2 + sign * mp.mpf(10) ** -e
                   for j in range(-4, 5) for sign in (1, -1) for e in (10, dps - 5)]
            # a large |x|, whose reduction needs guard bits
            xs += [mp.mpf(10) ** 6, -mp.mpf(10) ** 6, mp.mpf("999999.5"),
                   10 ** 6 * mp.pi + mp.mpf(10) ** -10]
        for x in xs:
            assert abs(lobachevsky(x, dps) - lobachevsky_mp(x, dps)) < mp.mpf(10) ** -dps, x

    def test_kernel_without_the_reduction_fails_the_oracle(self, monkeypatch):
        # negative control: a + theta and a - theta lie outside [-pi, pi],
        # where u = (t/pi)^2 > 1 and the series no longer converges to
        # Cl_2(t); the kernel with its reduction of t taken out misses the
        # oracle on every row of N = 150
        src = inspect.getsource(volume._clausen)
        reduction = "    t -= (t + pi) // (2 * pi) * (2 * pi)\n"
        assert src.count(reduction) == 1
        namespace = dict(vars(volume))
        exec(src.replace(reduction, ""), namespace)
        monkeypatch.setattr(volume, "_clausen", namespace["_clausen"])
        N = 150
        for s in range(1, N):
            if 3 * s >= N:
                break
            with mp.workdps(30):
                alpha = 2 * mp.pi * s / N
            assert float(cone_volume(alpha)) != float(cone_volume_mp(alpha)), s


def _units(got, want, w):
    """|got - want| in units 2^-w, for an int got and a raw mpf want."""
    with mp.workprec(w + 100):
        return abs(mp.mpf(got) - mp.ldexp(mp.make_mpf(want), w))


def _cos_points(w):
    one = 1 << w
    rng = random.Random(w)
    return ([0, 1, -1, one, -one, one >> 1, one >> 7, (209 * one) // 100, -(209 * one) // 100,
             (21 * one) // 10, one // 3 + 1]
            + [rng.randrange(-(21 * one) // 10, (21 * one) // 10) for _ in range(24)])


def _acos_points(w):
    one = 1 << w
    rng = random.Random(w + 1)
    # near 1 and -1 (angles near 0 and pi), 0, powers of two, near +-1/2
    return ([one, -one, one - 1, -one + 1, one - (one >> 40), -one + (one >> 40), 0, 1, -1,
             one >> 3, -(one >> 3), one >> 1, -(one >> 1), (one >> 1) + 1, (one >> 1) - 1,
             -(one >> 1) + 1, -(one >> 1) - 1]
            + [rng.randrange(-one, one + 1) for _ in range(24)])


def _log_points(w):
    one = 1 << w
    rng = random.Random(w + 2)
    # powers of two, near 1, 1 unit, up to pi, and a long mantissa with
    # large exponents either way
    return ([(one, -w), (1, -w), (one >> 5, -w), (one << 1, -w), (one + 1, -w), (one - 1, -w),
             (3, 0), (pi_fixed(w), -w), (pi_fixed(w) - 1, -w), (12345, 900),
             ((1 << 3000) - 1, -5000), (7, -3 * w)]
            + [(rng.randrange(1, 4 * one), -w) for _ in range(24)])


def _worst_acos(w):
    return max(_units(volume._acos(c, w), mpf_acos(from_man_exp(c, -w), w + 80, round_nearest), w)
               for c in _acos_points(w))


class TestIntElementary:
    # _cos, _acos and _log on ints at the scale 2^w, w = q + 10 of the
    # Clausen coefficients at 30, 300 and 1010 digits, are each within
    # the 1 unit 2^-w their docstrings state of mpmath's mpf_cos,
    # mpf_acos and mpf_log, taken 80 bits finer

    WIDTHS = [dps_to_prec(dps) + 30 for dps in (30, 300, 1010)]

    @pytest.mark.parametrize("w", WIDTHS)
    def test_cos(self, w):
        for x in _cos_points(w):
            want = mpf_cos(from_man_exp(x, -w), w + 80, round_nearest)
            assert _units(volume._cos(x, w), want, w) <= 1, x

    @pytest.mark.parametrize("w", WIDTHS)
    def test_acos(self, w):
        assert _worst_acos(w) <= 1
        assert volume._acos(1 << w, w) == 0
        assert abs(volume._acos(0, w) - pi_fixed(w - 1)) <= 1
        assert abs(volume._acos(-1 << w, w) - pi_fixed(w)) <= 1

    @pytest.mark.parametrize("w", WIDTHS)
    def test_log(self, w):
        for x, e in _log_points(w):
            want = mpf_log(from_man_exp(x, e), w + 80 + x.bit_length(), round_nearest)
            assert _units(volume._log(x, e, w), want, w) <= 1, (x, e)
        assert volume._log(1 << w, -w, w) == 0

    def test_acos_without_the_halving_fails(self, monkeypatch):
        # negative control: without the halving steps t = tan(theta/2) is
        # up to 1, where the series' terms do not fall fast enough and the
        # factor 2^{r+1} is wrong; the check above must fail
        src = inspect.getsource(volume._acos)
        halving = ("    for _ in range(r):\n"
                   "        t = (t << W) // (one + math.isqrt(one * one + t * t))\n")
        assert src.count(halving) == 1
        namespace = dict(vars(volume))
        exec(src.replace(halving, ""), namespace)
        monkeypatch.setattr(volume, "_acos", namespace["_acos"])
        for w in self.WIDTHS:
            assert _worst_acos(w) > 1, w

    @pytest.mark.parametrize("dps", [30, 300, 1010])
    def test_theta_and_clausen_against_the_libmp_bodies(self, dps):
        # the former bodies, with mpmath's cos, acos and log at q + 10 bits
        # and a truncation to q, give theta and Cl_2 within 2 units 2^-q
        q, coeffs = volume._clausen_coeffs(dps_to_prec(dps))
        pi = pi_fixed(q)
        for N in (7, 150, 1600):
            for s in (1, N // 6, (N - 1) // 3):
                with mp.workdps(dps):
                    a = (2 * mp.pi * s / N)._mpf_
                theta = volume._theta(a, q, pi)
                assert abs(theta - theta_libmp(a, q, pi)) <= 2, (N, s)
                a_int = to_fixed(a, q)
                for t in (a_int - theta, a_int + theta, 1, -(1 << (q - 3))):
                    got = volume._clausen(t, q, pi, coeffs)
                    assert abs(got - clausen_libmp(t, q, pi, coeffs)) <= 2, (N, s, t)


class TestMpOracle:
    # the scan against one taken from mpmath alone: the former sin_cot
    # table, mp.log for the rows and the mpf cone volumes

    @pytest.mark.parametrize("N", list(range(2, 41)) + [97, 150, 400])
    def test_json_equals_the_mpmath_scan(self, N):
        assert asymptotic_scan(N).to_json() == asymptotic_scan_mp(N)


class TestFastKernel:
    def test_matches_habiro_route_small_N(self):
        for N in range(2, 7):
            ctx = RootContext(N)
            for s in range(1, N):
                gf = gamma_fig8_fast(N, s, ctx)
                gh = loginv.gamma_s("4_1", s, ctx, loginv.Route.HABIRO)
                assert_close(gf, gh, mp.mpf(10) ** -30)

    @pytest.mark.parametrize("N", [20, 50])
    def test_matches_generic_machinery_numeric(self, N):
        # the color-derivative route (ddm_Vm, a running Leibniz pair over
        # the window products) shares no code with gamma_fig8_fast, whose
        # kernel the HABIRO route runs
        ctx = RootContext(N, precision_digits=60)
        h = loginv.habiro.catalog_coeffs("4_1")
        for s in (1, N // 3, N // 2, N - 1):
            if not 1 <= s <= N - 1:
                continue
            gf = gamma_fig8_fast(N, s, ctx)
            gh = loginv.gamma_s(h, s, ctx, loginv.Route.MDERIV)
            assert_close(gf, gh, mp.mpf(10) ** -20)

    def test_even_N_midpoint_vanishes(self):
        # cotangent windows centered at N/2 cancel pairwise and the tilde
        # range is empty, so gamma_{N/2} = 0 for even N
        for N in (4, 6, 10):
            ctx = RootContext(N)
            assert abs(gamma_fig8_fast(N, N // 2, ctx)) < ctx.tol

    def test_context_at_another_root_refused(self):
        # the value would be the context's: gamma_1 is -5 at N = 3 and
        # -15.556349 at N = 4
        with pytest.raises(ValueError):
            gamma_fig8_fast(4, 1, RootContext(3))

    def test_real_valued(self):
        ctx = RootContext(7)
        for s in range(1, 7):
            g = gamma_fig8_fast(7, s, ctx)
            assert abs(g.imag) < ctx.tol


def naive_gamma_fig8(N, s, ctx):
    """The O(N) fig-8 kernel with every sine and cotangent taken from
    mp.sinpi/mp.cospi, the reference for the table-driven kernel."""
    su, sb = min(s, N - s), max(s, N - s)
    with ctx.workprec():
        def sn(k):
            return 2 * mp.sinpi(mp.mpf(k) / N)

        def ct(k):
            return mp.cospi(mp.mpf(k) / N) / mp.sinpi(mp.mpf(k) / N)

        total = mp.mpf(0)
        prod = mp.mpf(1)
        cots = mp.mpf(0)
        for i in range(su):
            if i == 0:
                prod = sn(s)
                cots = ct(s)
            else:
                prod *= sn(s + i) * sn(s - i)
                cots += ct(s + i) + ct(s - i)
            total += (-1) ** i * prod * cots
        tp = mp.mpf(1)
        sign = 1
        for k in range(s - su, s + su + 1):
            if k % N == 0:
                sign = -sign if (k // N) % 2 else sign
            else:
                tp *= sn(k)
        for i in range(su, sb):
            if i > su:
                for k in (s + i, s - i):
                    if k % N == 0:
                        sign = -sign if (k // N) % 2 else sign
                    else:
                        tp *= sn(k)
            total += 2 * (-1) ** i * sign * tp
        return mp.mpc(total)


class TestTableKernel:
    @pytest.mark.parametrize("N", [7, 12, 50])
    def test_matches_naive_kernel(self, N):
        ctx = RootContext(N, precision_digits=scan_precision(N))
        for s in range(1, N):
            assert_close(gamma_fig8_fast(N, s, ctx), naive_gamma_fig8(N, s, ctx), ctx.tol)

    @pytest.mark.parametrize("N", [7, 12, 50, 150])
    def test_scan_rows_match_naive_kernel(self, N, monkeypatch):
        fast = asymptotic_scan(N).to_json()
        monkeypatch.setattr(volume, "gamma_fig8_fast", naive_gamma_fig8)
        assert asymptotic_scan(N).to_json() == fast


class TestScan:
    def test_s_N_alpha(self):
        assert s_N_alpha(200, 0) == 0
        assert s_N_alpha(200, mp.pi / 3) == 33
        assert s_N_alpha(10, 2 * mp.pi) == 10  # clamped
        vals = [s_N_alpha(200, 2 * mp.pi * k / 40) for k in range(41)]
        assert vals == sorted(vals)
        # exact multiples of 2 pi / N, with alpha rounded to a double
        with mp.workdps(15):
            assert s_N_alpha(100, mp.pi / 5) == 10
            assert s_N_alpha(400, 2 * mp.pi * 0.05) == 20
            assert [s_N_alpha(200, 2 * mp.pi * k / 40) for k in range(5, 41, 5)] == \
                list(range(25, 201, 25))

    def test_rows_and_regions(self):
        res = asymptotic_scan(30)
        N = 30
        assert [r.s for r in res.rows] == list(range(1, N))
        for r in res.rows:
            # regions follow the exact rational rule on s/N
            if 3 * r.s < N:
                assert r.region == "volume"
                ref = cone_volume(2 * mp.pi * r.s / N)
            elif 3 * r.s <= 2 * N:
                assert r.region == "conjectural-flat"
                ref = mp.mpf(0)
            else:
                assert r.region == "volume-mirror"
                ref = cone_volume(2 * mp.pi * (N - r.s) / N)
            assert abs(r.vol_reference - float(ref)) < 1e-12
        labels = {r.region for r in res.rows}
        assert labels == {"volume", "conjectural-flat", "volume-mirror"}

    def test_vol_reference_helper(self):
        # alpha = 2 pi s/N; the regions split at the exact s/N = 1/3 and 2/3
        v, lab = vol_reference(1, 12)
        assert lab == "volume" and abs(v - cone_volume(mp.pi / 6)) < 1e-20
        v, lab = vol_reference(6, 12)
        assert lab == "conjectural-flat" and v == 0
        v, lab = vol_reference(11, 12)
        assert lab == "volume-mirror" and abs(v - cone_volume(mp.pi / 6)) < 1e-20
        assert [vol_reference(s, 12)[1] for s in (3, 4, 8, 9)] == [
            "volume", "conjectural-flat", "conjectural-flat", "volume-mirror"]

    @pytest.mark.parametrize("N", [12, 97])
    def test_mirror_rows_reuse_the_value_not_the_label(self, N):
        for s in range(1, N):
            if 3 * s >= N:
                continue
            v, lab = vol_reference(s, N)
            mv, mlab = vol_reference(N - s, N)
            assert (lab, mlab) == ("volume", "volume-mirror")
            assert mv == v
            with mp.workdps(30):
                assert v == cone_volume(2 * mp.pi * s / N, 30)

    def test_scan_computes_each_volume_once(self, monkeypatch):
        N = 40
        calls = []

        def counting(alpha, dps=30):
            calls.append(dps)
            return cone_volume(alpha, dps)

        volume._row_volume.cache_clear()
        monkeypatch.setattr(volume, "cone_volume", counting)
        res = asymptotic_scan(N)
        volume._row_volume.cache_clear()
        assert len(calls) == sum(1 for r in res.rows if r.region == "volume") == 13
        # at the 30 digits of vol_reference, as a row keeps a double
        assert set(calls) == {30}

    def test_scan_reads_only_the_root_table_entry_it_needs(self, monkeypatch):
        # the a_i = 1 of 4_1 are int constants, which at_xi takes without
        # evaluating, and sin_cot rotates its own root, so the scan reads
        # no entry of half_powers; a fresh catalog entry keeps a memoized
        # a_i(xi) from hiding a read
        monkeypatch.setattr(habiro, "_CATALOG_CACHE", {})
        ctx = RootContext(150, precision_digits=scan_precision(150))
        asymptotic_scan(150, ctx)
        assert set(ctx.half_powers) == set()

    def test_each_distinct_double_is_formatted_once(self, monkeypatch):
        res = asymptotic_scan(40)
        want_json, want_csv = res.to_json(), res.to_csv()
        calls = []
        nstr = mp.nstr

        def counting(x, n):
            calls.append(x)
            return nstr(x, n)

        monkeypatch.setattr(mp, "nstr", counting)
        assert res.to_json() == want_json and res.to_csv() == want_csv
        doubles = {x for r in res.rows for x in (r.alpha, r.log_gamma_scaled, r.vol_reference)
                   if x != float("-inf")}
        # mirror rows share their log and their reference
        assert len(doubles) < 3 * len(res.rows)
        assert len(calls) == 2 * len(doubles)

    @pytest.mark.parametrize("N, digits", [(12, None), (97, None), (150, None), (400, None),
                                           (30, 1000)])
    def test_reference_at_30_digits_is_the_same_double(self, N, digits):
        # the rows keep vol_reference as a double, computed at the 30
        # digits of vol_reference; it is the double of the value at ctx.dps
        ctx = RootContext(N, precision_digits=digits or scan_precision(N))
        for r in asymptotic_scan(N, ctx).rows:
            assert r.vol_reference == float(vol_reference(r.s, N, ctx.dps)[0]), r.s

    def test_library_scan_bounded(self):
        # asymptotic_scan applies check_scan to its own context too
        for N, digits in ((volume.MAX_SCAN_N + 1, 275), (420, 4000)):
            with pytest.raises(jones.FeasibilityError):
                asymptotic_scan(N, RootContext(N, precision_digits=digits))

    def test_context_at_another_root_refused(self):
        # rows s = 1, 2 of N = 3 would be read at the N = 4 root
        with pytest.raises(ValueError):
            asymptotic_scan(3, RootContext(4))

    def test_zero_rows_flagged(self):
        res = asymptotic_scan(4)
        mid = res.rows[1]  # s = 2 = N/2
        assert mid.zero_flag and mid.log_gamma_scaled == float("-inf")

    def test_csv_and_json(self):
        res = asymptotic_scan(12)
        csv = res.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "N,s,alpha,log_gamma_scaled,vol_reference,region_label"
        assert len(lines) == 12
        data = json.loads(res.to_json())
        assert data["N"] == 12 and len(data["rows"]) == 11

    def test_deterministic(self):
        a = asymptotic_scan(15).to_csv()
        b = asymptotic_scan(15).to_csv()
        assert a == b

    def test_scan_precision_scales(self):
        assert scan_precision(10) == 36 or scan_precision(10) == 33 + 3  # small N floor
        assert scan_precision(400) >= 90

    def test_convergence_direction_small(self):
        gaps = convergence_gaps(mp.pi / 5, Ns=(50, 100, 200))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_plateau_shape_moderate_N(self):
        res = asymptotic_scan(120)
        for r in res.rows:
            if r.zero_flag:
                continue
            if r.region == "conjectural-flat":
                assert abs(r.log_gamma_scaled) < 0.5
            else:
                assert abs(r.log_gamma_scaled - r.vol_reference) < 0.5


class TestRowMargin:
    def test_scan_recomputes_short_rows(self, monkeypatch):
        # at 30 digits some N = 300 rows keep too few digits by the kernel's
        # own count; tilde_sum computes those again, finer, and every row
        # prints as at the scan's own precision
        N = 300
        oracle = asymptotic_scan(N).to_json()
        kernel = habiro.tilde_sum
        finer = []

        def spy(h, s, ctx):
            if ctx.precision_digits > 30:
                finer.append(ctx)
            return kernel(h, s, ctx)

        monkeypatch.setattr(volume, "scan_precision", lambda N: 30)
        monkeypatch.setattr(habiro, "tilde_sum", spy)
        assert asymptotic_scan(N).to_json() == oracle
        assert finer
        # the recomputed rows share one context (one sin_cot table) per
        # precision they step up to
        assert len({id(c) for c in finer}) == len({c.precision_digits for c in finer})

    def test_recomputed_rows_keep_the_guard_digits(self):
        # the trefoil's a_i(xi) carry the working digits only, so at 30
        # digits and N = 300 a row would keep none; recomputed, every
        # nonzero G keeps more than the 10 guard digits
        N = 300
        h = habiro.catalog_coeffs("3_1")
        ctx = RootContext(N, precision_digits=30)
        ref = RootContext(N, precision_digits=scan_precision(N) + 20)
        for s in range(1, N):
            g, want = habiro.tilde_sum(h, s, ctx), habiro.tilde_sum(h, s, ref)
            if abs(want) >= ctx.tol:
                with ref.workprec():
                    assert abs(g - want) < mp.mpf(10) ** -RootContext._GUARD * abs(want), s


class TestMirrorRows:
    # gamma_{N-s} = -gamma_s, so the scan runs the kernel on s <= N/2 and
    # row N - s reads the value of row s; it must print what the scan that
    # ran every row printed

    @pytest.mark.parametrize("N", list(range(2, 61)) + [97, 150])
    def test_json_equals_every_row_scan(self, N):
        assert asymptotic_scan(N).to_json() == asymptotic_scan_every_row(N).to_json()

    def test_csv_equals_every_row_scan(self):
        assert asymptotic_scan(97).to_csv() == asymptotic_scan_every_row(97).to_csv()

    def test_recomputed_rows_equal_every_row_scan(self, monkeypatch):
        # at 30 digits some N = 300 rows are computed again, finer
        monkeypatch.setattr(volume, "scan_precision", lambda N: 30)
        assert asymptotic_scan(300).to_json() == asymptotic_scan_every_row(300).to_json()

    @pytest.mark.parametrize("N", [150, 151])
    def test_kernel_runs_on_half_the_rows(self, N, monkeypatch):
        calls = []

        def counting(N, s, ctx):
            calls.append(s)
            return gamma_fig8_fast(N, s, ctx)

        monkeypatch.setattr(volume, "gamma_fig8_fast", counting)
        asymptotic_scan(N)
        assert calls == list(range(1, N // 2 + 1))


class TestQderivBacking:
    # QDERIV is the route that shares no kernel with tilde_sum; at the
    # criterion-09 row of N = 400 and its mirror it must agree with the
    # scan's value to the scan's own digits

    def test_criterion_09_row_and_its_mirror(self):
        N, s = 400, 20
        ctx = RootContext(N, precision_digits=scan_precision(N))
        g = habiro.tilde_sum(habiro.catalog_coeffs("4_1"), s, ctx)
        for row, sign in ((s, 1), (N - s, -1)):
            q = loginv.gamma_s("4_1", row, ctx, loginv.Route.QDERIV)
            with ctx.workprec():
                # measured: 8.1e-109 relative, against |gamma_20| = 7.5e57;
                # sign * g rounds, so it is taken here and not at 90 digits
                want = sign * g
                assert abs(q - want) < mp.mpf(10) ** -ctx.precision_digits * abs(want), row

    @pytest.mark.parametrize("knot", ["3_1", "4_1"])
    def test_mirror_identity_by_qderiv(self, knot):
        # gamma_{N-s} = -gamma_s holds for the invariant, not only the kernel
        for N in range(3, 13):
            ctx = RootContext(N)
            g = [None] + [loginv.gamma_s(knot, s, ctx, loginv.Route.QDERIV) for s in range(1, N)]
            for s in range(1, N):
                assert_close(g[N - s], -g[s], ctx.tol)


class TestAmbientPrecision:
    # library results must not depend on mp.mp.dps, which the suite pins at
    # 90: each case runs first at 15 ambient digits, with fresh memos, and
    # must equal the run at 90

    def test_tilde_sum(self):
        rule = habiro.catalog_coeffs("3_1").rule
        runs = []
        for dps in (15, 90):
            with mp.workdps(dps):
                h, ctx = habiro.HabiroCoeffs("3_1", rule), RootContext(40)
                runs.append([habiro.tilde_sum(h, s, ctx) for s in range(1, 40)])
        assert runs[0] == runs[1]

    def test_lobachevsky(self):
        xs = [mp.mpf(k) / 7 for k in range(-10, 11)]
        runs = []
        for dps in (15, 90):
            volume._clausen_coeffs.cache_clear()
            with mp.workdps(dps):
                runs.append([lobachevsky(x, 57) for x in xs])
        assert runs[0] == runs[1]

    def test_scan(self):
        runs = []
        for dps in (15, 90):
            volume._row_volume.cache_clear()
            with mp.workdps(dps):
                runs.append(asymptotic_scan(50).to_json())
        assert runs[0] == runs[1]
