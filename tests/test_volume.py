import json

import mpmath as mp
import pytest

from logjones import habiro, loginv, volume
from logjones.qcalc import RootContext
from logjones.volume import (
    asymptotic_scan,
    cone_params,
    cone_volume,
    cone_volume_derivative_reference,
    convergence_gaps,
    gamma_fig8_fast,
    lobachevsky,
    lobachevsky_quadrature,
    s_N_alpha,
    scan_precision,
    vol_reference,
)
from conftest import assert_close

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
            p = cone_params(2 * mp.pi / 150, dps)
            xs = [mp.mpf(0), +mp.pi / 2, -mp.pi / 2, mp.pi - mp.mpf(10) ** -20,
                  mp.mpf("-0.4"), mp.mpf(-2), mp.mpf("-7.1"), mp.mpf(4), mp.mpf("10.5"),
                  (p.alpha + p.theta) / 2, (p.alpha - p.theta) / 2]
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
        p = cone_params(0)
        assert abs(p.theta - 5 * mp.pi / 3) < 1e-20  # 2 pi - pi/3
        assert mp.pi < p.theta < 2 * mp.pi
        assert abs(p.t - 1) < 1e-20
        p2 = cone_params(mp.mpf("0.8"))
        assert abs(mp.cos(p2.theta) - (mp.cos(mp.mpf("0.8")) - mp.mpf(1) / 2)) < 1e-20

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
        p = cone_params(2 * mp.pi / 3 - mp.mpf(10) ** -8)
        assert abs(p.t - 1) < 1e-7
        assert abs(cone_volume_derivative_reference(2 * mp.pi / 3 - mp.mpf(10) ** -8)) < 1e-3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cone_volume(2 * mp.pi / 3)
        with pytest.raises(ValueError):
            cone_volume(-0.1)


class TestFastKernel:
    def test_matches_habiro_route_small_N(self):
        for N in range(2, 7):
            ctx = RootContext(N)
            for s in range(1, N):
                gf = gamma_fig8_fast(N, s, ctx)
                gh = loginv.gamma_s("4_1", s, N, loginv.Route.HABIRO, ctx)
                assert_close(gf, gh, mp.mpf(10) ** -30)

    @pytest.mark.parametrize("N", [20, 50])
    def test_matches_generic_machinery_numeric(self, N):
        # the color-derivative route (ddm_Vm) is the independent slow oracle;
        # the HABIRO route runs the same kernel as gamma_fig8_fast
        ctx = RootContext(N, precision_digits=60)
        h = loginv.habiro.catalog_coeffs("4_1")
        for s in (1, N // 3, N // 2, N - 1):
            if not 1 <= s <= N - 1:
                continue
            gf = gamma_fig8_fast(N, s, ctx)
            gh = loginv.gamma_s(h, s, N, loginv.Route.MDERIV, ctx)
            assert_close(gf, gh, mp.mpf(10) ** -20)

    def test_even_N_midpoint_vanishes(self):
        # cotangent windows centered at N/2 cancel pairwise and the tilde
        # range is empty, so gamma_{N/2} = 0 for even N
        for N in (4, 6, 10):
            ctx = RootContext(N)
            assert abs(gamma_fig8_fast(N, N // 2, ctx)) < ctx.tol

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
            calls.append(alpha)
            return cone_volume(alpha, dps)

        volume._row_volume.cache_clear()
        monkeypatch.setattr(volume, "cone_volume", counting)
        res = asymptotic_scan(N)
        volume._row_volume.cache_clear()
        assert len(calls) == sum(1 for r in res.rows if r.region == "volume") == 13

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
            g, want = habiro.tilde_sum(h, s, ctx)[0], habiro.tilde_sum(h, s, ref)[0]
            if abs(want) >= ctx.tol:
                with ref.workprec():
                    assert abs(g - want) < mp.mpf(10) ** -RootContext._GUARD * abs(want), s


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
