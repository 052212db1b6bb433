"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9's first quantitative bound is implemented exactly as stated
and is expected to fail: the measured finite-size gap of the scaled log
invariant at N=400 is 0.1475 and shrinks like 2 pi log(N)/N (0.0819 at
N=800, 0.0450 at N=1600), so the stated 0.1 cannot be met at N=400.  The
README and the build's decision ledger carry the full analysis; the
remaining sub-checks of that criterion live in their own passing test.
"""

import time

import mpmath as mp

from logjones import habiro, jones, loginv, qgroup, volume
from logjones.qcalc import RootContext, qbinom, qint
from conftest import (cone_volume_derivative_reference, convergence_gaps, eta_block_data,
                      exact_normalized_Vm, framed_corrections, lobachevsky, lobachevsky_quadrature)

KNOTS = ("unknot", "3_1", "4_1")
GRID_N = (2, 3, 4, 5)
TOL30 = mp.mpf(10) ** -30
TOL25 = mp.mpf(10) ** -25
TOL40 = mp.mpf(10) ** -40


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_three_route_gamma():
    t0 = time.time()
    worst = mp.mpf(0)
    for knot in KNOTS:
        for N in GRID_N:
            ctx = RootContext(N)
            h = habiro.catalog_coeffs(knot)
            with ctx.workprec():
                for s in range(1, N):
                    routes = loginv.gamma_all_routes(h, s, ctx)
                    vals = list(routes.values())
                    worst = max(worst, max(abs(a - b) for a in vals for b in vals))
    elapsed = time.time() - t0
    ok = worst < TOL30 and elapsed < 300
    report(1, ok, f"three-route gamma agreement, max delta {mp.nstr(worst, 3)} "
                  f"over {KNOTS} x N in {GRID_N}, {elapsed:.1f}s")


def test_criterion_02_b_plus_equals_b_minus():
    worst = mp.mpf(0)
    for knot in KNOTS:
        for N in GRID_N:
            ctx = RootContext(N)
            h = habiro.catalog_coeffs(knot)
            with ctx.workprec():
                for s in range(1, N):
                    bp = loginv.b_pm_via_derivative(h, s, +1, ctx)
                    bm = loginv.b_pm_via_derivative(h, s, -1, ctx)
                    worst = max(worst, abs(bp - bm))
    ok = worst < TOL30
    report(2, ok, f"b+ = b- at framing 0, max delta {mp.nstr(worst, 3)}")


def test_criterion_03_beta_and_framed_corrections():
    worst_beta = mp.mpf(0)
    worst_framed = mp.mpf(0)
    for knot in ("3_1", "4_1"):
        for N in (2, 3, 4):
            ctx = RootContext(N)
            base = loginv.center_coeffs(knot, ctx)
            with ctx.workprec():
                worst_beta = max(worst_beta, max(abs(b) for b in base.beta))
                for f in (-1, 1, 2):
                    via = framed_corrections(base, f, ctx)
                    direct = loginv.center_coeffs(knot, ctx, framing=f)
                    for name in ("idem", "rad_plus", "rad_minus", "alpha", "beta", "gamma"):
                        for a, b in zip(getattr(via, name), getattr(direct, name)):
                            worst_framed = max(worst_framed, abs(a - b))
    ok = worst_beta < TOL30 and worst_framed < TOL30
    report(3, ok, f"beta = 0 at framing 0 (max {mp.nstr(worst_beta, 3)}); framed "
                  f"corrections vs direct framed derivatives, f in -1,1,2, N <= 4 "
                  f"(max {mp.nstr(worst_framed, 3)})")


def test_criterion_04_habiro_extraction():
    t0 = time.time()
    values = [jones.colored_jones_zero_framed(jones.KNOT_CATALOG["4_1"], m)
              for m in range(1, 7)]
    h = habiro.extract_coeffs(values, knot="4_1")
    all_ones = all(h.coeff(i) == 1 for i in range(6))
    roundtrip = all(habiro.reconstruct_Vm(h, m) == values[m - 1] for m in range(1, 7))
    elapsed = time.time() - t0
    ok = all_ones and roundtrip and elapsed < 120
    report(4, ok, f"a_i(4_1) = 1 for i <= 5 from braid traces, exact round trip, "
                  f"{elapsed:.1f}s")


def test_criterion_05_kashaev_endpoints():
    ctx3 = RootContext(3)
    g33 = loginv.gamma_boundary("4_1", 3, ctx3)
    d33 = abs(g33 + 13)
    ctx4 = RootContext(4)
    with ctx4.workprec():
        oracle = mp.fsum(
            mp.fprod((2 * mp.sinpi(mp.mpf(k) / 4)) ** 2 for k in range(1, j + 1))
            for j in range(4))
        g44 = loginv.gamma_boundary("4_1", 4, ctx4)
        d44 = abs(g44 + oracle)
    ok = d33 < TOL25 and d44 < TOL25
    report(5, ok, f"gamma_3^(3)(4_1) = -13 (delta {mp.nstr(d33, 3)}); gamma_4^(4) = "
                  f"-{mp.nstr(oracle, 4)} (delta {mp.nstr(d44, 3)})")


def test_criterion_06_representation_verification():
    t0 = time.time()
    worst = mp.mpf(0)
    for N in (2, 3, 4):
        ctx = RootContext(N)
        for s in range(1, N + 1):
            for kind in ("U+", "U-", "V+", "V-"):
                worst = max(worst, qgroup.relations_residual(
                    qgroup.build_restricted(kind, s, ctx), ctx))
        for s in range(1, N):
            for kind in ("P+", "P-", "Y+", "Y-"):
                worst = max(worst, qgroup.relations_residual(
                    qgroup.build_restricted(kind, s, ctx), ctx))
            worst = max(worst, qgroup.verify_y1_invariance(s, ctx))
        reps = {f"W{m}": jones.build_Wm(m) for m in range(1, 2 * N + 1)}
        for m in range(1, N):
            reps[f"Y{m}+"] = qgroup.build_modified(1, m, N)[0]
            reps[f"Y{m}-"] = qgroup.build_modified(-1, m, N)[0]
        for n1 in sorted(reps):
            for n2 in sorted(reps):
                res = qgroup.rmatrix_specialization_check(reps[n1], reps[n2], ctx)
                assert res < ctx.tol, (N, n1, n2, res)
                worst = max(worst, res)
    for N in (2, 3, 4, 5, 6):
        ctx = RootContext(N)
        for m in range(1, N):
            worst = max(worst, qgroup.verify_iso_f(m, ctx))
            worst = max(worst, qgroup.verify_iso_g(m, ctx))
            worst = max(worst, qgroup.verify_iso_h(m, ctx))
    elapsed = time.time() - t0
    ok = worst < TOL40 and elapsed < 600
    report(6, ok, f"relations, f/g/h (N <= 6), Y1 invariance, R specialization over "
                  f"all module pairs (N <= 4); worst residual {mp.nstr(worst, 3)}, "
                  f"{elapsed:.1f}s")


def test_criterion_07_partial_trace_blocks():
    N, m = 3, 1
    ctx = RootContext(N)
    b31 = jones.KNOT_CATALOG["3_1"]
    w = b31.writhe
    h = habiro.catalog_coeffs("3_1")
    worst_shape = mp.mpf(0)
    worst_x0 = mp.mpf(0)
    worst_b = mp.mpf(0)
    for sign in (1, -1):
        data = eta_block_data(b31, m, sign, N, ctx)
        worst_shape = max(worst_shape, data["alpha_scatter"], data["beta_scatter"],
                          data["off_block_residual"])
        x0 = qgroup.x0_from_eta(b31, m, sign, ctx)
        if sign > 0:
            num = qbinom(N - 1, m - 1) * (
                exact_normalized_Vm(h, 2 * N - m, framing=w)
                - exact_normalized_Vm(h, m, framing=w))
            den = qint(N)
        else:
            num = qbinom(2 * N - 1, m) * (
                exact_normalized_Vm(h, 2 * N + m, framing=w)
                - exact_normalized_Vm(h, 2 * N - m, framing=w))
            den = qint(2 * N)
        with ctx.workprec():
            worst_x0 = max(worst_x0, abs(x0 - ctx.lhopital_ratio(num, den)))
            got_b = qgroup.x0_to_b(x0, m, sign, ctx)
            want_b = loginv.b_pm_via_derivative(h, m, sign, ctx, framing=w)
            worst_b = max(worst_b, abs(got_b - want_b))
    ok = worst_shape < ctx.tol and worst_x0 < TOL25 and worst_b < TOL25
    report(7, ok, f"eta block form for 3_1 at N=3, m=1; x0 vs displayed formulas "
                  f"(delta {mp.nstr(worst_x0, 3)}); x0_to_b vs radical route "
                  f"(delta {mp.nstr(worst_b, 3)})")


def test_criterion_08_volume_numerics():
    worst_sym = mp.mpf(0)
    for k in range(1, 24):
        x = mp.mpf(k) / 7
        worst_sym = max(worst_sym,
                        abs(lobachevsky(-x) + lobachevsky(x)),
                        abs(lobachevsky(x + mp.pi) - lobachevsky(x)))
    v0 = volume.cone_volume(0)
    oracle = 6 * lobachevsky_quadrature(mp.pi / 3)
    d0 = abs(v0 - oracle)
    d_lit = abs(v0 - mp.mpf("2.029883"))
    worst_d = mp.mpf(0)
    for k in range(1, 21):
        a = 2 * mp.pi / 3 * k / 21
        hstep = mp.mpf(1) / 10 ** 6
        d1 = (volume.cone_volume(a + hstep, 40) - volume.cone_volume(a - hstep, 40)) / (2 * hstep)
        d2 = (volume.cone_volume(a + hstep / 2, 40) - volume.cone_volume(a - hstep / 2, 40)) / hstep
        fd = (4 * d2 - d1) / 3
        worst_d = max(worst_d, abs(fd - cone_volume_derivative_reference(a, 40)))
    ok = (worst_sym < mp.mpf(10) ** -12 and d0 < mp.mpf(10) ** -5
          and d_lit < mp.mpf(10) ** -5 and worst_d < mp.mpf(10) ** -6)
    report(8, ok, f"Lobachevsky odd/pi-periodic to {mp.nstr(worst_sym, 3)}; "
                  f"cone_volume(0) = 2.029883 +- {mp.nstr(d0, 3)} vs 6L(pi/3) oracle; "
                  f"dVol/da vs -arccosh(t) to {mp.nstr(worst_d, 3)} at 20 points")


def test_criterion_09_scan_shape_and_plateau():
    t0 = time.time()
    res = volume.asymptotic_scan(400)
    elapsed = time.time() - t0
    # s = N/2: gamma_200 is an exact zero (flagged row); the plateau claim
    # is checked on the nearest nonzero rows
    mid = res.rows[200 - 1]
    near = [res.rows[199 - 1], res.rows[201 - 1]]
    plateau_ok = mid.zero_flag and all(abs(r.log_gamma_scaled) < 0.15 for r in near)
    # coarse figure shape: flat middle third, volume curve on the outer thirds
    flat = [abs(r.log_gamma_scaled) for r in res.rows
            if r.region == "conjectural-flat" and not r.zero_flag]
    outer = [abs(r.log_gamma_scaled - r.vol_reference) for r in res.rows
             if r.region != "conjectural-flat"]
    shape_ok = max(flat) < 0.25 and max(outer) < 0.25
    ok = elapsed < 60 and plateau_ok and shape_ok
    report(9, ok, f"N=400 scan in {elapsed:.1f}s; s=200 row is the exact zero "
                  f"gamma_{{N/2}} = 0 (flagged), neighbors at "
                  f"{near[0].log_gamma_scaled:.4f}; plateau max {max(flat):.4f}, "
                  f"outer max gap {max(outer):.4f}")


def test_criterion_09_alpha_005_within_01():
    """Implemented exactly as stated; fails by measurement.

    The scaled log invariant at s = 0.05 N, N = 400 sits 0.1475 above
    Vol(M_alpha) and the gap decays like 2 pi log(N)/N (0.0819 at N=800,
    0.0450 at N=1600), so the stated 0.1 bound is unattainable at N=400.
    The value itself is pinned by the three-route agreement at small N and
    the kernel cross-checks up to N=50; the bound is kept as stated
    rather than loosened.
    """
    N = 400
    s = N // 20  # floor(0.05 N)
    ctx = RootContext(N, precision_digits=volume.scan_precision(N))
    with ctx.workprec():
        g = volume.gamma_fig8_fast(N, s, ctx)
        val = 2 * mp.pi / N * mp.log(abs(g))
        ref = volume.cone_volume(2 * mp.pi * s / N, ctx.dps)
        gap = abs(val - ref)
    ok = gap < mp.mpf("0.1")
    report(9, ok, f"alpha = 2 pi 0.05: |scaled log gamma - Vol(M_alpha)| = "
                  f"{mp.nstr(gap, 5)} (stated bound 0.1; gap decays like 2pi*log(N)/N, "
                  f"see README)")


def test_criterion_10_convergence_trend():
    gaps = convergence_gaps(mp.pi / 5, Ns=(100, 200, 400))
    ok = gaps[0] > gaps[1] > gaps[2]
    report(10, ok, f"gap to Vol(M_pi/5) over N = 100, 200, 400: "
                   f"{gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}")
