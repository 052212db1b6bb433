import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from logjones import habiro, jones, loginv
from logjones.loginv import (
    CenterCoeffs,
    Route,
    alpha_beta,
    b_pm_via_derivative,
    basis_change,
    center_coeffs,
    gamma_all_routes,
    gamma_boundary,
    gamma_s,
)
from logjones.qcalc import LaurentPoly, RootContext, brace, brace_falling, ddq, qint
from conftest import (ExactJet, assert_close, assert_colors_at_xi, b_pm_via_habiro,
                      basis_change_inverse, exact_Vm, framed_corrections, kashaev_invariant,
                      knotted_words, unnormalized_VN_at_xi)


# -- oracles: the tilde brackets and falling braces at xi, one factor at a time


def tilde_brace(n: int, j: int, ctx: RootContext):
    """prod over k=0..j-1 of {n-k} at xi, with factors at multiples of N
    replaced by the sign (-1)^t where n-k = N t."""
    if j < 0:
        raise ValueError("j must be >= 0")
    with ctx.workprec():
        out = mp.mpc(1)
        for k in range(j):
            v = n - k
            if v % ctx.N == 0:
                if (v // ctx.N) % 2:
                    out = -out
            else:
                out *= ctx.brace_at(v)
        return out


def falling_brace_at(n: int, j: int, ctx: RootContext):
    """{n, j} at xi."""
    with ctx.workprec():
        out = mp.mpc(1)
        for k in range(j):
            out *= ctx.brace_at(n - k)
        return out


class TestTildeBrace:
    def test_empty(self, ctx3):
        assert_close(tilde_brace(5, 0, ctx3), 1, ctx3.tol)

    def test_single_multiple(self, ctx3):
        # n=3=N*1 contributes (-1)^1
        assert_close(tilde_brace(3, 1, ctx3), -1, ctx3.tol)

    def test_enumerated(self, ctx3):
        # k = 0,1,2 gives factors at 4, 3, 2; 3 = N so sign -1
        with ctx3.workprec():
            want = -(ctx3.brace_at(4) * ctx3.brace_at(2))
        assert_close(tilde_brace(4, 3, ctx3), want, ctx3.tol)

    def test_plain_window_matches_falling(self, ctx4):
        with ctx4.workprec():
            assert_close(tilde_brace(3, 3, ctx4), ctx4.eval_at(brace_falling(3, 3)), ctx4.tol)
            assert_close(falling_brace_at(3, 3, ctx4), ctx4.eval_at(brace_falling(3, 3)), ctx4.tol)


class TestRadicalCoefficients:
    def test_unknot_vanishes(self):
        for N in (2, 3, 4):
            ctx = RootContext(N)
            for s in range(1, N):
                for sign in (1, -1):
                    assert abs(b_pm_via_derivative("unknot", s, sign, ctx)) < ctx.tol
                assert abs(b_pm_via_habiro("unknot", s, ctx)) < ctx.tol

    def test_figure_eight_plus_equals_minus(self, ctx3):
        for s in (1, 2):
            bp = b_pm_via_derivative("4_1", s, +1, ctx3)
            bm = b_pm_via_derivative("4_1", s, -1, ctx3)
            assert_close(bp, bm, ctx3.tol)

    def test_trefoil_habiro_route_agrees(self, ctx3):
        bd = b_pm_via_derivative("3_1", 1, +1, ctx3)
        bh = b_pm_via_habiro("3_1", 1, ctx3)
        assert_close(bd, bh, ctx3.tol)

    def test_figure_eight_N4_all_s(self, ctx4):
        for s in (1, 2, 3):
            bd = b_pm_via_derivative("4_1", s, +1, ctx4)
            assert_close(bd, b_pm_via_habiro("4_1", s, ctx4), ctx4.tol)

    def test_N2_collapsed_sums(self):
        # at N=2 both Habiro sums are empty, so b vanishes; the derivative
        # route is the independent oracle confirming the collapse
        ctx = RootContext(2)
        bh = b_pm_via_habiro("4_1", 1, ctx)
        bd = b_pm_via_derivative("4_1", 1, +1, ctx)
        assert abs(bh) < ctx.tol
        assert abs(bd) < ctx.tol

    def test_two_codings_of_centervalue(self, ctx3):
        # the normalized cyclotomic ladder vs V_m/[m]_q divided exactly, with
        # V_m traced from the braid word
        N = 3
        for name in ("3_1", "4_1"):
            braid = jones.KNOT_CATALOG[name]
            traced = {}

            def vt(m):
                if m not in traced:
                    traced[m] = jones.colored_jones_zero_framed(braid, m) / qint(m)
                return traced[m]

            for s in (1, 2):
                for sign in (1, -1):
                    if sign > 0:
                        poly, pref_den = brace(1) * (vt(s) - vt(2 * N - s)), 2 * N
                    else:
                        poly, pref_den = brace(1) * (vt(2 * N + s) - vt(2 * N - s)), 4 * N
                    with ctx3.workprec():
                        want = ctx3.xi / (pref_den * ctx3.qint_at(s)) * ctx3.eval_at(ddq(poly))
                    assert_close(b_pm_via_derivative(name, s, sign, ctx3), want, ctx3.tol)

    def test_s_range_checked(self, ctx3):
        with pytest.raises(ValueError):
            b_pm_via_derivative("4_1", 3, +1, ctx3)

    def test_statement_prefactor_variant_disagrees(self, ctx3):
        # the proposition statement prints [s] where its proof's final
        # display has {s}; the [s] reading puts an extra {1} on the
        # cotangent sum and no longer matches the derivative route
        h = habiro.catalog_coeffs("4_1")
        N, s = 3, 1
        su = min(s, N - s)
        with ctx3.workprec():
            brs = ctx3.brace_at(s)
            variant = mp.mpc(0)
            for i in range(su):
                pref = falling_brace_at(s + i, 2 * i + 1, ctx3) / ctx3.qint_at(s) / brs
                cot = mp.fsum(ctx3.brace_plus(k) / ctx3.brace_at(k)
                              for k in range(s - i, s + i + 1) if k != s)
                variant += h.at_xi(ctx3)[i] * pref * cot
            variant *= ctx3.brace_at(1) ** 2
        true_b = b_pm_via_derivative(h, s, +1, ctx3)
        assert abs(variant - true_b) > mp.mpf("0.5")
        assert_close(b_pm_via_habiro(h, s, ctx3), true_b, ctx3.tol)


class TestGammaRoutes:
    def test_unknot_closed_form(self):
        # all routes reduce to {s}_+ = 2 cos(s pi / N)
        for N in (2, 3, 4):
            ctx = RootContext(N)
            for s in range(1, N):
                routes = gamma_all_routes("unknot", s, ctx)
                for route, val in routes.items():
                    assert_close(val, ctx.brace_plus(s), ctx.tol)

    def test_three_routes_smoke(self, ctx3):
        for name in ("3_1", "4_1"):
            for s in (1, 2):
                vals = list(gamma_all_routes(name, s, ctx3).values())
                for v in vals[1:]:
                    assert_close(vals[0], v, ctx3.tol)

    def test_framed_phase(self, ctx3):
        for f in (1, 2):
            for s in (1, 2):
                with ctx3.workprec():
                    want = ctx3.xi_pow((s * s - 1) * f, 2) * gamma_s("4_1", s, ctx3, Route.QDERIV)
                got = gamma_s("4_1", s, ctx3, Route.QDERIV, framing=f)
                assert_close(got, want, ctx3.tol)

    def test_s_range(self, ctx3):
        with pytest.raises(ValueError):
            gamma_s("4_1", 0, ctx3, Route.QDERIV)


class TestBoundaryGamma:
    def test_unknot(self):
        for N in (2, 3, 5):
            ctx = RootContext(N)
            assert_close(gamma_boundary("unknot", N, ctx), -1, ctx.tol)
            assert_close(gamma_boundary("unknot", 0, ctx), 1, ctx.tol)

    def test_figure_eight_kashaev_values(self):
        # independent oracle: sum_j prod_k (2 sin k pi/N)^2
        for N in (3, 4):
            ctx = RootContext(N)
            with ctx.workprec():
                oracle = mp.fsum(
                    mp.fprod((2 * mp.sinpi(mp.mpf(k) / N)) ** 2 for k in range(1, j + 1))
                    for j in range(N))
            assert_close(gamma_boundary("4_1", N, ctx), -oracle, ctx.tol)

    def test_kashaev_normalization_conventions(self, ctx3):
        # <L>_N is the normalized limit; the raw evaluation V_N(xi) is 0
        assert_close(kashaev_invariant("4_1", 3, ctx3), 13, ctx3.tol)
        assert_close(gamma_boundary("4_1", 3, ctx3), -kashaev_invariant("4_1", 3, ctx3), ctx3.tol)
        assert abs(unnormalized_VN_at_xi("4_1", 3, ctx3)) < ctx3.tol

    def test_which_guard(self, ctx3):
        with pytest.raises(ValueError):
            gamma_boundary("4_1", 2, ctx3)

    @pytest.mark.parametrize("name", ["3_1", "4_1"])
    def test_matches_lhopital_of_Vm(self, name):
        # the value of V_m/[m] at xi is the 0/0 limit of V_m over [m]
        h = habiro.catalog_coeffs(name)
        for N in range(2, 6):
            ctx = RootContext(N)
            g0 = ctx.lhopital_ratio(habiro.reconstruct_Vm(h, 2 * N), qint(2 * N))
            gN = -ctx.lhopital_ratio(habiro.reconstruct_Vm(h, N), qint(N))
            assert_close(gamma_boundary(h, 0, ctx), g0, ctx.tol)
            assert_close(gamma_boundary(h, N, ctx), gN, ctx.tol)
            assert_close(kashaev_invariant(h, N, ctx), -gN, ctx.tol)


class TestAlphaBeta:
    def test_beta_zero_at_framing_zero(self):
        for name in ("3_1", "4_1"):
            for N in (2, 3, 4):
                ctx = RootContext(N)
                _, beta = alpha_beta(name, ctx)
                assert all(abs(b) < ctx.tol for b in beta)

    def test_unknot_alpha(self, ctx3):
        alpha, _ = alpha_beta("unknot", ctx3)
        with ctx3.workprec():
            want = 3 * ctx3.brace_at(1)  # (-1)^{3+1} 3 {1} [1]
        assert_close(alpha[0], want, ctx3.tol)

    def test_alpha_unwinds_to_Vs(self, ctx3):
        alpha, _ = alpha_beta("4_1", ctx3)
        with ctx3.workprec():
            for s in (1, 2):
                lhs = alpha[s - 1] / ((-1) ** (3 + s) * 3 * ctx3.brace_at(1))
                assert_close(lhs, ctx3.eval_at(exact_Vm("4_1", s)), ctx3.tol)


class TestBasisChange:
    def test_zero_maps_to_zero(self, ctx3):
        alpha, beta, gamma = basis_change([0] * 4, [0] * 2, [0] * 2, ctx3)
        assert all(abs(x) < ctx3.tol for x in alpha + beta + gamma)

    def test_collapsed_weights(self, ctx4):
        # b+ = b- = b makes gamma = [s]^2 b + {s}_+ a_s
        rng = random.Random(1)
        idem = [mp.mpc(rng.random(), rng.random()) for _ in range(5)]
        rad = [mp.mpc(rng.random(), rng.random()) for _ in range(3)]
        alpha, beta, gamma = basis_change(idem, rad, list(rad), ctx4)
        with ctx4.workprec():
            for s in (1, 2, 3):
                want = ctx4.qint_at(s) ** 2 * rad[s - 1] + ctx4.brace_plus(s) * idem[s]
                assert_close(gamma[s], want, ctx4.tol)
                assert abs(beta[s - 1]) < ctx4.tol

    def test_roundtrip_random(self):
        rng = random.Random(9)
        for N in (2, 3, 5):
            ctx = RootContext(N)
            idem = [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(N + 1)]
            rp = [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(N - 1)]
            rm = [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(N - 1)]
            alpha, beta, gamma = basis_change(idem, rp, rm, ctx)
            idem2, rp2, rm2 = basis_change_inverse(alpha, beta, gamma, N, ctx)
            tol = mp.mpf(10) ** -45
            for a, b in zip(idem + rp + rm, idem2 + rp2 + rm2):
                assert_close(a, b, tol)

    def test_length_validation(self, ctx3):
        with pytest.raises(ValueError):
            basis_change([0] * 3, [0] * 2, [0] * 2, ctx3)


class TestFramedCorrections:
    def test_identity_at_zero(self, ctx3):
        base = center_coeffs("4_1", ctx3)
        same = framed_corrections(base, 0, ctx3)
        for a, b in zip(base.gamma, same.gamma):
            assert_close(a, b, ctx3.tol)

    def test_group_property(self, ctx3):
        base = center_coeffs("4_1", ctx3)
        up = framed_corrections(base, 1, ctx3)
        up0 = CenterCoeffs(3, up.knot, 0, up.idem, up.rad_plus, up.rad_minus,
                           up.alpha, up.beta, up.gamma)
        back = framed_corrections(up0, -1, ctx3)
        for a, b in zip(base.rad_plus + base.rad_minus + base.idem,
                        back.rad_plus + back.rad_minus + back.idem):
            assert_close(a, b, ctx3.tol)

    @pytest.mark.parametrize("f", [-1, 1, 2])
    def test_matches_direct_framed_evaluation(self, f, ctx3):
        # acceptance-grade consistency at N=3; the framed correction term
        # carries V_s(L^f) at xi, not the unframed value the source prints
        base = center_coeffs("4_1", ctx3)
        via = framed_corrections(base, f, ctx3)
        direct = center_coeffs("4_1", ctx3, framing=f)
        for name in ("idem", "rad_plus", "rad_minus", "alpha", "beta", "gamma"):
            for a, b in zip(getattr(via, name), getattr(direct, name)):
                assert_close(a, b, ctx3.tol)

    def test_beta_from_b_difference(self, ctx3):
        # [s]^2 (b+ - b-) of the framed knot equals beta_s(L^f); at s=1 the
        # phase is trivial and the display's -f N {1} V_s(L)/[s]^2 holds too
        f = 1
        rec = center_coeffs("4_1", ctx3, framing=f)
        with ctx3.workprec():
            for s in (1, 2):
                lhs = ctx3.qint_at(s) ** 2 * (rec.rad_plus[s - 1] - rec.rad_minus[s - 1])
                assert_close(lhs, rec.beta[s - 1], ctx3.tol)
            v1 = ctx3.eval_at(exact_Vm("4_1", 1))
            want = -f * 3 * ctx3.brace_at(1) * v1
            assert_close(rec.beta[0], want, ctx3.tol)

    def test_requires_zero_framed_base(self, ctx3):
        rec = center_coeffs("4_1", ctx3, framing=1)
        with pytest.raises(ValueError):
            framed_corrections(rec, 1, ctx3)

    def test_context_at_another_root_refused(self, ctx3, ctx4):
        # the record's N fixes xi; a context at another N is refused, not
        # used to phase and correct the record at the wrong root
        base = center_coeffs("4_1", ctx3)
        for f in (0, 1):
            with pytest.raises(ValueError):
                framed_corrections(base, f, ctx4)


def lhopital_of_products(num_factors, N, ctx):
    num = LaurentPoly.const(1)
    for f in num_factors:
        num = num * f
    return ctx.lhopital_ratio(num, brace(N))


class TestRelationIdentities:
    """The bracket-limit identities used in the closed-form derivations,
    each side coded independently (generic-q l'Hopital on the left, tilde
    products at xi on the right)."""

    def admissible(self, N):
        for s in range(1, N):
            su, sb = min(s, N - s), max(s, N - s)
            yield s, su, sb

    def test_relation1(self):
        for N in range(2, 7):
            ctx = RootContext(N)
            for s, su, sb in self.admissible(N):
                for i in range(su, s):
                    lhs = lhopital_of_products([brace_falling(s + i, i), brace_falling(s - 1, i)], N, ctx)
                    assert s > N / 2  # the range is empty otherwise
                    with ctx.workprec():
                        rhs = -tilde_brace(s + i, i, ctx) * falling_brace_at(s - 1, i, ctx)
                    assert_close(lhs, rhs, ctx.tol)

    def test_relation2(self):
        for N in range(2, 7):
            ctx = RootContext(N)
            for s, su, sb in self.admissible(N):
                for i in range(su, sb):
                    lhs = lhopital_of_products(
                        [brace_falling(2 * N - s + i, i), brace_falling(2 * N - s - 1, i)], N, ctx)
                    with ctx.workprec():
                        if s <= N / 2:
                            rhs = 2 * falling_brace_at(s + i, i, ctx) * tilde_brace(s - 1, i, ctx)
                        else:
                            rhs = tilde_brace(s + i, i, ctx) * falling_brace_at(s - 1, i, ctx)
                    assert_close(lhs, rhs, ctx.tol)

    def test_relation4_as_printed_fails(self):
        # the printed coefficients (2 for s <= N/2, 3 for s > N/2) carry the
        # wrong sign in both branches: the left side is their negative.
        # Surfaced as a finding, not patched; the negated form passes below.
        mismatch = 0
        total = 0
        for N in range(2, 7):
            ctx = RootContext(N)
            for s, su, sb in self.admissible(N):
                for i in range(su, sb):
                    lhs = lhopital_of_products(
                        [brace_falling(2 * N + s + i, i), brace_falling(2 * N + s - 1, i)], N, ctx)
                    with ctx.workprec():
                        if s <= N / 2:
                            printed = 2 * falling_brace_at(s + i, i, ctx) * tilde_brace(s - 1, i, ctx)
                        else:
                            printed = 3 * tilde_brace(s + i, i, ctx) * falling_brace_at(s - 1, i, ctx)
                    total += 1
                    if abs(lhs - printed) > ctx.tol:
                        mismatch += 1
                        assert_close(lhs, -printed, ctx.tol)
        assert total > 0
        assert mismatch == total, "the printed form unexpectedly held somewhere"

    def test_relation5(self):
        for N in range(2, 7):
            ctx = RootContext(N)
            for s, su, sb in self.admissible(N):
                for i in range(su):
                    lhs = ctx.lhopital_ratio(
                        brace_falling(2 * N + s + i, 2 * i + 1),
                        LaurentPoly.const(1))
                    with ctx.workprec():
                        lhs = lhs / ctx.brace_at(2 * N + s)
                        rhs = falling_brace_at(s + i, 2 * i + 1, ctx) / ctx.brace_at(s)
                    assert_close(lhs, rhs, ctx.tol)


class TestCenterCoeffs:
    def test_assembled_consistency(self, ctx3):
        rec = center_coeffs("4_1", ctx3)
        assert rec.N == 3 and rec.knot == "4_1" and rec.framing == 0
        # gamma through basis change equals the route values
        for s in (1, 2):
            assert_close(rec.gamma[s], gamma_s("4_1", s, ctx3, Route.QDERIV), ctx3.tol)
        assert_close(rec.gamma[0], gamma_boundary("4_1", 0, ctx3), ctx3.tol)
        assert_close(rec.gamma[3], gamma_boundary("4_1", 3, ctx3), ctx3.tol)

    @pytest.mark.parametrize("knot", ["3_1", "4_1"])
    @pytest.mark.parametrize("framing", [0, 2])
    def test_every_check_has_a_residual(self, knot, framing, ctx3):
        # the boundary d/dq forms, and at each interior s the route spread
        # and the basis-change alpha_s, beta_s and gamma_s; all pass
        rec = center_coeffs(knot, ctx3, framing=framing)
        want = {"gamma_0", "gamma_3"} | {f"{name}_{s}" for s in (1, 2)
                                         for name in ("gamma", "alpha", "beta")}
        assert set(rec.residuals) == want | {"gamma_1 routes", "gamma_2 routes"}
        assert rec.failed(ctx3.tol) == []
        assert rec.failed(mp.mpf(0)) == list(rec.residuals)

    def test_json_decimal_strings(self, ctx3):
        rec = center_coeffs("4_1", ctx3)
        data = rec.to_dict(60)
        assert data["N"] == 3 and data["framing"] == 0
        g3 = data["gamma"][3]
        assert isinstance(g3["re"], str) and isinstance(g3["im"], str)
        assert_close(mp.mpf(g3["re"]), -13, mp.mpf(10) ** -55)
        assert len(data["alpha"]) == 2 and len(data["gamma"]) == 4

    def test_braid_input(self):
        # a non-catalog presentation of the trefoil gives the same record
        ctx = RootContext(2)
        rec_braid = center_coeffs(jones.parse_braid("2: 1 1 1"), ctx)
        rec_cat = center_coeffs("3_1", ctx)
        for a, b in zip(rec_braid.gamma, rec_cat.gamma):
            assert_close(a, b, ctx.tol)


class TestColorReach:
    # loginv reads a_0..a_{N-1} and no higher coefficient, so a braid is
    # traced at colors 1..N

    @pytest.mark.parametrize("knot", ["4_1", "3_1"])
    @pytest.mark.parametrize("N", range(2, 7))
    def test_reads_no_coefficient_above_2N_minus_1(self, knot, N):
        closed = habiro.catalog_coeffs(knot)
        table = habiro.HabiroCoeffs.from_table(knot, [closed.rule(i) for i in range(2 * N)])
        ctx = RootContext(N)
        assert center_coeffs(table, ctx) == center_coeffs(closed, ctx)
        for s in range(1, N):
            assert gamma_all_routes(table, s, ctx) == gamma_all_routes(closed, s, ctx)
            assert b_pm_via_habiro(table, s, ctx) == b_pm_via_habiro(closed, s, ctx)

    @pytest.mark.parametrize("knot", ["4_1", "3_1"])
    @pytest.mark.parametrize("N", range(2, 9))
    def test_reads_no_coefficient_above_N_minus_1(self, knot, N):
        # the table a_0..a_{N-1} that colors 1..N give: the exact V_{2N} of
        # gamma_boundary's cross-check reads its first N rungs, and the sum
        # of ddm_Vm stops at a_{N-1}
        closed = habiro.catalog_coeffs(knot)
        table = habiro.HabiroCoeffs.from_table(knot, [closed.rule(i) for i in range(N)])
        ctx = RootContext(N)
        assert center_coeffs(table, ctx) == center_coeffs(closed, ctx)
        for s in range(1, N):
            assert gamma_all_routes(table, s, ctx) == gamma_all_routes(closed, s, ctx)
            assert b_pm_via_habiro(table, s, ctx) == b_pm_via_habiro(closed, s, ctx)

    @settings(max_examples=10, deadline=None)
    @given(knotted_words(), st.sampled_from((2, 3)))
    def test_jets_from_N_colors_match_the_full_ladder(self, b, N):
        # the values and color slopes of V_m/[m] that loginv reads off an
        # N-color extraction match the value and D-value differences at xi
        # of the exact V_m/[m] from 3N-1 colors, at every color m <= 3N-1,
        # V_{2N+s} of the minus-sign radical route among them, and at
        # framings -2 and 3
        h = habiro.coeffs_for(b, N)
        assert h.i_max == N - 1
        h_full = habiro.coeffs_for(b, 3 * N - 1)
        ctx = RootContext(N)
        want = {m: ExactJet.of(habiro.reconstruct_normalized_Vm(h_full, m), N)
                for m in range(1, 3 * N)}
        for f in (0, -2, 3):
            jets = {m: jet.shift((m * m - 1) * f) for m, jet in want.items()}
            assert_colors_at_xi(h, jets, ctx, f, (b, N, f))

    @settings(max_examples=10, deadline=None)
    @given(knotted_words(), st.sampled_from((2, 3)))
    def test_three_routes_agree_on_random_braids(self, b, N):
        # on braids outside the catalog, traced at colors 1..N: the checks of
        # center_coeffs pass, and QDERIV, HABIRO and MDERIV agree at every s
        h = habiro.coeffs_for(b, N)
        ctx = RootContext(N)
        assert center_coeffs(h, ctx).failed(ctx.tol) == [], (b, N)
        for s in range(1, N):
            vals = list(gamma_all_routes(h, s, ctx).values())
            assert max(abs(x - y) for x in vals for y in vals) < ctx.tol, (b, N, s)
