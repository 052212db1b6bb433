import mpmath as mp
import pytest

from logjones import habiro, jones, loginv
from logjones.habiro import (
    HabiroCoeffs,
    TruncationError,
    catalog_coeffs,
    coeffs_for,
    ddm_Vm,
    extract_coeffs,
    normalized_Vm_jet,
    reconstruct_normalized_Vm,
    reconstruct_Vm,
)
from logjones.jones import KNOT_CATALOG, colored_jones_zero_framed
from logjones.qcalc import (InexactDivisionError, Jet, LaurentPoly, RootContext, brace,
                            brace_falling, qint)
from logjones.volume import scan_precision
from conftest import assert_close, colored_jones_numeric, horner


# -- oracles: the expansion one falling brace per term, as first coded


def direct_Vm(h, m):
    """sum_{i<m} a_i {m+i, 2i+1}/{1}, each term built from its own brace."""
    out = LaurentPoly()
    for i in range(m):
        out = out + h.coeff(i) * (brace_falling(m + i, 2 * i + 1) / brace(1))
    return out


def direct_extract(values):
    """a_0..a_{M-1} by forward substitution on the falling braces."""
    one = brace(1)
    coeffs = []
    for m, vm in enumerate(values, start=1):
        acc = vm
        for i in range(m - 1):
            acc = acc - coeffs[i] * (brace_falling(m + i, 2 * i + 1) / one)
        coeffs.append(acc / (brace_falling(2 * m - 1, 2 * m - 1) / one))
    return coeffs


def half_powers_tilde_terms(s, ctx):
    """The terms of G and S in habiro.tilde_sum before the a_i, with each
    sine and cotangent read from one root of half_powers at a time, as the
    kernel first did: xi^k = half_powers[2k], 2 sin(pi k/N) is twice its
    imaginary part and cot(pi k/N) its real over its imaginary part."""
    N = ctx.N
    su, sb = min(s, N - s), max(s, N - s)
    roots = ctx.half_powers
    period = 4 * N
    with ctx.workprec():
        prods = []
        terms = []
        for i in range(su):
            x = roots[2 * (s + i) % period]
            if i == 0:
                prod = 2 * x.imag
                cots = x.real / x.imag
            else:
                y = roots[2 * (s - i) % period]
                prod *= 2 * x.imag * (2 * y.imag)
                cots += x.real / x.imag + y.real / y.imag
            signed = -prod if i & 1 else prod
            prods.append(signed)
            terms.append(signed * cots)
        tp = mp.mpf(1)
        sign = 1
        for k in range(s - su, s + su + 1):
            if k % N == 0:
                sign = -sign if (k // N) % 2 else sign
            else:
                tp *= 2 * roots[2 * k % period].imag
        for i in range(su, sb):
            if i > su:
                for k in (s + i, s - i):
                    if k % N == 0:
                        sign = -sign if (k // N) % 2 else sign
                    else:
                        tp *= 2 * roots[2 * k % period].imag
            terms.append(2 * (-1) ** i * sign * tp)
    return terms, prods


def half_powers_tilde_sum(a, s, ctx):
    """(G, S) of habiro.tilde_sum from the half_powers terms (oracle)."""
    terms, prods = half_powers_tilde_terms(s, ctx)
    with ctx.workprec():
        return mp.fdot(zip(a, terms)), mp.fdot(zip(a, prods))


def envelope_ratio(knot, N, precision_digits):
    """The worst |fixed - ref| / max(|mpf - ref|, 10^-dps max_i |a_i t_i|)
    over G and S of every s: fixed is habiro.tilde_sum, mpf the former
    kernel (half_powers_tilde_sum at the same precision) and ref the same
    oracle 40 digits finer, a_i included."""
    ctx = RootContext(N, precision_digits=precision_digits)
    fine = RootContext(N, precision_digits=precision_digits + 40)
    h = catalog_coeffs(knot)
    a, a_fine = h.at_xi(N - 1, ctx), h.at_xi(N - 1, fine)
    worst = mp.mpf(0)
    for s in range(1, N):
        got = habiro.tilde_sum(h, s, ctx)
        old = None
        with fine.workprec():
            for part, ts in enumerate(half_powers_tilde_terms(s, fine)):
                ref = mp.fdot(zip(a_fine, ts))
                err = abs(got[part] - ref)
                floor = mp.mpf(10) ** -ctx.dps * max(abs(ai * t) for ai, t in zip(a_fine, ts))
                if err <= floor:
                    continue
                # the former kernel only where the floor alone does not cover
                old = old or half_powers_tilde_sum(a, s, ctx)
                worst = max(worst, err / max(abs(old[part] - ref), floor))
    return worst


class TestTildeSum:
    # the fixed-point kernel rounds where the former mpf kernel did not, so
    # it is held to an envelope instead of equality: at most one digit worse
    # than that kernel on any row, or than 10^-dps of the largest a_i term

    @pytest.mark.parametrize("knot", ["unknot", "3_1", "4_1"])
    def test_envelope_small_N(self, knot):
        for N in range(2, 25):
            assert envelope_ratio(knot, N, 60) <= 10, N

    @pytest.mark.parametrize("knot, N",
                             [("unknot", 150), ("3_1", 150), ("4_1", 150), ("4_1", 400)])
    def test_envelope_scan_precision(self, knot, N):
        assert envelope_ratio(knot, N, scan_precision(N)) <= 10

    def test_fixed_coefficients(self):
        # Gaussian-integer a_i(xi) stay at the scale 1; the first other one
        # moves the whole memoized list to the scale 2^P of the table
        ctx = RootContext(7)
        P = ctx.sin_cot[-1]
        h = HabiroCoeffs("4_1", catalog_coeffs("4_1").rule)
        assert h.fixed_at_xi(6, ctx) == ([1] * 6, [0] * 6, 0)
        h = HabiroCoeffs("3_1", catalog_coeffs("3_1").rule)
        assert h.fixed_at_xi(1, ctx) == ([1], [0], 0)
        re, im, scale = h.fixed_at_xi(6, ctx)
        assert scale == P and re[0] == 1 << P and im[0] == 0
        assert h.fixed_at_xi(3, ctx)[0] is re and len(re) == 6
        with ctx.workprec():
            for v, x, y in zip(h.at_xi(6, ctx), re, im):
                assert abs(mp.mpc(v) - mp.mpc(mp.ldexp(x, -P), mp.ldexp(y, -P))) <= mp.ldexp(2, -P)

    @pytest.mark.parametrize("N", [100, 150])
    def test_scan_precision_margin(self, N):
        # the digits the figure-eight G sum loses to cancellation,
        # log10(max |a_i term_i| / |G|), leave the guard digits intact on
        # every row the scan does not flag as zero (worst rows: s = 47 loses
        # 13.3 of 60 digits at N = 100, s = 79 loses 20.8 of 67 at N = 150)
        ctx = RootContext(N, precision_digits=scan_precision(N))
        a = catalog_coeffs("4_1").at_xi(N - 1, ctx)
        with ctx.workprec():
            for s in range(1, N):
                terms, _ = half_powers_tilde_terms(s, ctx)
                g = mp.fdot(zip(a, terms))
                if abs(g) < ctx.tol:
                    continue
                loss = mp.log10(max(abs(ai * t) for ai, t in zip(a, terms)) / abs(g))
                assert loss + RootContext._GUARD < ctx.dps, (s, loss)


class TestExtraction:
    def test_a0_is_one_for_any_knot(self):
        for name in ("unknot", "3_1", "4_1"):
            vals = [colored_jones_zero_framed(KNOT_CATALOG[name], m) for m in (1, 2, 3)]
            h = extract_coeffs(vals, knot=name)
            assert h.coeff(0) == LaurentPoly.const(1)

    def test_figure_eight_all_ones(self):
        vals = [colored_jones_zero_framed(KNOT_CATALOG["4_1"], m) for m in range(1, 7)]
        h = extract_coeffs(vals, knot="4_1")
        assert all(h.coeff(i) == LaurentPoly.const(1) for i in range(6))

    def test_trefoil_monomials(self):
        # nontrivial single-term coefficients; checked against the catalog
        # closed form and against an independent braid trace one color up
        vals = [colored_jones_zero_framed(KNOT_CATALOG["3_1"], m) for m in range(1, 8)]
        h = extract_coeffs(vals, knot="3_1")
        assert h.i_max == 6
        for i in range(7):
            assert len(h.coeff(i).terms) == 1, f"a_{i} is not a monomial"
            assert h.coeff(i) == catalog_coeffs("3_1").coeff(i)
        v8 = colored_jones_zero_framed(KNOT_CATALOG["3_1"], 8)
        extended = extract_coeffs(vals + [v8], knot="3_1")
        assert [extended.coeff(i) for i in range(7)] == [h.coeff(i) for i in range(7)]

    def test_wrong_inputs_rejected(self):
        # framed (unadjusted) invariants are not a valid cyclotomic run
        vals = [jones.colored_jones(KNOT_CATALOG["3_1"], m) for m in range(1, 4)]
        with pytest.raises(InexactDivisionError):
            extract_coeffs(vals, knot="bogus")

    def test_roundtrip_exact(self):
        for name in ("3_1", "4_1"):
            h = catalog_coeffs(name)
            vals = [reconstruct_Vm(h, m) for m in range(1, 9)]
            again = extract_coeffs(vals, knot=name)
            for i in range(8):
                assert again.coeff(i) == h.coeff(i)

    def test_a0_guard(self):
        with pytest.raises(ValueError):
            HabiroCoeffs.from_table("junk", [qint(2)])


class TestReconstruction:
    def test_unknot(self):
        h = catalog_coeffs("unknot")
        for m in (1, 2, 5, 9):
            assert reconstruct_Vm(h, m) == qint(m)

    def test_figure_eight_m2_expansion(self):
        # [2] + {3}{2}{1}/{1}
        h = catalog_coeffs("4_1")
        want = qint(2) + (brace(3) * brace(2) * brace(1)) / brace(1)
        assert reconstruct_Vm(h, 2) == want

    def test_matches_braid_traces(self):
        for name in ("3_1", "4_1"):
            h = catalog_coeffs(name)
            for m in (1, 2, 3, 4):
                assert reconstruct_Vm(h, m) == colored_jones_zero_framed(KNOT_CATALOG[name], m)

    def test_numeric_cross_check_m4(self):
        # reconstruction evaluated at generic numeric q equals the braid
        # trace computed numerically end to end
        ctx = RootContext(3)
        h = catalog_coeffs("4_1")
        with ctx.workprec():
            q_half = mp.mpf("0.91") * mp.expj(mp.mpf("0.23"))
            lhs = horner(reconstruct_Vm(h, 4), q_half)
            rhs = colored_jones_numeric(KNOT_CATALOG["4_1"], 4, q_half)
            assert abs(lhs - rhs) < mp.mpf(10) ** -50

    def test_normalized_ladder(self):
        # the one ladder against the expansion and the extraction built one
        # falling brace per term
        for name in ("unknot", "3_1", "4_1"):
            h = catalog_coeffs(name)
            values = [direct_Vm(h, m) for m in range(1, 13)]
            for m, want in enumerate(values, start=1):
                assert reconstruct_Vm(h, m) == want
                assert reconstruct_normalized_Vm(h, m) * qint(m) == want
            again = extract_coeffs(values, knot=name)
            assert [again.coeff(i) for i in range(12)] == direct_extract(values)

    def test_ladder_on_a_braid_word(self):
        # T(2,5) is outside the catalog: extraction and reconstruction from
        # its traces against the falling-brace oracles and the traces
        braid = jones.parse_braid("2: 1 1 1 1 1")
        values = [colored_jones_zero_framed(braid, m) for m in range(1, 7)]
        h = extract_coeffs(values, knot="T(2,5)")
        assert [h.coeff(i) for i in range(6)] == direct_extract(values)
        for m, vm in enumerate(values, start=1):
            assert reconstruct_Vm(h, m) == direct_Vm(h, m) == vm
            assert reconstruct_normalized_Vm(h, m) * qint(m) == vm

    def test_beyond_table_refused(self):
        # an extracted table knows a_0..a_{i_max} and nothing past it
        vals = [colored_jones_zero_framed(KNOT_CATALOG["3_1"], m) for m in range(1, 5)]
        h = extract_coeffs(vals, knot="3_1")
        assert h.i_max == 3
        with pytest.raises(ValueError):
            reconstruct_Vm(h, h.i_max + 2)

    def test_braid_knot_extraction_helper(self):
        h = coeffs_for(jones.parse_braid("2: 1 1 1"), 5)
        assert h.i_max == 4
        assert [h.coeff(i) for i in range(5)] == [catalog_coeffs("3_1").coeff(i) for i in range(5)]


class TestHornerJet:
    # colors 1..8 of T(2,5), a knot outside the catalog whose a_i are
    # extracted from braid traces
    T25 = jones.parse_braid("2: 1 1 1 1 1")

    @pytest.mark.parametrize("name", ["unknot", "3_1", "4_1", "T(2,5)"])
    def test_matches_the_exact_ladder(self, name):
        # the Horner jet of V_m/[m] is the jet of the exact polynomial, at
        # every color loginv reads (m <= 3N-1) and at framings that shift
        # it by unreduced exponents of both signs
        if name == "T(2,5)":
            h = extract_coeffs([colored_jones_zero_framed(self.T25, m) for m in range(1, 9)], name)
        else:
            h = HabiroCoeffs(name, catalog_coeffs(name).rule)
        for N in range(2, 7):
            for m in range(1, 3 * N):
                if not h.has_coeff(m - 1):
                    break
                assert normalized_Vm_jet(h, m, N) == Jet.of(reconstruct_normalized_Vm(h, m), N)
                for f in (-2, 3):
                    want = Jet.of(loginv.exact_normalized_Vm(h, m, framing=f), N)
                    assert loginv._normalized_jet(h, m, N, f) == want, (N, m, f)

    def test_beyond_table_refused(self):
        h = extract_coeffs([colored_jones_zero_framed(self.T25, m) for m in range(1, 4)])
        with pytest.raises(ValueError):
            normalized_Vm_jet(h, 5, 3)


class TestColorDerivative:
    def test_unknot_closed_form(self):
        # d/dm [m] at q=xi: ln(xi) (xi^s + xi^{-s}) / (xi - xi^{-1})
        h = catalog_coeffs("unknot")
        for N in (3, 4):
            ctx = RootContext(N)
            with ctx.workprec():
                for s in range(1, 2 * N + 1):
                    want = (mp.mpc(0, mp.pi) / N) * ctx.brace_plus(s) / ctx.brace_at(1)
                    assert_close(ddm_Vm(h, s, ctx), want, ctx.tol)

    @pytest.mark.parametrize("name", ["3_1", "4_1"])
    def test_matches_q_derivative_route(self, name):
        # N {1}/(pi i) d/dm V_m = gamma_s^{QDERIV} for 1 <= s <= N-1
        h = catalog_coeffs(name)
        for N in (3, 4, 5):
            ctx = RootContext(N)
            with ctx.workprec():
                for s in range(1, N):
                    lhs = N * ctx.brace_at(1) / (mp.pi * mp.mpc(0, 1)) * ddm_Vm(h, s, ctx)
                    rhs = loginv.gamma_s(h, s, N, loginv.Route.QDERIV, ctx)
                    assert_close(lhs, rhs, ctx.tol)

    def test_boundary_colors_match_theorem(self):
        # gamma_N and gamma_0 equal N{1}/(2 pi i) d/dm V_m at m = N, 2N
        h = catalog_coeffs("4_1")
        for N in (3, 4):
            ctx = RootContext(N)
            with ctx.workprec():
                pref = N * ctx.brace_at(1) / (2 * mp.pi * mp.mpc(0, 1))
                assert_close(pref * ddm_Vm(h, N, ctx),
                             loginv.gamma_boundary(h, N, N, ctx), ctx.tol)
                assert_close(pref * ddm_Vm(h, 2 * N, ctx),
                             loginv.gamma_boundary(h, 0, N, ctx), ctx.tol)

    def test_truncation_soundness(self):
        # every dropped term i in [2N, 3N] has >= 2 vanishing factors
        for N in (3, 4, 5):
            for s in range(1, N + 1):
                for i in range(2 * N, 3 * N + 1):
                    vanish = sum(1 for k in range(s - i, s + i + 1) if k % N == 0)
                    assert vanish >= 2

    def test_needs_enough_coefficients(self):
        short = HabiroCoeffs.from_table("stub", [LaurentPoly.const(1), LaurentPoly.const(1)])
        with pytest.raises(ValueError):
            ddm_Vm(short, 1, RootContext(3))

    def test_s_range(self):
        h = catalog_coeffs("4_1")
        with pytest.raises(ValueError):
            ddm_Vm(h, 0, RootContext(3))
        with pytest.raises(ValueError):
            ddm_Vm(h, 7, RootContext(3))


class TestSerialization:
    def test_trefoil_closed_form_matches_braid_traces(self):
        # the trefoil's closed form knows every a_i and reproduces exact
        # braid traces, at m = 17 one color past the a_0..a_15 of the frozen
        # table it replaces
        h = catalog_coeffs("3_1")
        assert h.i_max is None
        for m in (5, 6, 17):
            assert reconstruct_Vm(h, m) == colored_jones_zero_framed(KNOT_CATALOG["3_1"], m)


def test_catalog_names_match_closed_forms():
    # a catalog knot without a closed form would be traced as a braid word,
    # and a closed form without a catalog entry is unreachable from the CLI
    assert set(KNOT_CATALOG) == set(habiro._CLOSED_FORMS)
