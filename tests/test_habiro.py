import inspect

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import mpf_neg

from logjones import habiro, jones, loginv, qcalc
from logjones.habiro import (
    HabiroCoeffs,
    catalog_coeffs,
    coeffs_for,
    ddm_Vm,
    extract_coeffs,
    normalized_Vm_at_xi,
    reconstruct_normalized_Vm,
    reconstruct_Vm,
)
from logjones.jones import KNOT_CATALOG, colored_jones_zero_framed
from logjones.qcalc import InexactDivisionError, LaurentPoly, RootContext, brace, brace_falling, qint
from logjones.volume import scan_precision
from conftest import (ExactJet, assert_close, assert_colors_at_xi, colored_jones_numeric, ddm_Vm_mpc,
                      dict_extract_coeffs, dict_ladder, dict_ladder_head, exact_normalized_Vm,
                      exact_Vm_jets, horner, knotted_words, window_ddm_Vm)


# -- oracles: the expansion one falling brace per term, as first coded


def direct_Vm(h, m):
    """sum_{i<m} a_i {m+i, 2i+1}/{1}, each term built from its own brace."""
    out = LaurentPoly()
    for i in range(m):
        out = out + h.coeff(i) * (brace_falling(m + i, 2 * i + 1) / brace(1))
    return out


def truncated_ladder_jet(h, m, N):
    """sum_{i<min(m,N)} ExactJet.of(a_i L_i(m)), each rung a product of
    braces: the jet of V_m/[m] if every rung from i = N on has jet 0."""
    rung = LaurentPoly.const(1)
    want = ExactJet.of(h.coeff(0), N)
    for i in range(1, min(m, N)):
        rung = rung * brace(m + i) * brace(m - i)
        want = want + ExactJet.of(h.coeff(i) * rung, N)
    return want


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
    over G of every s: fixed is habiro.tilde_sum, mpf the former kernel
    (half_powers_tilde_sum at the same precision) and ref the same oracle
    40 digits finer, a_i included."""
    ctx = RootContext(N, precision_digits=precision_digits)
    fine = RootContext(N, precision_digits=precision_digits + 40)
    h = catalog_coeffs(knot)
    a, a_fine = h.at_xi(ctx), h.at_xi(fine)
    worst = mp.mpf(0)
    for s in range(1, N):
        got = habiro.tilde_sum(h, s, ctx)
        with fine.workprec():
            ts, _ = half_powers_tilde_terms(s, fine)
            ref = mp.fdot(zip(a_fine, ts))
            err = abs(got - ref)
            floor = mp.mpf(10) ** -ctx.dps * max(abs(ai * t) for ai, t in zip(a_fine, ts))
            if err <= floor:
                continue
            # the former kernel only where the floor alone does not cover
            old, _ = half_powers_tilde_sum(a, s, ctx)
            worst = max(worst, err / max(abs(old - ref), floor))
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

    @pytest.mark.parametrize("knot", ["unknot", "3_1", "4_1"])
    @pytest.mark.parametrize("N, digits", [(N, None) for N in list(range(2, 41)) + [97, 150, 400]]
                             + [(300, 30)])
    def test_mirror_rows_negate(self, knot, N, digits):
        # G(N-s) = -G(s): each row truncates its own products, yet the two
        # round alike.  Negated inside workprec, as the suite's 90 ambient
        # digits would round the 105 of N = 400; at 30 digits and N = 300
        # some rows are computed again, finer
        h = catalog_coeffs(knot)
        ctx = RootContext(N, precision_digits=digits or scan_precision(N))
        for s in range(1, N // 2 + 1):
            g, mirror = habiro.tilde_sum(h, s, ctx), habiro.tilde_sum(h, N - s, ctx)
            with ctx.workprec():
                assert mirror == -g, s

    @pytest.mark.parametrize("knot", ["4_1", "3_1", "T(2,5)"])
    @pytest.mark.parametrize("N", [7, 40, 150])
    def test_mirror_rows_negate_bit_for_bit(self, knot, N, monkeypatch):
        # every fixed-point product rounds half away from zero, which
        # commutes with negation, and the tables are symmetric, so the
        # exact int sums of row N - s are those of row s negated, whatever
        # the a_i, and so is the row.  Those of T(2,5) are the eight
        # extracted from its braid traces, complex at xi and read
        # cyclically past a_7
        if knot == "T(2,5)":
            table = coeffs_for(jones.parse_braid("2: 1 1 1 1 1"), 8)
            h = HabiroCoeffs(knot, lambda i: table.coeff(i % 8))
        else:
            h = HabiroCoeffs(knot, catalog_coeffs(knot).rule)
        ctx = RootContext(N, precision_digits=scan_precision(N))
        real = habiro._from_fixed
        sums = []

        def recorded(parts, exp):
            sums.append((tuple(parts), exp))
            return real(parts, exp)

        monkeypatch.setattr(habiro, "_from_fixed", recorded)
        complex_rows = 0
        for s in range(1, N // 2 + 1):
            sums.clear()
            g = habiro.tilde_sum(h, s, ctx)
            row = list(sums)
            sums.clear()
            mirror = habiro.tilde_sum(h, N - s, ctx)
            assert sums == [(tuple(-x for x in parts), exp) for parts, exp in row], s
            parts = (lambda z: (z.real._mpf_, z.imag._mpf_)) if isinstance(g, mp.mpc) else \
                (lambda z: (z._mpf_,))
            assert type(mirror) is type(g)
            assert parts(mirror) == tuple(map(mpf_neg, parts(g))), s
            complex_rows += isinstance(g, mp.mpc) and bool(g.imag)
        assert complex_rows == (0 if knot == "4_1" else N // 2 - (N % 2 == 0))

    @pytest.mark.parametrize("knot", ["4_1", "3_1"])
    def test_coefficients_at_xi_built_whole_once(self, knot):
        # at_xi and fixed_at_xi hold exactly a_0..a_{N-1}, built once per
        # context: a second call returns the same tuples, and the finer
        # context that tilde_sum computes a row again in gets its own.  The
        # figure-eight's a_i(xi) = 1 stay at the scale 0; the trefoil's are
        # not all Gaussian integers, so its whole tuple is at the scale 2^P
        h = HabiroCoeffs(knot, catalog_coeffs(knot).rule)
        ctx = RootContext(7)
        fine = ctx.finer(RootContext._GUARD)
        for c in (ctx, fine):
            P = c.sin_cot[-1]
            values, fixed = h.at_xi(c), h.fixed_at_xi(c)
            re, im, scale = fixed
            assert type(values) is type(re) is type(im) is tuple
            assert len(values) == len(re) == len(im) == 7
            assert h.at_xi(c) is values and h.fixed_at_xi(c) is fixed
            if knot == "4_1":
                assert (re, im, scale) == ((1,) * 7, (0,) * 7, 0)
                continue
            assert scale == P and re[0] == 1 << P and im[0] == 0
            with c.workprec():
                for v, x, y in zip(values, re, im):
                    assert abs(mp.mpc(v) - mp.mpc(mp.ldexp(x, -P), mp.ldexp(y, -P))) <= mp.ldexp(2, -P)
        assert h.at_xi(fine) is not h.at_xi(ctx) and h.fixed_at_xi(fine) is not h.fixed_at_xi(ctx)

    def test_int_constants_at_xi_are_what_eval_at_makes(self):
        # at_xi takes an int constant a_i without evaluating it; the raw
        # mpf is eval_at's, also for a constant wider than the context's
        # digits under a low ambient precision
        big = 3 ** 400 + 1
        rule = lambda i: LaurentPoly.const(1 if i == 0 else (-1) ** i * big // i)
        for N in range(2, 41):
            ctx = RootContext(N)
            hs = [HabiroCoeffs(knot, catalog_coeffs(knot).rule) for knot in ("unknot", "4_1")]
            hs.append(HabiroCoeffs("big", rule))
            with mp.workdps(15):
                got = [h.at_xi(ctx) for h in hs]
            assert set(ctx.half_powers) == set()
            for h, values in zip(hs, got):
                want = [ctx.eval_at(h.coeff(i)).real for i in range(N)]
                assert [v._mpf_ for v in values] == [v._mpf_ for v in want], (h.knot, N)

    @pytest.mark.parametrize("knot", ["unknot", "3_1", "4_1"])
    def test_window_products_are_V_s(self, knot):
        # the window products without cotangents, sum_{i<su} a_i
        # {s+i,2i+1}, are {1} V_s(xi): every later window holds {N}.  So
        # tilde_sum leaves them out and b_pm_via_habiro reads V_s instead
        h = catalog_coeffs(knot)
        for N in range(2, 25):
            ctx = RootContext(N)
            a = h.at_xi(ctx)
            for s in range(1, N):
                _, windows = half_powers_tilde_sum(a, s, ctx)
                with ctx.workprec():
                    want = -1j * ctx.brace_at(1) * ctx.eval_at(reconstruct_Vm(h, s))
                assert_close(windows, want, ctx.tol)

    @pytest.mark.parametrize("N", [100, 150])
    def test_scan_precision_margin(self, N):
        # the digits the figure-eight G sum loses to cancellation,
        # log10(max |a_i term_i| / |G|), leave the guard digits intact on
        # every row the scan does not flag as zero (worst rows: s = 47 loses
        # 13.3 of 60 digits at N = 100, s = 79 loses 20.8 of 67 at N = 150)
        ctx = RootContext(N, precision_digits=scan_precision(N))
        a = catalog_coeffs("4_1").at_xi(ctx)
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
    # colors 1..12 of T(2,5), a knot outside the catalog whose a_i are
    # extracted from braid traces
    T25 = jones.parse_braid("2: 1 1 1 1 1")

    def coeffs(self, name):
        """A fresh coefficient object, so that no memo is shared between
        tests: the closed form of a catalog knot, or the table a_0..a_11 of
        T(2,5) extracted from its braid traces."""
        if name == "T(2,5)":
            return extract_coeffs([colored_jones_zero_framed(self.T25, m) for m in range(1, 13)],
                                  name)
        return HabiroCoeffs(name, catalog_coeffs(name).rule)

    @pytest.mark.parametrize("name", ["unknot", "3_1", "4_1", "T(2,5)"])
    def test_matches_the_exact_ladder(self, name):
        # the value and color slopes of V_m/[m] are the exact polynomial's
        # value and D-value differences at xi, at every color m <= 3N that
        # the coefficients reach (loginv reads m <= 3N-1), and at framings
        # that shift it by unreduced exponents of both signs
        h = self.coeffs(name)
        exact = {}
        for N in range(2, 13):
            ctx = RootContext(N)
            colors = [m for m in range(1, 3 * N + 1) if h.has_coeff(m - 1)]
            for m in colors:
                if m not in exact:
                    exact[m] = {f: exact_normalized_Vm(h, m, framing=f) for f in (0, -2, 3)}
            for f in (0, -2, 3):
                assert_colors_at_xi(h, {m: ExactJet.of(exact[m][f], N) for m in colors}, ctx, f,
                                    (N, f))

    @pytest.mark.parametrize("name", ["unknot", "3_1", "4_1", "T(2,5)"])
    def test_jet_reads_only_coefficients_below_N(self, name):
        # for i >= N the rung L_i(m) holds two factors {kN}, each 0 mod
        # x^{4N} - 1, so its jet (v, Dv) is (0, 0) and only a_0..a_{N-1}
        # reach V_m/[m] at xi; the T(2,5) table a_0..a_11 reaches N = 12
        h = self.coeffs(name)
        for N in range(2, 13):
            ctx = RootContext(N)
            jets = {m: truncated_ladder_jet(h, m, N) for m in range(1, 3 * N + 1)}
            assert_colors_at_xi(h, jets, ctx, 0, N)

    @pytest.mark.parametrize("name", ["unknot", "3_1", "4_1", "T(2,5)"])
    def test_exact_pass_is_the_exact_ladder(self, name):
        # the exact Horner pass of the oracle exact_Vm_jets, which checks
        # the pass at xi at large N below, is the jet of the exact polynomial
        h = self.coeffs(name)
        for N in range(2, 9):
            colors = [m for m in range(1, 3 * N + 1) if h.has_coeff(m - 1)]
            for m, jet in exact_Vm_jets(h, N, colors).items():
                assert jet == ExactJet.of(reconstruct_normalized_Vm(h, m), N), (N, m)

    @pytest.mark.parametrize("N", [40, 100])
    @pytest.mark.parametrize("name", ["3_1", "4_1"])
    def test_large_N_matches_the_exact_pass(self, name, N):
        # every color loginv reads, unframed and at framings -2 and 3
        h = self.coeffs(name)
        ctx = RootContext(N)
        exact = exact_Vm_jets(h, N, range(1, 3 * N))
        for f in (0, -2, 3):
            jets = {m: jet.shift((m * m - 1) * f) for m, jet in exact.items()}
            assert_colors_at_xi(h, jets, ctx, f, f)

    def test_pass_without_P_prime_fails(self, monkeypatch):
        # negative control: with P' dropped from the pass, every color
        # slope is 0; the slopes miss the exact D-value differences, and
        # center_coeffs, whose QDERIV and radical routes read them, fails
        src = inspect.getsource(habiro._residue_pass)
        step = "d = p + factor * d"
        assert src.count(step) == 1
        namespace = dict(vars(habiro))
        exec(src.replace(step, "d = 0"), namespace)
        monkeypatch.setattr(habiro, "_residue_pass", namespace["_residue_pass"])
        N = 5
        h = self.coeffs("4_1")
        ctx = RootContext(N)
        with pytest.raises(AssertionError):
            assert_colors_at_xi(h, exact_Vm_jets(h, N, range(1, 3 * N)), ctx)
        assert loginv.center_coeffs(h, ctx).failed(ctx.tol)

    @pytest.mark.parametrize("N", [6, 12, 24])
    def test_one_pass_per_residue_class(self, N):
        # every value loginv reads comes from one Horner pass per residue
        # r = +-m mod N in 0..N/2
        h = self.coeffs("3_1")
        loginv.center_coeffs(h, RootContext(N))
        passes = [key for key in h._memo if key[:2] == ("pass", N)]
        assert 0 < len(passes) <= N // 2 + 1

    def test_beyond_table_refused(self):
        # a table a_0..a_2 answers every color at N = 3, V_5/[5] among them,
        # and refuses V_5/[5] at N = 4, which reads a_3
        h = extract_coeffs([colored_jones_zero_framed(self.T25, m) for m in range(1, 4)])
        with pytest.raises(ValueError):
            normalized_Vm_at_xi(h, 5, RootContext(4))
        ctx = RootContext(3)
        assert_colors_at_xi(h, {m: truncated_ladder_jet(h, m, 3) for m in (1, 5)}, ctx)

    def test_refusal_names_the_color_asked_for(self):
        # V_5/[5] at N = 4 reads a_0..a_3; the message names V_5, not the
        # truncated color 4, and the coefficient that is missing
        h = extract_coeffs([colored_jones_zero_framed(self.T25, m) for m in range(1, 4)], "T(2,5)")
        with pytest.raises(ValueError, match=r"^T\(2,5\): V_5 needs a_3, only a_0\.\.a_2 available$"):
            normalized_Vm_at_xi(h, 5, RootContext(4))


class TestPackedLadder:
    # the packed ladder of habiro._ladder against the dict ladder it
    # replaced (conftest.dict_ladder)

    @pytest.mark.parametrize("name", ["unknot", "3_1", "4_1"])
    def test_heads_match_the_dict_ladder(self, name):
        h = catalog_coeffs(name)
        for N in range(2, 14):
            for m in (N, 2 * N):
                head = LaurentPoly()
                for n, rung in enumerate(dict_ladder(m)):
                    assert habiro.ladder_head(h, m, n) == head, (N, m, n)
                    head = head + h.coeff(n) * rung
                assert habiro.ladder_head(h, m, m) == head == reconstruct_normalized_Vm(h, m)

    @pytest.mark.parametrize("exponents", [(0, 4, -8), (2, -6, 10), (1, -4, 3)],
                             ids=["step4", "step2", "step1"])
    def test_width_bound_on_large_coefficients(self, exponents):
        # coefficients near +-10^6 on exponents that leave a digit step of
        # 4, 2 and 1: every digit of the sum decodes within the width
        table = [LaurentPoly.const(1)]
        for i in range(1, 7):
            table.append(LaurentPoly({e * i: (-1) ** (i + k) * (10 ** 6 - 7 * i - k)
                                      for k, e in enumerate(exponents)}))
        h = HabiroCoeffs.from_table("wide", table)
        for m in range(1, 10):
            for n in range(min(m, 7) + 1):
                assert habiro.ladder_head(h, m, n) == dict_ladder_head(h, m, n), (m, n)

    @pytest.mark.parametrize("word, M", [("1:", 40), ("2: 1 1 1", 10), ("3: 1 -2 1 -2", 7),
                                         ("2: 1 1 1 1 1", 8)])
    def test_extraction_matches_the_dict_ladder(self, word, M):
        braid = jones.parse_braid(word)
        values = [colored_jones_zero_framed(braid, m) for m in range(1, M + 1)]
        h = extract_coeffs(values)
        assert [h.coeff(i) for i in range(M)] == dict_extract_coeffs(values)

    @settings(max_examples=10, deadline=None)
    @given(knotted_words(), st.sampled_from((2, 3)))
    def test_random_braids(self, b, N):
        # an N-color extraction, the boundary head and V_m/[m] for m <= N
        values = [colored_jones_zero_framed(b, m) for m in range(1, N + 1)]
        h = extract_coeffs(values)
        assert [h.coeff(i) for i in range(N)] == dict_extract_coeffs(values)
        assert habiro.ladder_head(h, 2 * N, N) == dict_ladder_head(h, 2 * N, N)
        for m in range(1, N + 1):
            assert reconstruct_normalized_Vm(h, m) == dict_ladder_head(h, m, m)


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
                    rhs = loginv.gamma_s(h, s, ctx, loginv.Route.QDERIV)
                    assert_close(lhs, rhs, ctx.tol)

    def test_boundary_colors_match_theorem(self):
        # gamma_N and gamma_0 equal N{1}/(2 pi i) d/dm V_m at m = N, 2N
        h = catalog_coeffs("4_1")
        for N in (3, 4):
            ctx = RootContext(N)
            with ctx.workprec():
                pref = N * ctx.brace_at(1) / (2 * mp.pi * mp.mpc(0, 1))
                assert_close(pref * ddm_Vm(h, N, ctx),
                             loginv.gamma_boundary(h, N, ctx), ctx.tol)
                assert_close(pref * ddm_Vm(h, 2 * N, ctx),
                             loginv.gamma_boundary(h, 0, ctx), ctx.tol)

    @pytest.mark.parametrize("name", ["unknot", "3_1", "4_1", "T(2,5)"])
    def test_matches_window_oracle(self, name):
        # the running Leibniz pair against every window rebuilt from its
        # own factors, at every color the pair accepts
        if name == "T(2,5)":
            braid = jones.parse_braid("2: 1 1 1 1 1")
            h = extract_coeffs([colored_jones_zero_framed(braid, m) for m in range(1, 7)], name)
            Ns = (2, 3)
        else:
            h = catalog_coeffs(name)
            Ns = range(2, 13)
        for N in Ns:
            ctx = RootContext(N)
            for s in range(1, 2 * N + 1):
                assert_close(ddm_Vm(h, s, ctx), window_ddm_Vm(h, s, ctx), ctx.tol)

    def test_linear_in_N(self, monkeypatch):
        # one running pair: two table reads per window step, not a
        # window's worth, N - 1 steps, and one working-precision context
        # for the whole sum, not one per q-symbol
        reads, contexts = [], []
        read, workdps = qcalc._LazyTable.__getitem__, mp.workdps
        monkeypatch.setattr(qcalc._LazyTable, "__getitem__",
                            lambda table, k: reads.append(k) or read(table, k))
        monkeypatch.setattr(mp, "workdps", lambda dps: contexts.append(dps) or workdps(dps))
        h = catalog_coeffs("4_1")
        for N in (6, 12, 24):
            ctx = RootContext(N)
            for s in (1, N, 2 * N):
                ddm_Vm(h, s, ctx)  # fills the tables and the a_i it reads
                reads.clear()
                contexts.clear()
                ddm_Vm(h, s, ctx)
                assert len(reads) <= 2 * N and len(contexts) <= 1, (N, s, len(reads), len(contexts))

    @pytest.mark.parametrize("digits", [60, 200])
    def test_real_pair_equals_the_complex_pair(self, digits):
        # the real recurrence rounds every product and sum as the complex
        # pair it replaced rounded its nonzero part, so the two agree bit
        # for bit at every color
        for name in ("unknot", "3_1", "4_1"):
            h = catalog_coeffs(name)
            for N in list(range(2, 25)) + [40]:
                ctx = RootContext(N, precision_digits=digits)
                for s in range(1, 2 * N + 1):
                    assert ddm_Vm(h, s, ctx)._mpc_ == ddm_Vm_mpc(h, s, ctx)._mpc_, (name, N, s)

    def test_truncation_soundness(self):
        # every dropped term i in [N, 3N] has >= 2 vanishing factors, at
        # every color ddm_Vm accepts
        for N in (3, 4, 5):
            for s in range(1, 2 * N + 1):
                for i in range(N, 3 * N + 1):
                    vanish = sum(1 for k in range(s - i, s + i + 1) if k % N == 0)
                    assert vanish >= 2

    def test_needs_enough_coefficients(self):
        # a sum at xi reads a_0..a_{N-1}, so a table a_0, a_1 is refused at
        # N = 3 by both, although tilde_sum's row s = 1 reads only a_0, a_1
        short = HabiroCoeffs.from_table("stub", [LaurentPoly.const(1), LaurentPoly.const(1)])
        for kernel in (ddm_Vm, habiro.tilde_sum):
            with pytest.raises(ValueError, match=r"^stub: coefficient a_2 is not available"):
                kernel(short, 1, RootContext(3))
        ctx = RootContext(2)
        assert_close(ddm_Vm(short, 1, ctx), window_ddm_Vm(short, 1, ctx), ctx.tol)

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
