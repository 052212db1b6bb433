import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from logjones import qcalc
from logjones.qcalc import (
    InexactDivisionError,
    Jet,
    LaurentPoly,
    LHopitalError,
    RootContext,
    brace,
    brace_fact,
    brace_falling,
    ddq,
    qbinom,
    qfact,
    qint,
)
from conftest import assert_close, horner


def rand_poly(rng, max_terms=6, max_exp=8, max_coeff=9):
    return LaurentPoly({rng.randint(-max_exp, max_exp): rng.randint(-max_coeff, max_coeff)
                        for _ in range(rng.randint(0, max_terms))})


class TestRingAxioms:
    def test_ring_identities_fuzz(self):
        rng = random.Random(42)
        for _ in range(200):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + LaurentPoly() == a
            assert a * LaurentPoly.const(1) == a

    def test_degree_of_product(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rand_poly(rng), rand_poly(rng)
            if not a or not b:
                continue
            assert (a * b).degree2() == a.degree2() + b.degree2()
            assert (a * b).valuation2() == a.valuation2() + b.valuation2()

    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly({2: 1, 4: 0, -2: Fraction(0)})
        assert set(p.terms) == {2}
        assert (brace(3) - brace(3)) == LaurentPoly()

    def test_divmod_roundtrip(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            if not b:
                continue
            q, r = a.divmod(b)
            assert q * b + r == a

    def test_exact_division_error(self):
        with pytest.raises(InexactDivisionError):
            (qint(2) + 1) / qint(2)


def dict_convolution(a, b):
    """The product of two term maps by the plain double loop."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def kron_operands(draw):
    """Two int term maps on one exponent step 1, 2 or 4.  Half the draws
    are dense maps of +-M on equal lengths, whose middle product
    coefficient is exactly the width bound max|a| max|b| min(len)."""
    step = draw(st.sampled_from((1, 2, 4)))

    def term_map():
        lo = draw(st.integers(-60, 60))
        ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=25, unique=True))
        coeff = st.integers(-2**70, 2**70).filter(bool)
        return {lo + step * k: draw(coeff) for k in ks}

    if draw(st.booleans()):
        return term_map(), term_map()
    n = draw(st.integers(1, 12))
    big = draw(st.integers(1, 2**70))
    sa, sb = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    lo_a, lo_b = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    return ({lo_a + step * k: sa * big for k in range(n)},
            {lo_b + step * k: sb * big for k in range(n)})


class TestKronecker:
    @settings(max_examples=300, deadline=None)
    @given(kron_operands())
    def test_matches_dict_convolution(self, ab):
        a, b = ab
        assert qcalc._try_kronecker_mul(a, b) == dict_convolution(a, b)
        # a non-int coefficient or a map too sparse to pack is refused
        e, c = next(iter(a.items()))
        assert qcalc._try_kronecker_mul({**a, e: Fraction(c, 3)}, b) is None
        far = max(a) + 70 * (len(a) + 1)
        assert qcalc._try_kronecker_mul({**a, far: 1}, b) is None

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_the_width_bound(self, sign):
        # the middle coefficient is exactly the bound and the total is
        # negative for sign = -1, so the unpack borrows through every digit
        big = 2**64 - 1
        a = {4 * k - 6: big for k in range(9)}
        b = {4 * k + 2: sign * big for k in range(9)}
        out = qcalc._try_kronecker_mul(a, b)
        assert out == dict_convolution(a, b)
        assert out[max(a) + min(b)] == sign * big * big * 9

    def test_dense_product_takes_the_packed_branch(self, monkeypatch):
        rng = random.Random(5)
        a = LaurentPoly({2 * e + 1: rng.randint(-10**9, 10**9) for e in range(-30, 30)})
        b = LaurentPoly({2 * e: rng.randint(-10**9, 10**9) for e in range(60)})
        assert len(a.terms) * len(b.terms) > 3000
        hits = []
        real = qcalc._try_kronecker_mul

        def counted(x, y):
            out = real(x, y)
            hits.append(out is not None)
            return out

        monkeypatch.setattr(qcalc, "_try_kronecker_mul", counted)
        prod = a * b
        assert hits == [True]
        assert prod.terms == dict_convolution(a.terms, b.terms)
        assert all(type(c) is int for c in prod.terms.values())


@st.composite
def jet_polys(draw):
    """A LaurentPoly with int and Fraction coefficients on doubled
    exponents of both parities."""
    coeff = st.one_of(st.integers(-60, 60),
                      st.fractions(-60, 60, max_denominator=12))
    return LaurentPoly(draw(st.dictionaries(st.integers(-90, 90), coeff, max_size=9)))


JET_CONTEXTS = {N: RootContext(N) for N in range(2, 10)}


class TestJet:
    """p -> (p, x dp/dx) mod x^{4N} - 1 is a ring homomorphism, and its
    values at xi are the ones eval_at gives, to the last bit."""

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), jet_polys(), st.integers(2, 9))
    def test_products_and_sums(self, p, r, N):
        assert Jet.of(p * r, N) == Jet.of(p, N).times(r)
        assert Jet.of(p + r, N) == Jet.of(p, N) + Jet.of(r, N)
        assert Jet.of(p - r, N) == Jet.of(p, N) - Jet.of(r, N)

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), st.integers(-200, 200), st.integers(2, 9))
    def test_shift_by_unreduced_exponent(self, p, a, N):
        assert Jet.of(p.shift(a), N) == Jet.of(p, N).shift(a)

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), st.integers(2, 9))
    def test_values_bit_for_bit(self, p, N):
        ctx = JET_CONTEXTS[N]
        jet = Jet.of(p, N)
        assert jet.value(ctx) == ctx.eval(p)
        assert jet.ddq_value(ctx) == ctx.eval(ddq(p))


class TestQSymbols:
    def test_brace_zero(self):
        assert brace(0) == LaurentPoly()

    def test_brace_one_at_xi(self, ctx3):
        # 2i sin(pi/3) = i*sqrt(3)
        with ctx3.workprec():
            ref = mp.mpc(0, mp.sqrt(3))
        assert_close(ctx3.eval(brace(1)), ref, ctx3.tol)

    def test_brace_reflection_at_xi(self):
        # {2N-k} = -{k} at xi
        for N in range(2, 13):
            ctx = RootContext(N)
            for k in range(1, 2 * N):
                assert_close(ctx.eval(brace(2 * N - k)), -ctx.eval(brace(k)), ctx.tol)

    def test_brace_falling_empty(self):
        assert brace_falling(5, 0) == LaurentPoly.const(1)

    def test_brace_falling_expansion(self):
        assert brace_falling(3, 2) == brace(3) * brace(2)
        assert brace_falling(3, 2) == LaurentPoly({10: 1, -2: -1, 2: -1, -10: 1})

    def test_brace_falling_zero_factor(self):
        # {m+i, 2i+1} hits {0} once i >= m
        for m, i in ((1, 1), (2, 2), (3, 5)):
            assert brace_falling(m + i, 2 * i + 1) == LaurentPoly()

    def test_qint(self):
        assert qint(1) == LaurentPoly.const(1)
        assert qint(3) == LaurentPoly({4: 1, 0: 1, -4: 1})
        ctx = RootContext(5)
        assert_close(ctx.eval(qint(5)), 0, ctx.tol)

    def test_qbinom_literal(self):
        # [4]!/([2]![2]!) expanded by exact division
        assert qbinom(4, 2) == LaurentPoly({8: 1, 4: 1, 0: 2, -4: 1, -8: 1})

    def test_qbinom_equals_factorial_ratio(self):
        for n in range(13):
            for k in range(n + 1):
                assert qbinom(n, k) == (qfact(n) / qfact(k)) / qfact(n - k)

    def test_brace_fact(self):
        assert brace_fact(3) == brace(3) * brace(2) * brace(1)


class TestBracePlus:
    def test_endpoints(self, ctx3):
        assert_close(ctx3.brace_plus(0), 2, ctx3.tol)
        assert_close(ctx3.brace_plus(3), -2, ctx3.tol)

    def test_cotangent_ratio(self):
        # |{k}_+ / {k}| = |cot(k pi/N)|
        for N in (4, 6):
            ctx = RootContext(N)
            with ctx.workprec():
                for k in range(1, N):
                    ratio = abs(ctx.brace_plus(k) / ctx.eval(brace(k)))
                    cot = abs(mp.cospi(mp.mpf(k) / N) / mp.sinpi(mp.mpf(k) / N))
                    assert_close(ratio, cot, ctx.tol)


class TestDdq:
    @pytest.mark.parametrize("n", [-3, -1, 1, 2, 5])
    def test_monomial(self, n):
        assert ddq(LaurentPoly.q_power(n)) == LaurentPoly.q_power(n - 1) * n

    def test_half_exponent(self):
        # d/dq q^{1/2} = (1/2) q^{-1/2}
        assert ddq(LaurentPoly.q_power(1, 2)) == LaurentPoly({-1: Fraction(1, 2)})

    def test_brace_derivative_at_one(self, ctx3):
        for n in range(1, 6):
            val = horner(ddq(brace(n)), mp.mpf(1))
            assert_close(val, 2 * n, ctx3.tol)

    def test_leibniz_fuzz(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            assert ddq(a * b) == ddq(a) * b + a * ddq(b)

    def test_against_finite_differences(self, ctx3):
        # central differences at a generic point q = 0.9 e^{0.1 i}
        rng = random.Random(5)
        with ctx3.workprec():
            q = mp.mpf("0.9") * mp.expj(mp.mpf("0.1"))
            h = mp.mpf(10) ** -20
            tol = mp.mpf(10) ** -(ctx3.precision_digits // 3)
            for _ in range(20):
                p = rand_poly(rng)
                fd = (horner(p, mp.sqrt(q + h)) - horner(p, mp.sqrt(q - h))) / (2 * h)
                assert abs(fd - horner(ddq(p), mp.sqrt(q))) < tol


def rand_wide_poly(rng, N, n_terms):
    """Int and Fraction coefficients on doubled exponents of both signs and
    parities, spread over several periods of the 4N-th root xi^{1/2}."""
    terms = {}
    for _ in range(n_terms):
        e = rng.randint(-9 * N, 9 * N)
        if rng.random() < 0.5:
            terms[e] = rng.randint(-60, 60)
        else:
            terms[e] = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    return LaurentPoly(terms)


class TestRootTable:
    """Evaluation at xi through the root-of-unity table against the Horner
    evaluator at the same point and against direct mpmath expressions."""

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 13])
    def test_eval_matches_horner(self, N):
        ctx = RootContext(N)
        rng = random.Random(100 + N)
        polys = [LaurentPoly(), LaurentPoly.const(Fraction(-7, 3)), brace(N), qint(2 * N),
                 ddq(brace(1) * qint(2 * N - 1)), ddq(brace_falling(N + 2, 5))]
        for n_terms in (1, 2, 5, 20, 80, 300):
            for _ in range(4):
                p = rand_wide_poly(rng, N, n_terms)
                polys += [p, ddq(p), ddq(ddq(p))]
        for p in polys:
            assert_close(ctx.eval(p), horner(p, ctx.xi_half), ctx.tol)

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 13])
    def test_helpers_match_mpmath(self, N):
        ctx = RootContext(N)
        with ctx.workprec():
            one = mp.sinpi(mp.mpf(1) / N)
            assert_close(ctx.xi, mp.expjpi(mp.mpf(1) / N), ctx.tol)
            assert_close(ctx.xi_half, mp.expjpi(mp.mpf(1) / (2 * N)), ctx.tol)
            for n in range(-5 * N, 5 * N + 1):
                x = mp.mpf(n) / N
                assert_close(ctx.brace_at(n), mp.mpc(0, 2 * mp.sinpi(x)), ctx.tol)
                assert_close(ctx.brace_plus(n), 2 * mp.cospi(x), ctx.tol)
                assert_close(ctx.qint_at(n), mp.sinpi(x) / one, ctx.tol)
                assert_close(ctx.xi_pow(n), mp.expjpi(x), ctx.tol)
                assert_close(ctx.xi_pow(n, 2), mp.expjpi(x / 2), ctx.tol)
            for n in range(3 * N):
                direct = mp.fprod(mp.sinpi(mp.mpf(k) / N) / one for k in range(1, n + 1))
                assert_close(ctx.qfact_at(n), direct, ctx.tol)

    def test_bad_arguments(self, ctx3):
        with pytest.raises(ValueError):
            ctx3.xi_pow(1, 3)
        with pytest.raises(ValueError):
            ctx3.qfact_at(-1)


class TestEval:
    def test_const(self, ctx3):
        assert_close(ctx3.eval(LaurentPoly.const(1)), 1, ctx3.tol)

    def test_brace_N_vanishes(self):
        ctx = RootContext(5)
        assert abs(ctx.eval(brace(5))) < ctx.tol

    def test_qint_2N_vanishes(self, ctx3):
        assert abs(ctx3.eval(qint(6))) < ctx3.tol

    def test_context_invariants(self):
        for N in (2, 3, 7):
            ctx = RootContext(N)
            with ctx.workprec():
                assert abs(ctx.xi ** (2 * N) - 1) < ctx.tol
                for k in range(1, 2 * N):
                    assert abs(ctx.xi ** k - 1) > mp.mpf("0.1")

    def test_bad_context(self):
        with pytest.raises(ValueError):
            RootContext(1)
        with pytest.raises(ValueError):
            RootContext(3, precision_digits=10)


class TestLHopital:
    def test_equal_polys(self, ctx3):
        assert_close(ctx3.lhopital_ratio(brace(3), brace(3)), 1, ctx3.tol)

    def test_brace_2N_over_N(self):
        # sin(2x)/sin(x) -> 2 cos(x) = -2 at x = pi; the independent oracle
        # is the direct numeric limit slightly off the root of unity
        for N in (3, 4):
            ctx = RootContext(N)
            val = ctx.lhopital_ratio(brace(2 * N), brace(N))
            assert_close(val, -2, ctx.tol)
            with ctx.workprec():
                q_half = mp.expjpi(mp.mpf(1) / (2 * N) + mp.mpf(10) ** -22)
                near = horner(brace(2 * N), q_half) / horner(brace(N), q_half)
                assert abs(near - val) < mp.mpf(10) ** -20

    def test_trivial_denominator(self, ctx3):
        p = brace(2) + qint(5)
        assert_close(ctx3.lhopital_ratio(p, LaurentPoly.const(1)), ctx3.eval(p), ctx3.tol)

    def test_pole_is_error(self, ctx3):
        with pytest.raises(ZeroDivisionError):
            ctx3.lhopital_ratio(LaurentPoly.const(1), brace(3))

    def test_deep_vanishing_is_error(self, ctx3):
        deep = brace(3) ** (2 * 3 + 2)
        with pytest.raises(LHopitalError):
            ctx3.lhopital_ratio(deep, deep * LaurentPoly.const(1))

    def test_zero_denominator_poly(self, ctx3):
        with pytest.raises(ZeroDivisionError):
            ctx3.lhopital_ratio(brace(1), LaurentPoly())


class TestMirrorAndFormat:
    def test_mirror(self):
        p = LaurentPoly({3: 2, -1: 5})
        assert p.mirror() == LaurentPoly({-3: 2, 1: 5})
        assert brace(4).mirror() == -brace(4)

    def test_palindromic(self):
        assert qint(4).is_palindromic()
        assert not (qint(4) + brace(2)).is_palindromic()

    def test_str_roundtrippable_shapes(self):
        assert str(LaurentPoly()) == "0"
        assert str(qint(2)) == "q^1 + q^-1"
        assert str(LaurentPoly({1: 1})) == "q^1/2"
        assert str(LaurentPoly({0: -3, 4: 1})) == "q^2 - 3"
