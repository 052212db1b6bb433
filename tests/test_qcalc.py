import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from logjones import jones, qcalc, qgroup
from logjones.qcalc import (
    InexactDivisionError,
    LaurentPoly,
    RootContext,
    brace,
    brace_fact,
    brace_falling,
    cyclotomic,
    ddq,
    qbinom,
    qfact,
    qint,
)
from logjones.volume import scan_precision
from conftest import (ExactJet, assert_close, assert_within, horner, is_palindromic, mirror,
                      q_power, qsymbols_from_half_powers, sin_cot_mp, valuation2, xi_half)


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
            assert valuation2(a * b) == valuation2(a) + valuation2(b)

    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly({2: 1, 4: 0, -2: Fraction(0)})
        assert set(p.terms) == {2}
        assert (brace(3) - brace(3)) == LaurentPoly()

    def test_divmod_roundtrip(self):
        # divisors with top coefficient +-1, the only ones divmod takes
        rng = random.Random(11)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            if not b:
                continue
            b = b + LaurentPoly({b.degree2() + rng.randint(1, 4): rng.choice((1, -1))})
            q, r = a.divmod(b)
            assert q * b + r == a

    def test_divmod_refuses_non_unit_top_coefficient(self):
        with pytest.raises(ValueError):
            qint(5).divmod(LaurentPoly({2: 2, 0: 1}))

    def test_exact_division_error(self):
        with pytest.raises(InexactDivisionError):
            (qint(2) + 1) / qint(2)


@st.composite
def int_polys(draw):
    return LaurentPoly(draw(st.dictionaries(st.integers(-20, 20), st.integers(-50, 50),
                                            max_size=8)))


def int_coefficients_only(p):
    return all(type(c) is int for c in p.terms.values())


class TestIntegerRing:
    """Int polynomials stay int polynomials under every ring operation,
    exact division included."""

    @settings(max_examples=200, deadline=None)
    @given(int_polys(), int_polys(), st.integers(0, 3), st.sampled_from((1, -1)))
    def test_coefficients_stay_ints(self, a, b, n, top):
        assert all(map(int_coefficients_only, (a + b, a - b, a * b, a ** n, -a, a * 7)))
        # a divisor with top coefficient +-1, above every exponent of b
        d = b + LaurentPoly({(b.degree2() or 0) + 1: top})
        q, r = a.divmod(d)
        assert int_coefficients_only(q) and int_coefficients_only(r)
        exact = (a * d) / d
        assert exact == a and int_coefficients_only(exact)


def dict_convolution(a, b):
    """The product of two term maps by the plain double loop."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def plain_pack(terms, lo, step, width):
    """sum_k c_e 2^{W k} added term by term: the oracle for kron_pack."""
    return sum(c << (width * ((e - lo) // step)) for e, c in terms.items())


@st.composite
def kron_operands(draw):
    """Two int term maps on one exponent step 1, 2 or 4.  Half the draws
    are dense maps of +-M on equal lengths, whose middle product
    coefficient is exactly the width bound max|a| max|b| min(len).  The
    others span at most 4 * 34 + 1 exponents, inside the branch's
    sparsity cut (span <= 70 len) for every length."""
    step = draw(st.sampled_from((1, 2, 4)))

    def term_map():
        lo = draw(st.integers(-60, 60))
        ks = draw(st.lists(st.integers(0, 34), min_size=1, max_size=25, unique=True))
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
        # negative for sign = -1, so every digit of the total is negative
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

    # beyond the recursion leaf: the pack and the unpack split their digit
    # range in halves, and the unpack first adds 2^{W-1} - 1 to every digit,
    # so that it splits plain digits in [0, 2^W)

    @pytest.mark.parametrize("n", [qcalc._KRON_LEAF + 1, 100, 129, 1000, 3000])
    def test_round_trip_with_every_digit_at_an_end_of_its_range(self, n):
        # all digits 2^{W-1} bias to 2^W - 1 and all digits 1 - 2^{W-1}
        # (a negative total) to 0, the two ends of the plain range; one
        # past either end would carry into the next digit
        for width in range(2, 65):
            half = 1 << (width - 1)
            for digit in (half, 1 - half):
                terms = {6 + 4 * k: digit for k in range(n)}
                total = qcalc.kron_pack(terms, 6, 4, width)
                assert total == plain_pack(terms, 6, 4, width)
                assert qcalc.kron_unpack(total, 6, 4, width) == terms, (width, digit)

    @pytest.mark.parametrize("width", range(2, 12))
    def test_every_small_total_decodes(self, width):
        # the top digit of a total may borrow: -7 at W = 2 is 1, 2, -1 and
        # needs a digit more than its bits
        half = 1 << (width - 1)
        for total in range(-6000, 6000):
            terms = qcalc.kron_unpack(total, 3, 4, width)
            assert plain_pack(terms, 3, 4, width) == total, (width, total)
            assert all(-half < c <= half for c in terms.values()), (width, total)
            assert list(terms) == sorted(terms), (width, total)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_of_random_digits(self, seed):
        # 100 to 3000 digits anywhere in their range, its two ends often,
        # with gaps, widths 2..64 and totals of both signs; the map comes back
        # in increasing order of exponent
        rng = random.Random(seed)
        n, width = rng.randint(100, 3000), rng.randint(2, 64)
        half = 1 << (width - 1)
        lo, step = rng.randint(-99, 99), rng.choice((1, 2, 4))
        terms = {}
        for k in range(n):
            if rng.random() < 0.8:
                terms[lo + step * k] = rng.choice((half, 1 - half, rng.randint(1 - half, half)))
        terms = {e: c for e, c in terms.items() if c}
        terms[lo + step * n] = -1 if seed % 2 else 1  # the sign of the total
        total = qcalc.kron_pack(terms, lo, step, width)
        assert total == plain_pack(terms, lo, step, width)
        assert (total < 0) == bool(seed % 2)
        out = qcalc.kron_unpack(total, lo, step, width)
        assert out == terms
        assert list(out) == sorted(out)

    @pytest.mark.parametrize("seed", range(6))
    def test_product_large_enough_to_split(self, seed):
        # products of 150..400 by 20..400 terms: the packed ints and their
        # product hold several times _KRON_LEAF digits
        rng = random.Random(seed)
        big = rng.choice((9, 2**20, 2**60))
        a = {3 + 2 * k: rng.randint(-big, big) for k in range(rng.randint(150, 400))}
        b = {-7 + 2 * k: rng.randint(-big, big) for k in range(rng.randint(20, 400))}
        a, b = ({e: c for e, c in m.items() if c} for m in (a, b))
        assert len(a) + len(b) > 2 * qcalc._KRON_LEAF
        assert qcalc._try_kronecker_mul(a, b) == dict_convolution(a, b)


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
    values at xi are the ones eval_at gives, to the last bit.  Its value
    and D-value at x0 = xi^{1/2} are what loginv's closed forms take from
    the tables, within ctx.tol relative."""

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), jet_polys(), st.integers(2, 9))
    def test_products_and_sums(self, p, r, N):
        assert ExactJet.of(p * r, N) == ExactJet.of(p, N).times(r)
        assert ExactJet.of(p + r, N) == ExactJet.of(p, N) + ExactJet.of(r, N)
        assert ExactJet.of(p - r, N) == ExactJet.of(p, N) - ExactJet.of(r, N)

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), st.integers(-200, 200), st.integers(2, 9))
    def test_shift_by_unreduced_exponent(self, p, a, N):
        assert ExactJet.of(p.shift(a), N) == ExactJet.of(p, N).shift(a)

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), st.integers(2, 9))
    def test_values_bit_for_bit(self, p, N):
        ctx = JET_CONTEXTS[N]
        jet = ExactJet.of(p, N)
        assert jet.value(ctx) == ctx.eval_at(p)
        assert jet.ddq_value(ctx) == ctx.eval_at(ddq(p))

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), st.integers(-200, 200), st.integers(2, 9))
    def test_dual_shift_by_unreduced_exponent(self, p, a, N):
        # the framing rule of loginv: q^{a/2} p has the value z v and the
        # D-value z (w + a v) at x0, z = xi^{a/2}, a unreduced
        ctx = JET_CONTEXTS[N]
        jet, shifted = ExactJet.of(p, N), ExactJet.of(p.shift(a), N)
        v, w = jet.value(ctx), ctx.eval_bins(enumerate(jet.w))
        z = ctx.xi_pow(a, 2)
        with ctx.workprec():
            got = z * v, z * (w + a * v)
        assert_within(got[0], shifted.value(ctx), ctx, a)
        assert_within(got[1], ctx.eval_bins(enumerate(shifted.w)), ctx, a)

    @pytest.mark.parametrize("N", range(2, 10))
    def test_dual_jets_of_braces_and_monomials(self, N):
        # the value and D-value at x0 that loginv reads off qsymbols and
        # half_powers, n unreduced: ({n}, 2n {n}_+) and (xi^{n/2}, n xi^{n/2})
        ctx = JET_CONTEXTS[N]
        for n in range(-5 * N, 5 * N + 1):
            with ctx.workprec():
                pairs = (((ctx.brace_at(n), 2 * n * ctx.brace_plus(n)), brace(n)),
                         ((ctx.xi_pow(n, 2), n * ctx.xi_pow(n, 2)), LaurentPoly({n: 1})))
            for (v, w), p in pairs:
                jet = ExactJet.of(p, N)
                assert_within(v, jet.value(ctx), ctx, (n, p))
                assert_within(w, ctx.eval_bins(enumerate(jet.w)), ctx, (n, p))

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), st.integers(2, 9))
    def test_dual_values_at_xi(self, p, N):
        # xi d/dq = D/2 at xi, the step from loginv's q-derivatives to its
        # closed forms: half the D-value at x0 is xi (dp/dq)(xi)
        ctx = JET_CONTEXTS[N]
        with ctx.workprec():
            got = ctx.eval_bins(enumerate(ExactJet.of(p, N).w)) / 2
            want = ctx.xi * ctx.eval_at(ddq(p))
        assert_within(got, want, ctx)


class TestQSymbols:
    def test_brace_zero(self):
        assert brace(0) == LaurentPoly()

    def test_brace_one_at_xi(self, ctx3):
        # 2i sin(pi/3) = i*sqrt(3)
        with ctx3.workprec():
            ref = mp.mpc(0, mp.sqrt(3))
        assert_close(ctx3.eval_at(brace(1)), ref, ctx3.tol)

    def test_brace_reflection_at_xi(self):
        # {2N-k} = -{k} at xi
        for N in range(2, 13):
            ctx = RootContext(N)
            for k in range(1, 2 * N):
                assert_close(ctx.eval_at(brace(2 * N - k)), -ctx.eval_at(brace(k)), ctx.tol)

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
        assert_close(ctx.eval_at(qint(5)), 0, ctx.tol)

    def test_qbinom_literal(self):
        # [4]!/([2]![2]!) expanded
        assert qbinom(4, 2) == LaurentPoly({8: 1, 4: 1, 0: 2, -4: 1, -8: 1})

    def test_qbinom_equals_factorial_ratio(self):
        # exact division of q-factorials, independent of Pascal's rule
        for n in range(21):
            for k in range(n + 1):
                assert qbinom(n, k) == (qfact(n) / qfact(k)) / qfact(n - k)

    def test_qbinom_factor_wraps_qbinom(self):
        for i in range(12):
            for n in range(i + 1):
                assert jones._qbinom_factor(i, n).poly is qbinom(i, n)

    def test_shared_values_not_mutated(self):
        # qint, qfact and qbinom hand out memoized objects; after the
        # qgroup sweep and a braid trace they still equal fresh ones
        qgroup.verification_report(RootContext(3))
        jones.colored_jones(jones.KNOT_CATALOG["4_1"], 8)
        ints = [LaurentPoly({2 * e: 1 for e in range(1 - n, n, 2)}) for n in range(13)]
        facts = [LaurentPoly.const(1)]
        for n in range(1, 13):
            facts.append(facts[-1] * ints[n])
        for n in range(13):
            assert qint(n) == ints[n] and qfact(n) == facts[n]
            for k in range(n + 1):
                assert qbinom(n, k) == (facts[n] / facts[k]) / facts[n - k]

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
                    ratio = abs(ctx.brace_plus(k) / ctx.eval_at(brace(k)))
                    cot = abs(mp.cospi(mp.mpf(k) / N) / mp.sinpi(mp.mpf(k) / N))
                    assert_close(ratio, cot, ctx.tol)


class TestDdq:
    @pytest.mark.parametrize("n", [-3, -1, 1, 2, 5])
    def test_monomial(self, n):
        assert ddq(q_power(n)) == q_power(n - 1) * n

    def test_half_exponent(self):
        # d/dq q^{1/2} = (1/2) q^{-1/2}
        assert ddq(q_power(1, 2)) == LaurentPoly({-1: Fraction(1, 2)})

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
            assert_close(ctx.eval_at(p), horner(p, xi_half(ctx)), ctx.tol)

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 13])
    def test_helpers_match_mpmath(self, N):
        ctx = RootContext(N)
        with ctx.workprec():
            one = mp.sinpi(mp.mpf(1) / N)
            assert_close(ctx.xi, mp.expjpi(mp.mpf(1) / N), ctx.tol)
            assert_close(xi_half(ctx), mp.expjpi(mp.mpf(1) / (2 * N)), ctx.tol)
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

    @pytest.mark.parametrize("digits", [30, 200])
    def test_entries_on_first_read_equal_the_eager_table(self, digits):
        # the table as it was once built, all at once: entries 0..2N from
        # mpmath at dps, the rest their conjugates; the entries filled on
        # first read, in any order and at any ambient precision, are the
        # same mpc values bit for bit
        for N in range(2, 13):
            ctx = RootContext(N, precision_digits=digits)
            with ctx.workprec():
                top = [mp.expjpi(mp.mpf(k) / (2 * N)) for k in range(2 * N + 1)]
                eager = [z._mpc_ for z in top + [z.conjugate() for z in reversed(top[1:-1])]]
            backwards = RootContext(N, precision_digits=digits)
            with mp.workdps(15):
                for k in reversed(range(4 * N)):
                    backwards.xi_pow(k, 2)
            forwards = RootContext(N, precision_digits=digits)
            with mp.workdps(500):
                for k in range(4 * N):
                    forwards.half_powers[k]
            for ctx in (backwards, forwards):
                assert [ctx.half_powers[k]._mpc_ for k in range(4 * N)] == eager

    @pytest.mark.parametrize("ambient", [15, 500])
    def test_helpers_round_nothing_at_the_ambient_precision(self, ambient):
        # the q-symbol helpers return the values made from half_powers at
        # the context's precision, bit for bit, whatever the precision
        # they are called at
        def bits(x):
            return getattr(x, "_mpc_", None) or getattr(x, "_mpf_", None)

        for digits in (30, 200):
            for N in (2, 3, 5, 8, 13):
                ctx, oracle = RootContext(N, digits), RootContext(N, digits)
                for n in range(-N, 3 * N):
                    with mp.workdps(ambient):
                        got = (ctx.brace_at(n), ctx.brace_plus(n), ctx.qint_at(n),
                               ctx.qfact_at(n) if n >= 0 else None)
                    want = qsymbols_from_half_powers(oracle, n)
                    assert list(map(bits, got)) == list(map(bits, want)), (digits, N, n)

    def test_evaluation_fills_only_the_entries_it_reads(self):
        # q^{3/2} and q^{-3/2} read entries 3 and 4N - 3, the conjugate of
        # entry 3; no other entry is computed
        ctx = RootContext(5)
        ctx.eval_at(LaurentPoly({3: 1, -3: 2}))
        assert set(ctx.half_powers) == {3, 17}
        ctx.brace_at(2)
        assert set(ctx.half_powers) == {3, 4, 17}

    def test_bad_arguments(self, ctx3):
        with pytest.raises(ValueError):
            ctx3.xi_pow(1, 3)
        with pytest.raises(ValueError):
            ctx3.qfact_at(-1)


def sin_cot_errors(tables, N):
    """The largest error of each family (sines, cots, cos2) of each
    sin_cot table, k <= N/2, in units 2^-P, against mpmath at P + 64 bits."""
    P = tables[0][-1]
    with mp.workprec(P + 64):
        roots = [mp.expjpi(mp.mpf(k) / N) for k in range(N // 2 + 1)]
        exact = [[mp.ldexp(2 * z.imag, P) for z in roots],
                 [mp.ldexp(z.real / z.imag, P) if k else 0 for k, z in enumerate(roots)],
                 [mp.ldexp(2 * (z * z).real, P) for z in roots]]
        return [[max(abs(v - x) for v, x in zip(fam, want)) for fam, want in zip(t, exact)]
                for t in tables]


class TestSinCotTable:
    # the table rotated from one root against the former one, which took
    # every root from mpmath and truncated it (conftest.sin_cot_mp)

    @pytest.mark.parametrize("N", list(range(2, 41)) + [97, 150, 400, 1600])
    def test_no_less_accurate_than_the_mpmath_table(self, N):
        ctx = RootContext(N, precision_digits=scan_precision(N))
        table, old = ctx.sin_cot, sin_cot_mp(ctx)
        P = table[-1]
        assert old[-1] == P
        new_err, old_err = sin_cot_errors((table, old), N)
        for family, e_new, e_old in zip(("sine", "cot", "cos2"), new_err, old_err):
            # the bound of the docstring: 1/2 + 2^-8 units
            assert e_new <= mp.mpf(1) / 2 + mp.mpf(2) ** -8, (family, e_new)
            assert e_new <= e_old, (family, e_new, e_old)
        sines, cots, cos2 = table[:3]
        assert (sines[0], cots[0], cos2[0]) == (0, 0, 2 << P)
        if N % 2 == 0:
            assert (sines[N // 2], cots[N // 2], cos2[N // 2]) == (2 << P, 0, -2 << P)
        for k in range(1, N):
            assert cots[N - k] == -cots[k] and sines[N - k] == sines[k] and cos2[N - k] == cos2[k]


class TestEval:
    def test_const(self, ctx3):
        assert_close(ctx3.eval_at(LaurentPoly.const(1)), 1, ctx3.tol)

    def test_brace_N_vanishes(self):
        ctx = RootContext(5)
        assert abs(ctx.eval_at(brace(5))) < ctx.tol

    def test_qint_2N_vanishes(self, ctx3):
        assert abs(ctx3.eval_at(qint(6))) < ctx3.tol

    def test_brace_at_multiples_of_N_is_exact_zero(self):
        # habiro.ddm_Vm relies on it: a Leibniz window with two multiples
        # of N must leave its running pair exactly (0, 0)
        for N in range(2, 98):
            ctx = RootContext(N)
            for k in (-2, -1, 0, 1, 2, 3):
                assert ctx.brace_at(k * N) == 0, (N, k)

    def test_tol_at_the_context_precision(self):
        # tol is rounded once, at dps, whatever the ambient precision
        tols = []
        for dps in (15, 90):
            with mp.workdps(dps):
                tols.append(RootContext(3, precision_digits=41).tol)
        assert tols[0] == tols[1]
        with mp.workdps(120):
            assert abs(tols[0] / mp.mpf(10) ** -21 - 1) < mp.mpf(10) ** -50

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
        assert_close(ctx3.lhopital_ratio(p, LaurentPoly.const(1)), ctx3.eval_at(p), ctx3.tol)

    def test_pole_is_error(self, ctx3):
        with pytest.raises(ZeroDivisionError):
            ctx3.lhopital_ratio(LaurentPoly.const(1), brace(3))

    def test_deep_cancellation(self, ctx3):
        # {3} vanishes at xi, so Phi_12 is cancelled from both sides 8 times
        deep = brace(3) ** 8
        assert_close(ctx3.lhopital_ratio(brace(1) * deep, deep), ctx3.eval_at(brace(1)), ctx3.tol)

    def test_exact_zero(self):
        for N in (2, 3, 5):
            phi = cyclotomic(4 * N)
            assert RootContext(N).lhopital_ratio(phi ** 2, phi) == 0

    def test_zero_denominator_poly(self, ctx3):
        with pytest.raises(ZeroDivisionError):
            ctx3.lhopital_ratio(brace(1), LaurentPoly())


class TestCyclotomic:
    def test_product_over_divisors(self):
        # x^n - 1 = prod_{d | n} Phi_d, and Phi_n has degree phi(n)
        for n in range(1, 49):
            prod = LaurentPoly.const(1)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == LaurentPoly({n: 1, 0: -1}), n
            totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert cyclotomic(n).degree2() == totient, n


class TestMirrorAndFormat:
    def test_mirror(self):
        p = LaurentPoly({3: 2, -1: 5})
        assert mirror(p) == LaurentPoly({-3: 2, 1: 5})
        assert mirror(brace(4)) == -brace(4)

    def test_palindromic(self):
        assert is_palindromic(qint(4))
        assert not is_palindromic(qint(4) + brace(2))

    def test_str_roundtrippable_shapes(self):
        assert str(LaurentPoly()) == "0"
        assert str(qint(2)) == "q^1 + q^-1"
        assert str(LaurentPoly({1: 1})) == "q^1/2"
        assert str(LaurentPoly({0: -3, 4: 1})) == "q^2 - 3"
