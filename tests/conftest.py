import mpmath as mp
import pytest

from logjones import jones, loginv
from logjones.qcalc import RootContext, int_or_frac_to_mp

# library code manages its own working precision; test-side arithmetic on
# returned values must not round through the mpmath default of 15 digits
mp.mp.dps = 90


@pytest.fixture(scope="session")
def ctx3():
    return RootContext(3)


@pytest.fixture(scope="session")
def ctx4():
    return RootContext(4)


def assert_close(a, b, tol):
    with mp.workdps(120):
        d = abs(mp.mpc(a) - mp.mpc(b))
    assert d < tol, f"|{a} - {b}| = {mp.nstr(d, 5)} >= {mp.nstr(mp.mpf(tol), 5)}"


def horner(p, q_half):
    """p at q^{1/2} = q_half by Horner's rule, at the ambient precision: the
    oracle for RootContext.eval_at and for evaluation away from xi."""
    q_half = mp.mpc(q_half)
    if not p.terms:
        return mp.mpc(0)
    exps = sorted(p.terms, reverse=True)
    acc = mp.mpc(int_or_frac_to_mp(p.terms[exps[0]]))
    for prev, e in zip(exps, exps[1:]):
        acc = acc * q_half ** (prev - e) + int_or_frac_to_mp(p.terms[e])
    return acc * q_half ** exps[-1]


def colored_jones_numeric(b, m, q_half):
    """The quantum trace of b on W_m at a numeric q given by its square root:
    the gate loop of the braid trace run on mpc entries, an oracle for the
    exact colored Jones polynomial evaluated by horner."""
    jones.check_knot(b)
    V = jones.build_Wm(m)
    by_sign = {}
    for sign, (loc, den) in jones._word_braidings(b, V).items():
        den_val = horner(den, q_half)
        by_sign[sign] = jones._by_col({k: horner(v, q_half) / den_val for k, v in loc.items()})
    op = jones._word_product(b, V.dim, by_sign, mp.mpc(1))
    q = q_half * q_half
    n = b.strands
    tot = mp.mpc(0)
    for (r, c), v in op.entries.items():
        if r == c:
            tot += v * q ** jones._weight_sum(r, n, V)
    return tot


def kashaev_invariant(knot, N, ctx=None):
    """<L>_N as the normalized limit lim_{q->xi} V_N/[N] (= -gamma_N), the
    exact polynomial V_N/[N] evaluated at xi: the oracle for
    loginv.gamma_boundary at s = N.

    The plain evaluation V_N(L) at xi is identically 0 because [N]
    vanishes at xi; unnormalized_VN_at_xi shows that value.  The two
    normalization conventions are deliberately kept separate.
    """
    ctx = ctx or RootContext(N)
    return ctx.eval(loginv.exact_normalized_Vm(knot, N))


def unnormalized_VN_at_xi(knot, N, ctx=None):
    ctx = ctx or RootContext(N)
    return ctx.eval(loginv.exact_Vm(knot, N))


def window_ddm_Vm(h, s, ctx):
    """d/dm V_m at m = s, q = xi, each Leibniz window rebuilt from its own
    factors: the oracle for habiro.ddm_Vm.

    A term survives only when every undifferentiated factor is nonzero at
    xi, so windows [s-i, s+i] that meet two multiples of N are skipped,
    one with a single multiple keeps only the derivative of that factor,
    and the rest sum {k}_+/{k} over the window.
    """
    N = ctx.N
    a = h.at_xi(2 * N, ctx)
    with ctx.workprec():
        total = mp.mpc(0)
        for i in range(2 * N):
            ks = range(s - i, s + i + 1)
            vanishing = [k for k in ks if k % N == 0]
            if len(vanishing) >= 2:
                continue
            if len(vanishing) == 1:
                k0 = vanishing[0]
                prod = mp.mpc(1)
                for k in ks:
                    if k != k0:
                        prod *= ctx.brace_at(k)
                total += a[i] * ctx.brace_plus(k0) * prod
            else:
                prod = mp.mpc(1)
                for k in ks:
                    prod *= ctx.brace_at(k)
                cot_sum = mp.fsum(ctx.brace_plus(k) / ctx.brace_at(k) for k in ks)
                total += a[i] * prod * cot_sum
        return mp.mpc(0, mp.pi) / N * total / ctx.brace_at(1)
