import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, strategies as st

from logjones import habiro, jones, loginv, qgroup, volume
from logjones.qcalc import LaurentPoly, RootContext, int_or_frac_to_mp, qbinom, qint

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


def q_power(num, den=1):
    """q^(num/den); den must be 1 or 2 (the lattice only holds halves)."""
    if den == 1:
        return LaurentPoly({2 * num: 1})
    if den == 2:
        return LaurentPoly({num: 1})
    raise ValueError("exponent must be an integer or half-integer")


def mirror(p):
    """Substitute q -> q^{-1}."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = {-e: c for e, c in p.terms.items()}
    return out


def valuation2(p):
    """Lowest doubled exponent of p, or None for the zero polynomial."""
    return min(p.terms) if p.terms else None


def is_palindromic(p):
    """Whether p is invariant under q -> 1/q."""
    return p.terms == {-e: c for e, c in p.terms.items()}


def xi_half(ctx):
    """xi^{1/2} = exp(pi*i/2N) of a RootContext, the point where q^{1/2} is
    evaluated."""
    return ctx.half_powers[1]


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


@st.composite
def knotted_words(draw):
    """Braid words on 2 or 3 strands, 1 to 5 generators, whose closure is a knot."""
    strands = draw(st.integers(2, 3))
    gens = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    word = tuple(draw(st.lists(gens, min_size=1, max_size=5)))
    b = jones.BraidWord(strands, word)
    assume(b.is_knot())
    return b


def gate_loop(b, d, gates, one):
    """The product of the braid word's gates on V^{(x) n}, V of dimension d,
    as a sparse map: each gate is the full map 1 x B x 1 with B = gates[sign]
    at the generator's pair of factors, applied to the identity whose
    diagonal entries are ``one``.  Entries only meet ``*``, ``+`` and
    truthiness, so LaurentPoly and mpc gates both work: the oracle for the
    packed gate loop of jones.braid_operator."""
    n = b.strands
    op = {(i, i): one for i in range(d ** n)}
    for g in b.word:
        pos = abs(g) - 1
        tail = d ** (n - pos - 2)
        left = {(i, i): one for i in range(d ** pos)}
        right = {(i, i): one for i in range(tail)}
        gate = jones.tensor_of(jones.tensor_of(left, gates[1 if g > 0 else -1], d * d), right, tail)
        op = jones.mat_mul(gate, op)
    return op


def dict_braid_operator(b, V):
    """(entries, den): the braid operator on V^{(x) n} over LaurentPoly
    entries and the product of its braidings' denominators."""
    local = {sign: jones.braiding(V, sign) for sign in {1 if g > 0 else -1 for g in b.word}}
    den = LaurentPoly.const(1)
    for g in b.word:
        den = den * local[1 if g > 0 else -1][1]
    gates = {sign: op for sign, (op, _) in local.items()}
    return gate_loop(b, V.dim, gates, LaurentPoly.const(1)), den


def weight_sum(idx, k, V):
    """The K weight of basis vector idx of V^{(x) k}: the sum of the weights
    of its k lowest base-dim digits."""
    total = 0
    for _ in range(k):
        idx, rem = divmod(idx, V.dim)
        total += V.weights[rem]
    return total


def dict_quantum_trace(entries, V, n):
    """tr(K^{(x)n} . op) of a LaurentPoly operator."""
    out = LaurentPoly()
    for (r, c), v in entries.items():
        if r == c:
            out = out + v.shift(2 * weight_sum(r, n, V))
    return out


def dict_partial_trace(entries, V, n):
    """The partial quantum trace over the right n-1 factors of a
    LaurentPoly operator, as a dense dim x dim matrix."""
    d = V.dim
    rest = d ** (n - 1)
    out = [[LaurentPoly() for _ in range(d)] for _ in range(d)]
    for (r, c), v in entries.items():
        a, tr = divmod(r, rest)
        b_, tc = divmod(c, rest)
        if tr == tc:
            out[a][b_] = out[a][b_] + v.shift(2 * weight_sum(tr, n - 1, V))
    return out


def colored_jones_numeric(b, m, q_half):
    """The quantum trace of b on W_m at a numeric q given by its square root:
    the gate loop of the braid trace run on mpc entries, an oracle for the
    exact colored Jones polynomial evaluated by horner."""
    jones.check_knot(b)
    V = jones.build_Wm(m)
    gates = {}
    for sign in {1 if g > 0 else -1 for g in b.word}:
        loc, den = jones.braiding(V, sign)
        den_val = horner(den, q_half)
        gates[sign] = {k: horner(v, q_half) / den_val for k, v in loc.items()}
    op = gate_loop(b, V.dim, gates, mp.mpc(1))
    q = q_half * q_half
    n = b.strands
    tot = mp.mpc(0)
    for (r, c), v in op.items():
        if r == c:
            tot += v * q ** weight_sum(r, n, V)
    return tot


def exact_Vm(knot, m, framing=0):
    """Exact V_m with the given framing, from the knot's cyclotomic
    coefficients (a braid word is traced through colors 1..m)."""
    v = habiro.reconstruct_Vm(habiro.coeffs_for(knot, m), m)
    return v.shift((m * m - 1) * framing) if framing else v


def exact_normalized_Vm(knot, m, framing=0):
    """Exact V_m/[m]_q (a Laurent polynomial for knots), framed."""
    v = habiro.reconstruct_normalized_Vm(habiro.coeffs_for(knot, m), m)
    return v.shift((m * m - 1) * framing) if framing else v


def kashaev_invariant(knot, N, ctx=None):
    """<L>_N as the normalized limit lim_{q->xi} V_N/[N] (= -gamma_N), the
    exact polynomial V_N/[N] evaluated at xi: the oracle for
    loginv.gamma_boundary at s = N.

    The plain evaluation V_N(L) at xi is identically 0 because [N]
    vanishes at xi; unnormalized_VN_at_xi shows that value.  The two
    normalization conventions are deliberately kept separate.
    """
    ctx = ctx or RootContext(N)
    return ctx.eval_at(exact_normalized_Vm(knot, N))


def unnormalized_VN_at_xi(knot, N, ctx=None):
    ctx = ctx or RootContext(N)
    return ctx.eval_at(exact_Vm(knot, N))


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


def basis_change_inverse(alpha, beta, gamma, N, ctx):
    """(alpha_s, beta_s, gamma_s) -> (a_s, b_s^+, b_s^-), the exact inverse
    of loginv.basis_change (no singularity for 1 <= s <= N-1): its
    round-trip oracle."""
    if len(alpha) != N - 1 or len(beta) != N - 1 or len(gamma) != N + 1:
        raise ValueError("expected alpha/beta of length N-1 and gamma of length N+1")
    with ctx.workprec():
        idem = [mp.mpc(gamma[0])]
        rad_plus = []
        rad_minus = []
        for s in range(1, N):
            a_s = (-1) ** (N + s) * mp.mpc(alpha[s - 1]) / (N * ctx.brace_at(s))
            idem.append(a_s)
            qs2 = ctx.qint_at(s) ** 2
            g = mp.mpc(gamma[s]) - ctx.brace_plus(s) * a_s
            rad_plus.append((g + mp.mpf(N - s) / N * mp.mpc(beta[s - 1])) / qs2)
            rad_minus.append((g - mp.mpf(s) / N * mp.mpc(beta[s - 1])) / qs2)
        idem.append(-mp.mpc(gamma[N]))
        return idem, rad_plus, rad_minus


def framed_corrections(base, f, ctx):
    """Framed coefficients from framing-0 ones.

    b_s^+(L^f) = xi^{(s^2-1)f/2} b_s^+(L) + (s-N) f {1} V_s(L^f)/[s]^2 at xi
    b_s^-(L^f) = xi^{(s^2-1)f/2} b_s^-(L) +     s f {1} V_s(L^f)/[s]^2 at xi

    The correction terms carry the framed evaluation V_s(L^f) at xi; the
    source corollary prints the unframed V_s(L) there, which fails the
    direct framed-derivative cross-check (see tests), so the framed form
    is used.  a_s, alpha_s, gamma_s pick up the phase xi^{(s^2-1)f/2};
    a_0 and a_N use the boundary phases xi^{-f/2} and xi^{(N^2-1)f/2}.
    ctx must be at the record's N.
    """
    N = base.N
    if ctx.N != N:
        raise ValueError(f"the record is at N={N} but the context at N={ctx.N}")
    if base.framing != 0:
        raise ValueError("framed_corrections starts from a framing-0 record")
    if f == 0:
        return loginv.CenterCoeffs(N, base.knot, 0, list(base.idem), list(base.rad_plus),
                                   list(base.rad_minus), list(base.alpha), list(base.beta),
                                   list(base.gamma))
    with ctx.workprec():
        one = ctx.brace_at(1)
        idem = [base.idem[0] * ctx.xi_pow(-f, 2)]
        rad_plus = []
        rad_minus = []
        for s in range(1, N):
            phase = ctx.xi_pow((s * s - 1) * f, 2)
            a_framed = base.idem[s] * phase
            idem.append(a_framed)
            vs_framed = a_framed * ctx.qint_at(s)  # V_s(L^f) at xi
            qs2 = ctx.qint_at(s) ** 2
            rad_plus.append(phase * base.rad_plus[s - 1] + (s - N) * f * one * vs_framed / qs2)
            rad_minus.append(phase * base.rad_minus[s - 1] + s * f * one * vs_framed / qs2)
        idem.append(base.idem[N] * ctx.xi_pow((N * N - 1) * f, 2))
        alpha, beta, gamma = loginv.basis_change(idem, rad_plus, rad_minus, ctx)
    return loginv.CenterCoeffs(N, base.knot, f, idem, rad_plus, rad_minus, alpha, beta, gamma)


def displayed_modified(sign, m, N):
    """Y_m^+ (2N-dim) or Y_m^- (4N-dim) spelled out as the two displays,
    one branch per sign, in the order qgroup.build_modified inserts its
    entries: the oracle for its one sign-free loop."""
    if sign > 0:
        na, nb = 2 * N - m, m
        alpha_w = [2 * N - m - 1 - 2 * i for i in range(na)]
        beta_w = [m - 1 - 2 * i for i in range(nb)]
    else:
        na, nb = 2 * N + m, 2 * N - m
        alpha_w = [2 * N + m - 1 - 2 * i for i in range(na)]
        beta_w = [2 * N - m - 1 - 2 * i for i in range(nb)]
    labels = [f"alpha{i}" for i in range(na)] + [f"beta{i}" for i in range(nb)]
    E, F = {}, {}
    for i in range(na):
        if i >= 1:
            E[(i - 1, i)] = qint(i)
        if sign > 0:
            if N - m + 1 <= i <= N:
                E[(na + (m - N + i - 1), i)] = qbinom(2 * N - m - i - 1, N - i)
            if i != N - m - 1 and i + 1 < na:
                F[(i + 1, i)] = qint(2 * N - m - i - 1)
            elif i == N - m - 1:
                F[(i + 1, i)] = qint(N)
                F[(na + 0, i)] = qbinom(N - 1, m - 1)
        else:
            if m + 1 <= i <= 2 * N:
                E[(na + (i - m - 1), i)] = qbinom(2 * N + m - 1 - i, 2 * N - i)
            if i != m - 1 and i + 1 < na:
                F[(i + 1, i)] = qint(2 * N + m - 1 - i)
            elif i == m - 1:
                F[(i + 1, i)] = qint(2 * N)
                F[(na + 0, i)] = qbinom(2 * N - 1, 2 * N - m - 1)
    for i in range(nb):
        if i >= 1:
            E[(na + i - 1, na + i)] = qint(i)
        if i + 1 < nb:
            F[(na + i + 1, na + i)] = qint((m if sign > 0 else 2 * N - m) - i - 1)
    return jones.WeightRep(na + nb, E, F, tuple(alpha_w + beta_w)), labels


def with_entry(V, side, key, value):
    """V with the entry key of its E action (side "E") or of its F action
    (side "F") set to value: a negative control, which breaks the
    relations of V."""
    E, F = dict(V.E), dict(V.F)
    (E if side == "E" else F)[key] = value
    return jones.WeightRep(V.dim, E, F, V.weights)


def rmatrix_specialization_by_limits(rep1, rep2, ctx):
    """The R-matrix specialization check by limits: every term with
    n >= N is formed by jones.rmatrix_terms, and each of its entries is
    evaluated at xi, or taken as the exact limit num/den there when the
    term keeps the denominator {n}!.  The worst magnitude, or mp.inf at a
    pole: the oracle for qgroup.rmatrix_specialization_check, which forms
    no term."""
    N = ctx.N
    one = LaurentPoly.const(1)
    worst = mp.mpf(0)
    with ctx.workprec():
        for n, term, den in jones.rmatrix_terms(rep1, rep2):
            if n < N:
                continue
            plain = den == one
            for v in term.values():
                try:
                    mag = abs(ctx.eval_at(v)) if plain else abs(ctx.lhopital_ratio(v, den))
                except ZeroDivisionError:
                    return mp.inf
                if mag > worst:
                    worst = mag
    return worst


def weight_multiset(mod, ctx):
    """Sorted K-eigenvalues of a qgroup.RestrictedModule (as complex numbers
    rounded at tolerance scale)."""
    with ctx.workprec():
        vals = [mod.matK[(i, i)] for i in range(mod.dim)]
        return sorted(vals, key=lambda z: (mp.nstr(z.real, 25), mp.nstr(z.imag, 25)))


def eta_block_data(b, m, sign, N, ctx):
    """Decompose the partial trace qgroup.eta_partial_trace on Y_m^sign
    into (alpha scalar, beta scalar, couplings, off-block residual);
    couplings maps (beta_row, alpha_col) label pairs to values."""
    at_xi, rep, labels = qgroup.eta_partial_trace(b, m, sign, ctx)
    na = (2 * N - m) if sign > 0 else (2 * N + m)
    nb = rep.dim - na
    with ctx.workprec():
        alpha_diag = [at_xi[i][i] for i in range(na)]
        beta_diag = [at_xi[na + i][na + i] for i in range(nb)]
        couplings = {}
        residual = mp.mpf(0)
        for i in range(rep.dim):
            for j in range(rep.dim):
                v = at_xi[i][j]
                if i == j:
                    continue
                if i >= na and j < na:
                    if abs(v) > ctx.tol:
                        couplings[(labels[i], labels[j])] = v
                    continue
                residual = max(residual, abs(v))
        scatter_a = max(abs(x - alpha_diag[0]) for x in alpha_diag)
        scatter_b = max(abs(x - beta_diag[0]) for x in beta_diag)
    return {
        "alpha_scalar": alpha_diag[0],
        "beta_scalar": beta_diag[0],
        "alpha_scatter": scatter_a,
        "beta_scatter": scatter_b,
        "couplings": couplings,
        "off_block_residual": residual,
        "labels": labels,
    }


def lobachevsky_quadrature(x, dps=30):
    """-int_0^x log|2 sin t| dt by adaptive quadrature (test oracle)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(0)
        return -mp.quad(lambda t: mp.log(abs(2 * mp.sin(t))), [0, x])


def cone_t(alpha, dps=30):
    """t = 1 + cos a - cos 2a, whose arccosh is -dVol/da."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        return 1 + mp.cos(a) - mp.cos(2 * a)


def cone_volume_derivative_reference(alpha, dps=30):
    """-arccosh(1 + cos a - cos 2a), the known dVol/da."""
    with mp.workdps(dps):
        t = cone_t(alpha, dps)
        return -mp.acosh(t) if t >= 1 else mp.nan


def alpha_turns(alpha):
    """alpha / 2 pi as a Fraction, read at the 15 significant digits that a
    double carries.  An alpha meant as a rational multiple of 2 pi (pi/5,
    2 pi 0.05) arrives rounded, often just below that multiple; read this
    way it is the multiple itself."""
    with mp.workdps(30):
        return Fraction(mp.nstr(mp.mpf(alpha) / (2 * mp.pi), 15))


def s_N_alpha(N, alpha):
    """floor(N a / 2 pi) clamped into [0, N], with a / 2 pi from alpha_turns."""
    return min(max(math.floor(N * alpha_turns(alpha)), 0), N)


def convergence_gaps(alpha, Ns=(100, 200, 400)):
    """|(2 pi/N) log|gamma_{s_N^a}| - Vol(M_a)| for each N, with a / 2 pi
    read by alpha_turns; the volume conjecture predicts these shrink."""
    turns = alpha_turns(alpha)
    gaps = []
    for N in Ns:
        ctx = RootContext(N, precision_digits=volume.scan_precision(N))
        s = s_N_alpha(N, alpha)
        with ctx.workprec():
            g = volume.gamma_fig8_fast(N, s, ctx)
            val = 2 * mp.pi / N * mp.log(abs(g))
            vol = volume.cone_volume(2 * mp.pi * turns.numerator / turns.denominator, ctx.dps)
            gaps.append(float(abs(val - vol)))
    return gaps
