import functools
import json
import math
import operator
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import (dps_to_prec, fhalf, from_man_exp, mpf_acos, mpf_cos, mpf_log, mpf_sub,
                          pi_fixed, round_nearest, to_fixed)
from hypothesis import assume, strategies as st

from logjones import habiro, jones, loginv, qgroup, volume
from logjones.qcalc import (LaurentPoly, RootContext, brace, int_or_frac_to_mp, kron_unpack, qbinom,
                            qint, residue_bins)

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
def knotted_words(draw, max_strands=3):
    """Braid words on 2 to max_strands strands, 1 to 5 generators, whose
    closure is a knot."""
    strands = draw(st.integers(2, max_strands))
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


def basis_rescaled(op, V):
    """A braiding after the change of basis f_i -> q^{psi_p(t_i)/2} f_i
    in tensor factor p, where t_i = (max weight - weight of f_i)/2 is the
    weight index (i itself on W_m), psi_p(t) = (t mod 2) + 2p*t when the
    weights are odd and psi_p(t) = (t mod 2) when they are even: the
    oracle for the basis that jones._wm_gates builds its gates in.

    The rescaling is diagonal, so it commutes with K and leaves every
    trace alone.  A gate at factors p, p+1 keeps the weight, so
    t_k + t_l = t_i + t_j, and it shifts entry ((k, l), (i, j)) by the
    same amount for every p."""
    d = V.dim
    t = [(max(V.weights) - w) // 2 for w in V.weights]
    odd = 2 if max(V.weights) % 2 else 0
    out = {}
    for (r, c), v in op.items():
        k, l = divmod(r, d)
        i, j = divmod(c, d)
        out[(r, c)] = v.shift((t[k] & 1) + (t[l] & 1) - (t[i] & 1) - (t[j] & 1) + odd * (t[l] - t[j]))
    return out


def decoded_wm_gates(m, sign):
    """The closed-form gates jones._wm_gates(m, sign) multiplied out, each
    entry coef q^{shift/2} times its factors' product as a LaurentPoly, in
    the basis of basis_rescaled."""
    return {k: math.prod((f.poly for f in fs), start=LaurentPoly.const(coef)).shift(shift)
            for k, (coef, shift, fs) in jones._wm_gates(m, sign).items()}


def traced_block(op):
    """The one block (0, 0) of the partial trace of a braid_operator
    operator that quantum_trace decodes, as a LaurentPoly."""
    block, layout = jones._traced_block(op)
    return LaurentPoly(kron_unpack(block, *layout))


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


def dict_eta_partial_trace(b, m, sign, ctx):
    """qgroup.eta_partial_trace on the dict oracle: the full operator of
    dict_braid_operator, its dict_partial_trace and the exact limit at xi
    of each entry over the operator's denominator."""
    rep, _ = qgroup.build_modified(sign, m, ctx.N)
    entries, den = dict_braid_operator(b, rep)
    traced = dict_partial_trace(entries, rep, b.strands)
    return [[ctx.lhopital_ratio(p, den) for p in row] for row in traced]


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


def dict_ladder(m):
    """L_0(m), ..., L_{m-1}(m), L_i(m) = prod_{j=1}^{i} {m+j}{m-j}, as
    products of dict polynomials: the oracle for the packed ladder of
    habiro._ladder."""
    rung = LaurentPoly.const(1)
    for i in range(m):
        if i:
            rung = rung * (brace(m + i) * brace(m - i))
        yield rung


def dict_ladder_head(h, m, n):
    """sum_{i<n} a_i L_i(m) on the dict ladder (oracle for
    habiro.ladder_head)."""
    out = LaurentPoly()
    for i, rung in zip(range(n), dict_ladder(m)):
        out = out + h.coeff(i) * rung
    return out


def dict_extract_coeffs(values):
    """a_0..a_{M-1} from exact 0-framed V_1..V_M by forward substitution
    on the dict ladder (oracle for habiro.extract_coeffs)."""
    coeffs = []
    for m, vm in enumerate(values, start=1):
        acc = vm / qint(m)
        *lower, top = dict_ladder(m)
        for a, rung in zip(coeffs, lower):
            acc = acc - a * rung
        coeffs.append(acc / top)
    return coeffs


# -- exact jets: the residues mod x^{4N} - 1, the oracle of the values at xi


def rotate(v: list, k: int) -> list:
    """The bins of x^k times the bins v, mod x^{len(v)} - 1."""
    k %= len(v)
    return v[-k:] + v[:-k] if k else v


class ExactJet:
    """A polynomial p and D p, D = x d/dx with x = q^{1/2}, both reduced
    mod x^{4N} - 1: ``v[k]`` is the sum of the coefficients c_e with
    doubled exponent e = k mod 4N and ``w[k]`` the sum of e c_e.

    D is a derivation, so p -> (v, w) is a ring homomorphism into pairs
    with the product (v, w)(v', w') = (v v', w v' + v w'), cyclic
    convolutions of length 4N.  It keeps what evaluation at xi reads:
    p(xi) is v dotted with ``half_powers`` and, since d/dq = D/(2q),
    (dp/dq)(xi) is w/2 one step q^{-1} down, both exact up to that dot
    product.  So a polynomial that is only ever evaluated at xi, or
    differentiated there once, never has to be built.
    """

    __slots__ = ("v", "w")

    def __init__(self, v: list, w: list):
        self.v = v
        self.w = w

    @classmethod
    def of(cls, p: LaurentPoly, N: int) -> "ExactJet":
        n = 4 * N
        v, w = [0] * n, [0] * n
        for k, c in residue_bins(p.terms, n).items():
            v[k] = c
        for k, c in residue_bins({e: e * c for e, c in p.terms.items()}, n).items():
            w[k] = c
        return cls(v, w)

    def __eq__(self, other):
        if not isinstance(other, ExactJet):
            return NotImplemented
        return self.v == other.v and self.w == other.w

    def __add__(self, other: "ExactJet") -> "ExactJet":
        return ExactJet(list(map(operator.add, self.v, other.v)),
                        list(map(operator.add, self.w, other.w)))

    def __sub__(self, other: "ExactJet") -> "ExactJet":
        return ExactJet(list(map(operator.sub, self.v, other.v)),
                        list(map(operator.sub, self.w, other.w)))

    def times(self, p: LaurentPoly) -> "ExactJet":
        """The jet of (this polynomial) * p, for a sparse p: each term
        c x^a rotates both vectors by a and adds a c v to w, with a the
        unreduced exponent (D x^a = a x^a)."""
        v_out = w_out = [0] * len(self.v)
        for a, c in p.terms.items():
            v, w = rotate(self.v, a), rotate(self.w, a)
            v_out = [x + c * y for x, y in zip(v_out, v)]
            w_out = [x + c * (y + a * z) for x, y, z in zip(w_out, w, v)]
        return ExactJet(v_out, w_out)

    def shift(self, half_steps: int) -> "ExactJet":
        """The jet of (this polynomial) * q^(half_steps/2)."""
        return self.times(LaurentPoly({half_steps: 1}))

    def value(self, ctx: "RootContext"):
        """p at q = xi."""
        return ctx.eval_bins(enumerate(self.v))

    def ddq_value(self, ctx: "RootContext"):
        """dp/dq at q = xi: the bins of ddq(p) are w[k]/2 at k - 2.  The
        halving comes after the dot product, where it is exact in binary,
        so the value is that of ctx.eval_at(ddq(p)) to the last bit."""
        n = len(self.w)
        with ctx.workprec():
            return ctx.eval_bins(((k - 2) % n, c) for k, c in enumerate(self.w)) / 2


def exact_Vm_jets(h, N, colors):
    """{m: the ExactJet of V_m/[m]} for the given colors, by the exact
    Horner pass per residue r = +-m mod N that habiro._residue_pass runs
    on values at xi: u_k = x^{4k} + x^{-4k} has the jet
    (U_r, +-m delta_r) at color m, U_r the bins of x^{4r} + x^{-4r} and
    delta_r those of 4x^{4r} - 4x^{-4r}, and the pass carries the jet
    (v, w) of P(U_r) and the bins d of P'(U_r) over a_0..a_{n-1},
    n = min(N, coefficients held).  O(N) list operations of length 4N
    per rung: the oracle for the values and color slopes at N up to 100."""
    n = N if h.i_max is None else min(N, h.i_max + 1)
    a = [ExactJet.of(h.coeff(i), N) for i in range(n)]
    passes = {}
    out = {}
    for m in colors:
        habiro._check_color(h, m, min(m, N))
        rho = m % N
        r, sign = (rho, m) if 2 * rho <= N else (N - rho, -m)
        if r not in passes:
            up, down = 4 * r, -4 * r
            v, w = a[n - 1].v, a[n - 1].w
            d = [0] * (4 * N)
            for j in range(n - 1, 0, -1):
                uj = 4 * j
                d = [x + p + q - s - t for x, p, q, s, t in
                     zip(v, rotate(d, up), rotate(d, down), rotate(d, uj), rotate(d, -uj))]
                vs, vt = rotate(v, uj), rotate(v, -uj)
                w = [x + p + q - s - t - uj * (y - z) for x, p, q, s, t, y, z in
                     zip(a[j - 1].w, rotate(w, up), rotate(w, down), rotate(w, uj),
                         rotate(w, -uj), vs, vt)]
                v = [x + p + q - s - t for x, p, q, s, t in
                     zip(a[j - 1].v, rotate(v, up), rotate(v, down), vs, vt)]
            slope = [4 * (p - q) for p, q in zip(rotate(d, up), rotate(d, down))]
            passes[r] = (v, w, slope)
        v, w, slope = passes[r]
        out[m] = ExactJet(v, [x + sign * y for x, y in zip(w, slope)])
    return out


def assert_within(got, want, ctx, what=""):
    """got within ctx.tol max(1, |want|) of want."""
    with mp.workdps(ctx.dps + 20):
        err, bound = abs(got - want), ctx.tol * max(1, abs(want))
    assert err < bound, (what, mp.nstr(err, 5), mp.nstr(bound, 5))


def assert_colors_at_xi(h, jets, ctx, framing=0, what=""):
    """habiro.normalized_Vm_at_xi against jets = {m: the ExactJet of the
    framed V_m/[m]}, framing f: at every color m the value z_m p
    (loginv._framed_value) against the jet's value at xi, and for two
    colors m, m' of one class +-m mod 2N, which share z_m and the D-value
    of P(U_r), z_m (c_m - c_m' + (k_m - k_m') p), k_m = (m^2-1) f, against
    the difference of the jets' D-values at x0 = xi^{1/2}; each within
    ctx.tol max(1, |want|)."""
    N = ctx.N
    first = {}
    for m, jet in jets.items():
        k = (m * m - 1) * framing
        p, c = habiro.normalized_Vm_at_xi(h, m, ctx)
        with ctx.workprec():
            value = loginv._framed_value(h, m, ctx, framing)
            slope = loginv._framing_phase(m, ctx, framing) * (c + k * p)
        assert_within(value, jet.value(ctx), ctx, (what, m))
        d_value = ctx.eval_bins(enumerate(jet.w))
        cls = min(m % (2 * N), -m % (2 * N))
        if cls not in first:
            first[cls] = (m, slope, d_value)
            continue
        m0, slope0, d_value0 = first[cls]
        with mp.workdps(ctx.dps + 20):
            assert_within(slope - slope0, d_value - d_value0, ctx, (what, m0, m))


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


def b_pm_via_habiro(knot, s: int, ctx: RootContext):
    """The closed form of Prop-style Habiro sums (framing 0), the oracle of
    the proposition's display for loginv.b_pm_via_derivative:

    b_s^+ = b_s^- = {1}^2/{s} ( sum_{i<su} a_i {s+i}!/({s}{s-i-1}!)
                                  sum_{k=s-i..s+i, k != s} {k}_+/{k}
                    + 2 sum_{i=su..sb-1} a_i ~{s+i,i} ~{s-1,i} ),

    with su = min(s, N-s), sb = max(s, N-s).  The statement display of the
    source proposition carries [s] in place of the inner {s}; the proof's
    final display (used here) is the one consistent with the q-derivative
    route, and the discrepancy is exercised in the tests.

    With ~{s+i,2i+1} = ~{s+i,i} {s} ~{s-1,i} and {s} != 0 the bracket is
    (G - ({s}_+/{s}) sum_{i<su} a_i {s+i,2i+1})/{s} in the G of
    habiro.tilde_sum.  That sum is {1} V_s = {s} V_s/[s] at xi (see
    habiro.tilde_sum), so b_s^+- = ({1}/{s})^2 (G - {s}_+ V_s/[s]).
    """
    N = ctx.N
    if not 1 <= s <= N - 1:
        raise ValueError("s must be in 1..N-1")
    h = habiro.coeffs_for(knot, N)
    with ctx.workprec():
        a_s = habiro.normalized_Vm_at_xi(h, s, ctx)[0]
        g = habiro.tilde_sum(h, s, ctx)
        return (ctx.brace_at(1) / ctx.brace_at(s)) ** 2 * (g - ctx.brace_plus(s) * a_s)


def window_ddm_Vm(h, s, ctx):
    """d/dm V_m at m = s, q = xi, each Leibniz window rebuilt from its own
    factors: the oracle for habiro.ddm_Vm.

    A term survives only when every undifferentiated factor is nonzero at
    xi, so windows [s-i, s+i] that meet two multiples of N are skipped,
    one with a single multiple keeps only the derivative of that factor,
    and the rest sum {k}_+/{k} over the window.  Every window i >= N holds
    two multiples, so a_0..a_{N-1} are the a_i that enter.
    """
    N = ctx.N
    a = h.at_xi(ctx)
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


def ddm_Vm_mpc(h, s, ctx):
    """d/dm V_m at m = s, q = xi, by the Leibniz pair (P, D) on complex
    values, each q-symbol read through the context's helpers: the oracle
    for the real pair of habiro.ddm_Vm, which must equal it bit for bit.

    (P, D) starts at ({s}, {s}_+), and each i multiplies in f = {s+i} and
    g = {s-i}: (P, D) -> (P f g, D f g + P (f_+ g + f g_+)).
    """
    N = ctx.N
    a = h.at_xi(ctx)
    with ctx.workprec():
        P, D = ctx.brace_at(s), ctx.brace_plus(s)
        total = a[0] * D
        for i in range(1, N):
            f, g = ctx.brace_at(s + i), ctx.brace_at(s - i)
            f_plus, g_plus = ctx.brace_plus(s + i), ctx.brace_plus(s - i)
            fg = f * g
            P, D = P * fg, D * fg + P * (f_plus * g + f * g_plus)
            total += a[i] * D
        return mp.mpc(0, mp.pi) / N * total / ctx.brace_at(1)


def qsymbols_from_half_powers(ctx, n):
    """({n}, {n}_+, [n], [n]! or None for n < 0) at xi, each computed from
    ``half_powers`` at the context's precision on every call, as the
    q-symbol helpers once did: the oracle of the values that
    RootContext.qsymbols holds, at any ambient precision."""
    def qint(k):
        return ctx.xi_pow(k).imag / ctx.xi.imag

    with ctx.workprec():
        qfact = None if n < 0 else mp.mpf(1)
        for k in range(1, n + 1):
            qfact *= qint(k)
        return mp.mpc(0, 2 * ctx.xi_pow(n).imag), 2 * ctx.xi_pow(n).real, qint(n), qfact


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


def displayed_restricted(kind, idx, ctx):
    """(dim, matE, matF, matK, labels) of U_s^+-, V_s^+- (kind 'U+', ..,
    'V-', s = idx) or P_s^+, P_{N-s}^- (kind 'P+' with s = idx, 'P-' with
    s = N - idx), written at xi from the displayed actions, with the sign
    of each x and y ladder entry kept by hand: the oracle for the one
    ladder rule of qgroup.build_restricted."""
    N = ctx.N
    one = mp.mpc(1)
    with ctx.workprec():
        if kind[0] in "UV":
            sgn = 1 if kind[1] == "+" else -1
            d = idx if kind[0] == "U" else N
            E, F, K = {}, {}, {}
            for n in range(d):
                K[(n, n)] = sgn * ctx.xi_pow(idx - 1 - 2 * n)
                if n >= 1:
                    E[(n - 1, n)] = sgn * ctx.qint_at(n) * ctx.qint_at(idx - n)
                if n <= d - 2:
                    F[(n + 1, n)] = one
            return d, E, F, K, [f"{kind[0].lower()}{n}" for n in range(d)]
        plus = kind == "P+"
        s = idx if plus else N - idx
        k = N - s
        size = {"x": k, "y": k, "a": s, "b": s}
        labels = [f"{c}{j}" for c in "xyab" for j in range(size[c])]
        pos = {lab: i for i, lab in enumerate(labels)}
        top = {"x": (2 * N if plus else 0) - s - 1, "y": -s - 1,
               "a": s - 1, "b": s - 1 - (0 if plus else 2 * N)}
        K = {(i, i): ctx.xi_pow(top[lab[0]] - 2 * int(lab[1:])) for i, lab in enumerate(labels)}
        E = {(pos[f"a{s-1}"], pos["y0"]): one, (pos[f"x{k-1}"], pos["b0"]): one}
        F = {}
        for c in "xyab":
            for n in range(1, size[c]):
                v = ctx.qint_at(n) * ctx.qint_at(size[c] - n)
                E[(pos[f"{c}{n-1}"], pos[f"{c}{n}"])] = -v if c in "xy" else v
                F[(pos[f"{c}{n}"], pos[f"{c}{n-1}"])] = one
        upper, lower = ("a", "b") if plus else ("x", "y")
        for n in range(1, size[upper]):
            E[(pos[f"{upper}{n-1}"], pos[f"{lower}{n}"])] = one
        for src, dst in ((("x", "a"), ("b", "y")) if plus else (("y", "b"), ("a", "x"))):
            F[(pos[f"{dst}0"], pos[f"{src}{size[src] - 1}"])] = one
        return 2 * N, E, F, K, labels


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


def lobachevsky(x, dps=30):
    """Lobachevsky function L(x) = (1/2) sum_{n>=1} sin(2nx)/n^2 = Cl_2(2x)/2
    at dps digits, by volume._clausen, the kernel of volume.cone_volume.

    t = 2x is reduced to |t| <= pi in mpf with guard bits first: the
    kernel's own reduction, with pi at the scale 2^q, would lose about
    log2|x| of its 20 guard bits at a large |x|.  The result is rounded
    once, to nearest."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        prec = mp.mp.prec
        with mp.extraprec(64 + max(0, mp.mag(x))):
            t = 2 * x
            t -= 2 * mp.pi * mp.nint(t / (2 * mp.pi))
    q, coeffs = volume._clausen_coeffs(prec)
    cl = volume._clausen(to_fixed(t._mpf_, q), q, pi_fixed(q), coeffs)
    return mp.make_mpf(from_man_exp(cl, -q - 1, prec, round_nearest))


def cone_params(alpha, dps=30):
    """The branch angle theta in (pi, 2pi) of the cone angle alpha, with
    cos(theta) = cos(alpha) - 1/2, by volume._theta, the int theta of
    volume.cone_volume, rounded once to dps digits.  Raises ValueError
    when |cos(alpha) - 1/2| > 1."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        prec = mp.mp.prec
    q, _ = volume._clausen_coeffs(prec)
    return mp.make_mpf(from_man_exp(volume._theta(a._mpf_, q, pi_fixed(q)), -q, prec,
                                    round_nearest))


def lobachevsky_mp(x, dps=30):
    """Lobachevsky function L(x) = (1/2) sum_{n>=1} sin(2nx)/n^2 = Cl_2(2x)/2.

    Odd and pi-periodic.  t = 2x is reduced to |t| <= pi with guard bits,
    so that a t near a multiple of 2 pi keeps its digits, and the real
    Clausen series

      Cl_2(t) = t - t log|t| + t sum_{k>=1} d_k u^k,  u = (t/pi)^2 <= 1,
      d_k = c_k pi^{2k} = zeta(2k) / (k (2k+1) 4^k) <= 4^-k,

    is summed by Horner's rule in u on the ints d_k of _clausen_coeffs, at
    their scale 2^q; the rest is mpf arithmetic at the working precision,
    rounded at each step.  The former volume.lobachevsky (oracle for the
    int kernel volume._clausen)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        with mp.extraprec(64 + max(0, mp.mag(x))):
            t = 2 * x
            t -= 2 * mp.pi * mp.nint(t / (2 * mp.pi))
        t = +t  # rounded to the working precision
        if not t:
            return mp.mpf(0)
        q, coeffs = volume._clausen_coeffs(mp.mp.prec)
        u = to_fixed(((t / mp.pi) ** 2)._mpf_, q)
        acc = 0
        for d in coeffs:
            acc = (acc + d) * u >> q
        return (t - t * mp.log(abs(t)) + t * mp.mpf((acc, -q))) / 2


def cone_params_mp(alpha, dps=30):
    """The branch angle theta in (pi, 2pi) of the cone angle alpha, with
    cos(theta) = cos(alpha) - 1/2, in mpf: the former volume.cone_params."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        c = mp.cos(a) - mp.mpf(1) / 2
        if abs(c) > 1:
            raise ValueError(f"cos(alpha) - 1/2 = {c} outside [-1, 1]")
        return 2 * mp.pi - mp.acos(c)


def cone_volume_mp(alpha, dps=30):
    """Hyperbolic volume of the figure-eight cone manifold,
    -2 (L((a+theta)/2) - L((a-theta)/2)) with theta in (pi, 2pi), each step
    an mpf rounded at dps digits: the former volume.cone_volume, the
    oracle for its int pipeline.

    Valid on 0 <= alpha < 2pi/3 where the cone manifold is hyperbolic.
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        if a < 0 or a >= 2 * mp.pi / 3:
            raise ValueError("alpha must lie in [0, 2pi/3) for the hyperbolic cone volume")
        theta = cone_params_mp(a, dps)
        return -2 * (lobachevsky_mp((a + theta) / 2, dps) - lobachevsky_mp((a - theta) / 2, dps))


def clausen_libmp(t, q, pi, coeffs):
    """volume._clausen with log|t| from mpf_log at q + 10 bits, truncated
    to the scale 2^q: its former body (oracle for the int _log)."""
    t -= (t + pi) // (2 * pi) * (2 * pi)
    if not t:
        return 0
    u = (t << q) // pi
    u = u * u >> q
    acc = 0
    for d in coeffs:
        acc = (acc + d) * u >> q
    log_t = to_fixed(mpf_log(from_man_exp(abs(t), -q), q + 10), q)
    return t - (t * log_t >> q) + (t * acc >> q)


def theta_libmp(a, q, pi):
    """volume._theta with mpf_cos and mpf_acos at q + 10 bits: its former
    body (oracle for the int _cos and _acos)."""
    wp = q + 10
    c = mpf_sub(mpf_cos(a, wp, round_nearest), fhalf, wp, round_nearest)
    return 2 * pi - to_fixed(mpf_acos(c, wp, round_nearest), q)


def sin_cot_mp(ctx):
    """RootContext.sin_cot as it was built before the rotation: xi^k from
    mp.expjpi at P bits for every k <= N/2, each value truncated to the
    scale by to_fixed (oracle)."""
    N = ctx.N
    P = dps_to_prec(ctx.dps) + ctx._FIXED_GUARD + N // 2
    with mp.workprec(P):
        roots = [mp.expjpi(mp.mpf(k) / N) for k in range(N // 2 + 1)]
        sin_q = [to_fixed(z.imag._mpf_, P + 1) for z in roots]
        cot_q = [to_fixed((z.real / z.imag)._mpf_, P) if z.imag else 0 for z in roots]
        cos_q = [to_fixed((z * z).real._mpf_, P + 1) for z in roots]
    ks = range(N)
    return (tuple(sin_q[min(k, N - k)] for k in ks),
            tuple(cot_q[k] if 2 * k <= N else -cot_q[N - k] for k in ks),
            tuple(cos_q[min(k, N - k)] for k in ks), P)


class MpTableContext(RootContext):
    """A RootContext whose sin_cot table, and that of every finer context
    it makes, is sin_cot_mp's."""

    @functools.cached_property
    def sin_cot(self):
        return sin_cot_mp(self)

    def finer(self, extra_digits):
        if extra_digits not in self._finer:
            self._finer[extra_digits] = MpTableContext(
                self.N, precision_digits=self.precision_digits + extra_digits)
        return self._finer[extra_digits]


def asymptotic_scan_mp(N):
    """The JSON of volume.asymptotic_scan(N) from mpmath alone (oracle):
    every row's gamma_s by habiro.tilde_sum on the sin_cot_mp table, its
    log by mp.log at 30 digits, the reference by cone_volume_mp at 30
    digits, and each double printed by mp.nstr."""
    ctx = MpTableContext(N, precision_digits=volume.scan_precision(N))
    h = habiro.catalog_coeffs("4_1")
    rows = []
    with ctx.workprec():
        two_pi = 2 * mp.pi
        with mp.workdps(30):
            scale = 2 * mp.pi / N
        for s in range(1, N):
            mag = abs(habiro.tilde_sum(h, s, ctx))
            with mp.workdps(30):
                lg = "-inf" if mag < ctx.tol else mp.nstr(mp.mpf(float(scale * mp.log(mag))), 17)
                if 3 * s < N:
                    ref, region = cone_volume_mp(2 * mp.pi * s / N, 30), "volume"
                elif 3 * s <= 2 * N:
                    ref, region = mp.mpf(0), "conjectural-flat"
                else:
                    ref, region = cone_volume_mp(2 * mp.pi * (N - s) / N, 30), "volume-mirror"
            rows.append({"s": s, "alpha": mp.nstr(mp.mpf(float(two_pi * s / N)), 17),
                         "log_gamma_scaled": lg, "vol_reference": mp.nstr(mp.mpf(float(ref)), 17),
                         "region_label": region})
    return json.dumps({"N": N, "rows": rows}, sort_keys=True)


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


def asymptotic_scan_every_row(N, ctx=None):
    """volume.asymptotic_scan as it was before it read gamma_{N-s} off
    gamma_s: every row s = 1..N-1 runs the kernel (oracle)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    ctx = ctx or RootContext(N, precision_digits=volume.scan_precision(N))
    volume.check_scan(N, ctx.precision_digits)
    rows = []
    with ctx.workprec():
        two_pi = 2 * mp.pi
        for s in range(1, N):
            g = volume.gamma_fig8_fast(N, s, ctx)
            alpha = two_pi * s / N
            ref, region = volume.vol_reference(s, N)
            mag = abs(g)
            if mag < ctx.tol:
                rows.append(volume.ScanRow(s, float(alpha), float("-inf"), float(ref), region, True))
            else:
                val = two_pi / N * mp.log(mag)
                rows.append(volume.ScanRow(s, float(alpha), float(val), float(ref), region, False))
    return volume.ScanResult(N, rows)
