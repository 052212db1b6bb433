"""Logarithmic invariant coefficients b_s^+-, alpha_s, beta_s, gamma_s.

gamma_s is computed by three independent routes that must agree:

  QDERIV  - xi/(2N) d/dq (q - q^{-1})(V_s + V_{2N-s}) at q = xi,
  HABIRO  - the closed cotangent/tilde-bracket double sum in the
            cyclotomic coefficients a_i evaluated at xi,
  MDERIV  - N {1}/(pi i) d/dm V_m at m = s via the color derivative.

The radical coefficients b_s^+- come either from exact q-derivatives of
normalized invariants or from the closed Habiro-sum form, and the two
coordinate systems (idempotent/radical vs the good basis) are linked by an
exact linear change of basis.
"""

from __future__ import annotations

import dataclasses
import enum
import json

import mpmath as mp

from .qcalc import Jet, LaurentPoly, RootContext, brace, ddq, qint
from . import habiro


class RouteDisagreement(RuntimeError):
    """Two supposedly equal routes differ beyond tolerance."""


class Route(enum.Enum):
    QDERIV = "qderiv"
    HABIRO = "habiro"
    MDERIV = "mderiv"


# -- exact colored Jones access -----------------------------------------


def _coeffs_for(knot, N: int) -> habiro.HabiroCoeffs:
    # colors 1..3N-1 cover V_{2N+s}, s <= N-1, of the minus-sign radical route
    return habiro.coeffs_for(knot, 3 * N - 1)


def exact_Vm(knot, m: int, framing: int = 0) -> LaurentPoly:
    """Exact V_m with the given framing, from the knot's cyclotomic
    coefficients (a braid word is traced through colors 1..m)."""
    v = habiro.reconstruct_Vm(habiro.coeffs_for(knot, m), m)
    return v.shift((m * m - 1) * framing) if framing else v


def exact_normalized_Vm(knot, m: int, framing: int = 0) -> LaurentPoly:
    """Exact V_m/[m]_q (a Laurent polynomial for knots), framed."""
    v = habiro.reconstruct_normalized_Vm(habiro.coeffs_for(knot, m), m)
    return v.shift((m * m - 1) * framing) if framing else v


def _normalized_jet(h: habiro.HabiroCoeffs, m: int, N: int, framing: int) -> Jet:
    """The jet of exact_normalized_Vm(h, m, framing) mod x^{4N} - 1: all
    that an evaluation at xi, or of d/dq there, reads of it."""
    jet = habiro.normalized_Vm_jet(h, m, N)
    return jet.shift((m * m - 1) * framing) if framing else jet


# -- radical coefficients ------------------------------------------------


def b_pm_via_derivative(knot, s: int, N: int, sign: int, ctx: RootContext = None,
                        framing: int = 0):
    """b_s^+ = xi/(2N[s]) d/dq {1}_q (V_s/[s]_q - V_{2N-s}/[2N-s]_q) at xi,
    b_s^- = xi/(4N[s]) d/dq {1}_q (V_{2N+s}/[2N+s]_q - V_{2N-s}/[2N-s]_q),

    each V_m/[m]_q read exactly off the jet of the cyclotomic ladder.
    """
    ctx = ctx or RootContext(N)
    if not 1 <= s <= N - 1:
        raise ValueError("s must be in 1..N-1")
    h = _coeffs_for(knot, N)

    def vt(m):
        return _normalized_jet(h, m, N, framing)

    if sign > 0:
        jet = vt(s) - vt(2 * N - s)
        pref_den = 2 * N
    else:
        jet = vt(2 * N + s) - vt(2 * N - s)
        pref_den = 4 * N
    with ctx.workprec():
        return ctx.xi / (pref_den * ctx.qint_at(s)) * jet.times(brace(1)).ddq_value(ctx)


def b_pm_via_habiro(knot, s: int, N: int, ctx: RootContext = None):
    """The closed form of Prop-style Habiro sums (framing 0):

    b_s^+ = b_s^- = {1}^2/{s} ( sum_{i<su} a_i {s+i}!/({s}{s-i-1}!)
                                  sum_{k=s-i..s+i, k != s} {k}_+/{k}
                    + 2 sum_{i=su..sb-1} a_i ~{s+i,i} ~{s-1,i} ),

    with su = min(s, N-s), sb = max(s, N-s).  The statement display of the
    source proposition carries [s] in place of the inner {s}; the proof's
    final display (used here) is the one consistent with the q-derivative
    route, and the discrepancy is exercised in the tests.

    With ~{s+i,2i+1} = ~{s+i,i} {s} ~{s-1,i} and {s} != 0 the bracket is
    (G - ({s}_+/{s}) sum_{i<su} a_i {s+i,2i+1})/{s} in the G and S of
    habiro.tilde_sum, and ({s}_+/{s}) sum_{i<su} a_i {s+i,2i+1}
    = cot(pi s/N) S.
    """
    ctx = ctx or RootContext(N)
    if not 1 <= s <= N - 1:
        raise ValueError("s must be in 1..N-1")
    h = _coeffs_for(knot, N)
    with ctx.workprec():
        g, sv = habiro.tilde_sum(h, s, ctx)
        xs = ctx.xi_pow(s)
        return (ctx.brace_at(1) / ctx.brace_at(s)) ** 2 * (g - xs.real / xs.imag * sv)


# -- gamma ---------------------------------------------------------------


def gamma_s(knot, s: int, N: int, route: Route = Route.QDERIV,
            ctx: RootContext = None, framing: int = 0):
    """gamma_s^{(N)} for 1 <= s <= N-1 by the selected route."""
    ctx = ctx or RootContext(N)
    if not 1 <= s <= N - 1:
        raise ValueError("s outside 1..N-1; use gamma_boundary for s in {0, N}")
    route = Route(route)
    with ctx.workprec():
        phase = ctx.xi_pow((s * s - 1) * framing, 2) if framing else mp.mpf(1)
        h = _coeffs_for(knot, N)
        if route is Route.QDERIV:
            # {1} V_m = {m} (V_m/[m])
            jet = (habiro.normalized_Vm_jet(h, s, N).times(brace(s))
                   + habiro.normalized_Vm_jet(h, 2 * N - s, N).times(brace(2 * N - s)))
            return phase * ctx.xi / (2 * N) * jet.ddq_value(ctx)
        if route is Route.HABIRO:
            return phase * habiro.tilde_sum(h, s, ctx)[0]
        dm = habiro.ddm_Vm(h, s, ctx)  # MDERIV
        return phase * N * ctx.brace_at(1) / (mp.pi * mp.mpc(0, 1)) * dm


def gamma_all_routes(knot, s: int, N: int, ctx: RootContext = None, framing: int = 0):
    ctx = ctx or RootContext(N)
    h = _coeffs_for(knot, N)
    return {route: gamma_s(h, s, N, route, ctx, framing) for route in Route}


def gamma_boundary(knot, which: int, N: int, ctx: RootContext = None, framing: int = 0):
    """gamma_0 = V_{2N}/[2N] at xi and gamma_N = -V_N/[N] at xi.

    Both are 0/0 limits of V_m over [m]_q, whose quotient is an exact
    polynomial, so each is read off the jet of V_m/[m] at xi and
    cross-checked against the q-derivative expression in the exact
    polynomial V_m, which checks the jets against exact polynomial
    arithmetic on every call."""
    ctx = ctx or RootContext(N)
    if which not in (0, N):
        raise ValueError("which must be 0 or N")
    h = _coeffs_for(knot, N)
    with ctx.workprec():
        if which == 0:
            val = habiro.normalized_Vm_jet(h, 2 * N, N).value(ctx)
            alt = ctx.xi / (4 * N) * ctx.eval(ddq(brace(1) * exact_Vm(h, 2 * N)))
            phase = ctx.xi_pow(-framing, 2) if framing else mp.mpf(1)
        else:
            val = -habiro.normalized_Vm_jet(h, N, N).value(ctx)
            alt = ctx.xi / (2 * N) * ctx.eval(ddq(brace(1) * exact_Vm(h, N)))
            phase = ctx.xi_pow((N * N - 1) * framing, 2) if framing else mp.mpf(1)
        if abs(val - alt) > ctx.tol:
            raise RouteDisagreement(
                f"gamma_{which} = {val} from V_m/[m] vs d/dq form {alt} differ beyond tolerance")
        return phase * val


# -- alpha, beta ----------------------------------------------------------


def alpha_beta(knot, N: int, ctx: RootContext = None, framing: int = 0):
    """alpha_s = (-1)^{N+s} N {1} V_s(L^f) at xi;
    beta_s = -N f {1} V_s(L^f) at xi (so beta = 0 at framing 0)."""
    ctx = ctx or RootContext(N)
    h = _coeffs_for(knot, N)
    alpha = [None] * (N - 1)
    beta = [None] * (N - 1)
    with ctx.workprec():
        one = ctx.brace_at(1)
        for s in range(1, N):
            vs = _normalized_jet(h, s, N, framing).times(qint(s)).value(ctx)
            alpha[s - 1] = (-1) ** (N + s) * N * one * vs
            beta[s - 1] = -N * framing * one * vs
    return alpha, beta


# -- basis change ----------------------------------------------------------


def basis_change(idem, rad_plus, rad_minus, N: int, ctx: RootContext = None):
    """(a_s, b_s^+, b_s^-) -> (alpha_s, beta_s, gamma_s):

    alpha_s = (-1)^{N+s} (xi^s - xi^{-s}) N a_s
    beta_s  = [s]^2 (b_s^+ - b_s^-)
    gamma_s = [s]^2 (s/N b_s^+ + (N-s)/N b_s^-) + (xi^s + xi^{-s}) a_s
    gamma_0 = a_0,  gamma_N = -a_N.
    """
    ctx = ctx or RootContext(N)
    if len(idem) != N + 1 or len(rad_plus) != N - 1 or len(rad_minus) != N - 1:
        raise ValueError("expected idem of length N+1 and radicals of length N-1")
    with ctx.workprec():
        alpha = []
        beta = []
        gamma = [mp.mpc(idem[0])]
        for s in range(1, N):
            a_s = mp.mpc(idem[s])
            bp, bm = mp.mpc(rad_plus[s - 1]), mp.mpc(rad_minus[s - 1])
            qs2 = ctx.qint_at(s) ** 2
            alpha.append((-1) ** (N + s) * ctx.brace_at(s) * N * a_s)
            beta.append(qs2 * (bp - bm))
            gamma.append(qs2 * (mp.mpf(s) / N * bp + mp.mpf(N - s) / N * bm)
                         + ctx.brace_plus(s) * a_s)
        gamma.append(-mp.mpc(idem[N]))
        return alpha, beta, gamma


def basis_change_inverse(alpha, beta, gamma, N: int, ctx: RootContext = None):
    """Invert basis_change exactly (no singularity for 1 <= s <= N-1)."""
    ctx = ctx or RootContext(N)
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


# -- assembled coefficient vectors ----------------------------------------


@dataclasses.dataclass
class CenterCoeffs:
    """All center-basis coefficient vectors of one framed knot at one N.

    idem holds a_0..a_N; the radical vectors and alpha/beta/gamma follow
    the good-basis change of coordinates exactly.
    """

    N: int
    knot: str
    framing: int
    idem: list
    rad_plus: list
    rad_minus: list
    alpha: list
    beta: list
    gamma: list

    def to_json(self, precision_digits: int = 60) -> str:
        def cstr(z):
            # no mp.mpc() conversion here: that would re-round at the
            # ambient precision and truncate the stored digits
            re = z.real if hasattr(z, "real") else z
            im = z.imag if hasattr(z, "imag") else mp.mpf(0)
            return {"re": mp.nstr(re, precision_digits),
                    "im": mp.nstr(im, precision_digits)}

        payload = {
            "N": self.N,
            "knot": self.knot,
            "framing": self.framing,
            "idem": [cstr(z) for z in self.idem],
            "b_plus": [cstr(z) for z in self.rad_plus],
            "b_minus": [cstr(z) for z in self.rad_minus],
            "alpha": [cstr(z) for z in self.alpha],
            "beta": [cstr(z) for z in self.beta],
            "gamma": [cstr(z) for z in self.gamma],
        }
        return json.dumps(payload, sort_keys=True)


def center_coeffs(knot, N: int, ctx: RootContext = None, framing: int = 0,
                  knot_label: str = "") -> CenterCoeffs:
    """Assemble the full CenterCoeffs of a knot from the derivative routes."""
    ctx = ctx or RootContext(N)
    h = _coeffs_for(knot, N)
    label = knot_label or h.knot
    with ctx.workprec():
        idem = [gamma_boundary(h, 0, N, ctx, framing)]
        for s in range(1, N):
            vts = _normalized_jet(h, s, N, framing).value(ctx)
            idem.append(vts)
        idem.append(-gamma_boundary(h, N, N, ctx, framing))
        rad_plus = [b_pm_via_derivative(h, s, N, +1, ctx, framing) for s in range(1, N)]
        rad_minus = [b_pm_via_derivative(h, s, N, -1, ctx, framing) for s in range(1, N)]
        alpha, beta, gamma_mid = basis_change(idem, rad_plus, rad_minus, N, ctx)
        alpha_d, beta_d = alpha_beta(h, N, ctx, framing)
        for s in range(1, N):
            if abs(alpha[s - 1] - alpha_d[s - 1]) > ctx.tol or abs(beta[s - 1] - beta_d[s - 1]) > ctx.tol:
                raise RouteDisagreement(
                    f"alpha/beta via basis change vs direct formulas differ at s={s}")
    return CenterCoeffs(N, label, framing, idem, rad_plus, rad_minus, alpha, beta, gamma_mid)


def framed_corrections(base: CenterCoeffs, f: int, ctx: RootContext = None) -> CenterCoeffs:
    """Framed coefficients from framing-0 ones.

    b_s^+(L^f) = xi^{(s^2-1)f/2} b_s^+(L) + (s-N) f {1} V_s(L^f)/[s]^2 at xi
    b_s^-(L^f) = xi^{(s^2-1)f/2} b_s^-(L) +     s f {1} V_s(L^f)/[s]^2 at xi

    The correction terms carry the framed evaluation V_s(L^f) at xi; the
    source corollary prints the unframed V_s(L) there, which fails the
    direct framed-derivative cross-check (see tests), so the framed form
    is used.  a_s, alpha_s, gamma_s pick up the phase xi^{(s^2-1)f/2};
    a_0 and a_N use the boundary phases xi^{-f/2} and xi^{(N^2-1)f/2}.
    """
    ctx = ctx or RootContext(base.N)
    N = base.N
    if base.framing != 0:
        raise ValueError("framed_corrections starts from a framing-0 record")
    if f == 0:
        return CenterCoeffs(N, base.knot, 0, list(base.idem), list(base.rad_plus),
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
        alpha, beta, gamma = basis_change(idem, rad_plus, rad_minus, N, ctx)
    return CenterCoeffs(N, base.knot, f, idem, rad_plus, rad_minus, alpha, beta, gamma)
