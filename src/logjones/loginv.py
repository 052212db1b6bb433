"""Logarithmic invariant coefficients b_s^+-, alpha_s, beta_s, gamma_s.

gamma_s is computed by three routes that must agree:

  QDERIV  - xi/(2N) d/dq (q - q^{-1})(V_s + V_{2N-s}) at q = xi,
  HABIRO  - the closed cotangent/tilde-bracket double sum in the
            cyclotomic coefficients a_i evaluated at xi,
  MDERIV  - N {1}/(pi i) d/dm V_m at m = s via the color derivative.

QDERIV and b_s^+- are q-derivatives at xi, where xi d/dq = D/2 with
D = x d/dx, x = q^{1/2}.  Each is written in closed form from the value
p and the color slopes c_m of V_m/[m] (habiro.normalized_Vm_at_xi) at
the colors s, 2N-s and 2N+s, which share p and the framing factor z_s.

QDERIV is the one independent formula.  HABIRO and MDERIV are the same
sum term by term.  With su = min(s, N-s) and sb = max(s, N-s), the
Leibniz term D_i of habiro.ddm_Vm is P_i sum_k {k}_+/{k} (P_i the window
product) for i < su, 2 ~{s+i,2i+1} for su <= i < sb and 0 beyond, and
N {1}/(pi i) cancels the pi i/(N {1}) of ddm_Vm.  Their agreement checks
the fixed-point arithmetic of habiro.tilde_sum against mpmath.

center_coeffs takes the radical coefficients b_s^+- from the q-derivative
route alone, q-derivatives at xi of normalized invariants
(b_pm_via_derivative).  The closed Habiro-sum form of b_s^+- is no second
check: at framing 0 it is (G - {s}_+ a_s)/[s]^2, G the HABIRO gamma, so
it differs from b_s^+- by at most (the route spread of gamma_s + the
gamma_s residual + the beta_s residual)/[s]^2, all three judged by
center_coeffs, and [s] >= 1 at xi.  It lives in the tests as an oracle.
The two coordinate systems (idempotent/radical vs the good basis) are
linked by an exact linear change of basis.

Every function that evaluates at xi takes a required RootContext ctx,
which fixes N and the precision together, and reads N from ctx.N.
"""

from __future__ import annotations

import dataclasses
import enum

import mpmath as mp

from .qcalc import RootContext, brace, ddq
from . import habiro, jones


# Largest N that center_coeffs takes on.  On a shared 2-vCPU Xeon a whole
# loginv --knot 4_1 process takes 0.23-0.27 s and 25 MB at N = 60,
# 0.36-0.46 s and 30 MB at N = 80 and 0.56-0.63 s and 33 MB at N = 100
# (3_1 at N = 100: 0.60-0.70 s, 0.60-0.68 s with --framing 1): the Horner
# passes of habiro.normalized_Vm_at_xi are O(N^2) in all.  At 4000 digits,
# where habiro.ddm_Vm takes most of the time, cli.main takes 3.1-3.5 s at
# N = 60 and 7.4-8.0 s and 35 MB at N = 100 (3_1: 10.7-10.9 s).  A larger
# N is refused with jones.FeasibilityError before the knot is resolved; a
# braid word is bounded by jones.EXACT_DIM_CAP as well (loginv --braid
# "3: 1 -2 1 -2" takes 0.37-0.43 s and 30 MB at N = 12).
MAX_N = 100


class Route(enum.Enum):
    QDERIV = "qderiv"
    HABIRO = "habiro"
    MDERIV = "mderiv"


# -- values at xi --------------------------------------------------------


def _framing_phase(m: int, ctx: RootContext, framing: int):
    """z_m = q^{k_m/2} at xi, k_m = (m^2-1) f, the factor framing f puts on
    V_m.  z_m is the same for every m of one class +-m mod 2N."""
    return ctx.xi_pow((m * m - 1) * framing, 2) if framing else mp.mpf(1)


def _framed_value(h: habiro.HabiroCoeffs, m: int, ctx: RootContext, framing: int):
    """z_m p, the framed V_m/[m] at xi; run it inside ctx.workprec()."""
    p = habiro.normalized_Vm_at_xi(h, m, ctx)[0]
    return p * _framing_phase(m, ctx, framing) if framing else p


# -- radical coefficients ------------------------------------------------


def b_pm_via_derivative(knot, s: int, sign: int, ctx: RootContext, framing: int = 0):
    """b_s^+ = xi/(2N[s]) d/dq {1}_q (V_s/[s]_q - V_{2N-s}/[2N-s]_q) at xi,
    b_s^- = xi/(4N[s]) d/dq {1}_q (V_{2N+s}/[2N+s]_q - V_{2N-s}/[2N-s]_q)
    of the framed V_m.  The difference has value 0, so with k_m = (m^2-1) f

      b_s^+- = {1} z_s (c_m - c_{2N-s} + (k_m - k_{2N-s}) p) / (2 D [s]),

    (m, D) = (s, 2N) for b_s^+ and (2N+s, 4N) for b_s^-.
    """
    N = ctx.N
    if not 1 <= s <= N - 1:
        raise ValueError("s must be in 1..N-1")
    h = habiro.coeffs_for(knot, N)
    m, pref_den = (s, 2 * N) if sign > 0 else (2 * N + s, 4 * N)
    with ctx.workprec():
        p, c_m = habiro.normalized_Vm_at_xi(h, m, ctx)
        c_bar = habiro.normalized_Vm_at_xi(h, 2 * N - s, ctx)[1]
        dk = (m * m - (2 * N - s) ** 2) * framing
        return (ctx.brace_at(1) * _framing_phase(s, ctx, framing) * (c_m - c_bar + dk * p)
                / (2 * pref_den * ctx.qint_at(s)))


# -- gamma ---------------------------------------------------------------


def gamma_s(knot, s: int, ctx: RootContext, route: Route = Route.QDERIV, framing: int = 0):
    """gamma_s^{(N)} for 1 <= s <= N-1 by the selected route."""
    N = ctx.N
    if not 1 <= s <= N - 1:
        raise ValueError("s outside 1..N-1; use gamma_boundary for s in {0, N}")
    route = Route(route)
    with ctx.workprec():
        phase = _framing_phase(s, ctx, framing)
        h = habiro.coeffs_for(knot, N)
        if route is Route.QDERIV:
            # {1} V_m = {m} (V_m/[m]), D{m} = 2m {m}_+, and at xi
            # {2N-s} = -{s} and {2N-s}_+ = {s}_+
            p, c_s = habiro.normalized_Vm_at_xi(h, s, ctx)
            c_bar = habiro.normalized_Vm_at_xi(h, 2 * N - s, ctx)[1]
            return phase * (ctx.brace_at(s) * (c_s - c_bar) / (4 * N) + ctx.brace_plus(s) * p)
        if route is Route.HABIRO:
            return phase * habiro.tilde_sum(h, s, ctx)
        dm = habiro.ddm_Vm(h, s, ctx)  # MDERIV
        return phase * N * ctx.brace_at(1) / (mp.pi * mp.mpc(0, 1)) * dm


def gamma_all_routes(knot, s: int, ctx: RootContext, framing: int = 0):
    h = habiro.coeffs_for(knot, ctx.N)
    return {route: gamma_s(h, s, ctx, route, framing) for route in Route}


def gamma_boundary(knot, which: int, ctx: RootContext, framing: int = 0):
    """gamma_0 = V_{2N}/[2N] at xi and gamma_N = -V_N/[N] at xi.

    Both are 0/0 limits of V_m over [m]_q, whose quotient is an exact
    polynomial, so each is read off the value of V_m/[m] at xi;
    center_coeffs checks it against _boundary_ddq_form."""
    N = ctx.N
    if which not in (0, N):
        raise ValueError("which must be 0 or N")
    h = habiro.coeffs_for(knot, N)
    m = 2 * N if which == 0 else N
    with ctx.workprec():
        val = _framed_value(h, m, ctx, framing)
        return val if which == 0 else -val


def _boundary_ddq_form(h: habiro.HabiroCoeffs, which: int, ctx: RootContext, framing: int):
    """gamma_boundary by d/dq of an exact polynomial, a check of the Horner
    pass values at colors N and 2N.  V_N has N rungs.  Of V_{2N} the form
    builds the first N, [2N] sum_{i<N} a_i L_i(2N): every later rung
    L_i(2N) holds {N} and {3N}, each divisible by x^{4N} - 1
    (x = q^{1/2}), so {1} [2N] L_i(2N) and its d/dq vanish at xi."""
    N = ctx.N
    if which == 0:
        # {1} [2N] = {2N}
        head = brace(2 * N) * habiro.ladder_head(h, 2 * N, N)
        alt = ctx.xi / (4 * N) * ctx.eval_at(ddq(head))
    else:
        alt = ctx.xi / (2 * N) * ctx.eval_at(ddq(brace(1) * habiro.reconstruct_Vm(h, N)))
    return _framing_phase(2 * N if which == 0 else N, ctx, framing) * alt


# -- alpha, beta ----------------------------------------------------------


def alpha_beta(knot, ctx: RootContext, framing: int = 0):
    """alpha_s = (-1)^{N+s} N {1} V_s(L^f) at xi;
    beta_s = -N f {1} V_s(L^f) at xi (so beta = 0 at framing 0)."""
    N = ctx.N
    h = habiro.coeffs_for(knot, N)
    alpha = [None] * (N - 1)
    beta = [None] * (N - 1)
    with ctx.workprec():
        one = ctx.brace_at(1)
        for s in range(1, N):
            vs = _framed_value(h, s, ctx, framing) * ctx.qint_at(s)
            alpha[s - 1] = (-1) ** (N + s) * N * one * vs
            beta[s - 1] = -N * framing * one * vs
    return alpha, beta


# -- basis change ----------------------------------------------------------


def basis_change(idem, rad_plus, rad_minus, ctx: RootContext):
    """(a_s, b_s^+, b_s^-) -> (alpha_s, beta_s, gamma_s):

    alpha_s = (-1)^{N+s} (xi^s - xi^{-s}) N a_s
    beta_s  = [s]^2 (b_s^+ - b_s^-)
    gamma_s = [s]^2 (s/N b_s^+ + (N-s)/N b_s^-) + (xi^s + xi^{-s}) a_s
    gamma_0 = a_0,  gamma_N = -a_N.
    """
    N = ctx.N
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


# -- assembled coefficient vectors ----------------------------------------


@dataclasses.dataclass
class CenterCoeffs:
    """All center-basis coefficient vectors of one framed knot at one N.

    idem holds a_0..a_N; the radical vectors and alpha/beta/gamma follow
    the good-basis change of coordinates exactly.  residuals maps the name
    of each check center_coeffs made to its residual.
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
    residuals: dict = dataclasses.field(default_factory=dict)

    def failed(self, tol) -> list:
        """The checks whose residual is not below tol: loginv's one judge."""
        return [name for name, r in self.residuals.items() if not r < tol]

    def to_dict(self, precision_digits: int = 60) -> dict:
        """The record as a JSON-ready dict, each number a decimal string."""
        def cstr(z):
            # no mp.mpc() conversion here: that would re-round at the
            # ambient precision and truncate the stored digits
            return {"re": mp.nstr(z.real, precision_digits),
                    "im": mp.nstr(z.imag, precision_digits)}

        return {
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


def center_coeffs(knot, ctx: RootContext, framing: int = 0) -> CenterCoeffs:
    """Assemble the full CenterCoeffs of a knot from the derivative routes,
    with the residuals of its checks, named after what they check:
    "gamma_{s} routes" the spread of the three routes to gamma_s, run once
    per s; "alpha_{s}" and "beta_{s}" the basis change against alpha_beta;
    "gamma_{s}" against the q-derivative route at 0 < s < N, where an
    error shared by b_s^+ and b_s^- cancels in beta_s but not in gamma_s,
    and against _boundary_ddq_form at s = 0 and N.

    Every loginv function resolves the knot at colors 1..N only, as
    everything loginv reads at xi is fixed by a_0..a_{N-1}: the values
    and color slopes of V_m/[m] at every color m (see
    habiro.normalized_Vm_at_xi), V_{2N+s} of
    the minus-sign radical route too, the first N rungs of the exact
    V_{2N} in the boundary d/dq form and the sum of habiro.ddm_Vm.  N
    above MAX_N raises jones.FeasibilityError before the knot is
    resolved."""
    N = ctx.N
    if N > MAX_N:
        raise jones.FeasibilityError(f"loginv at N = {N} exceeds the bound N <= {MAX_N}")
    h = habiro.coeffs_for(knot, N)
    with ctx.workprec():
        idem = [gamma_boundary(h, 0, ctx, framing),
                *(_framed_value(h, s, ctx, framing) for s in range(1, N)),
                -gamma_boundary(h, N, ctx, framing)]
        rad_plus = [b_pm_via_derivative(h, s, +1, ctx, framing) for s in range(1, N)]
        rad_minus = [b_pm_via_derivative(h, s, -1, ctx, framing) for s in range(1, N)]
        alpha, beta, gamma = basis_change(idem, rad_plus, rad_minus, ctx)
        alpha_d, beta_d = alpha_beta(h, ctx, framing)
        residuals = {"gamma_0": abs(gamma[0] - _boundary_ddq_form(h, 0, ctx, framing)),
                     f"gamma_{N}": abs(gamma[N] - _boundary_ddq_form(h, N, ctx, framing))}
        for s in range(1, N):
            routes = gamma_all_routes(h, s, ctx, framing)
            vals = list(routes.values())
            residuals[f"gamma_{s} routes"] = max(abs(a - b) for a in vals for b in vals)
            residuals[f"alpha_{s}"] = abs(alpha[s - 1] - alpha_d[s - 1])
            residuals[f"beta_{s}"] = abs(beta[s - 1] - beta_d[s - 1])
            residuals[f"gamma_{s}"] = abs(gamma[s] - routes[Route.QDERIV])
    return CenterCoeffs(N, h.knot, framing, idem, rad_plus, rad_minus, alpha, beta, gamma,
                        residuals)
