"""Cyclotomic expansion of the colored Jones invariant.

V_m(L) = sum_i a_i(L) {m+i, 2i+1}_q / {1}_q with knot coefficients a_i
that do not depend on the color m (Habiro, Invent. Math. 171 (2008)).
This module owns the whole Habiro layer: how a knot's a_i are stored (a
rule i -> a_i, closed-form for the catalog, a table when extracted from
exact 0-framed invariants), the one resolver from a knot to them, the
reconstruction of V_m, the value and color slope of V_m/[m] at xi by one
Horner pass per residue of m mod N, the cotangent/tilde-bracket sum over
a_i(xi) and the color derivative of the expansion at q = xi.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Callable

import mpmath as mp
from mpmath.libmp import dps_to_prec, to_fixed

from .qcalc import LaurentPoly, RootContext, kron_pack, kron_unpack, qint
from . import jones


@dataclasses.dataclass
class HabiroCoeffs:
    """Cyclotomic coefficients a_0, a_1, ... of one knot, as a rule i -> a_i.

    i_max is the highest known index, or None when every a_i is known (a
    catalog closed form).  An extracted table is bounded by its length.
    """

    knot: str
    rule: Callable[[int], LaurentPoly]
    i_max: int | None = None
    # the Horner pass at xi of each residue r of the color mod N, keyed by
    # ("pass", N, dps, r), the a_0(xi)..a_{N-1}(xi), keyed by
    # ("xi", N, dps), and their fixed-point parts, keyed by ("fixed", N, P);
    # each built whole once, never changed
    _memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.has_coeff(0) or self.rule(0) != LaurentPoly.const(1):
            raise ValueError("a_0 must be 1 (forced by V_1 = 1)")

    @classmethod
    def from_table(cls, knot: str, table) -> "HabiroCoeffs":
        """Coefficients known only as the stored a_0..a_{len(table)-1}."""
        table = tuple(table)
        return cls(knot, table.__getitem__, len(table) - 1)

    def has_coeff(self, i: int) -> bool:
        return self.i_max is None or i <= self.i_max

    def coeff(self, i: int) -> LaurentPoly:
        if not self.has_coeff(i):
            raise ValueError(f"{self.knot}: coefficient a_{i} is not available "
                             f"(have a_0..a_{self.i_max})")
        return self.rule(i)

    def at_xi(self, ctx: RootContext) -> tuple:
        """a_0(xi), ..., a_{N-1}(xi), built once per (N, dps): the values
        every sum at xi reads (tilde_sum reads a_i for i < max(s, N-s),
        ddm_Vm for i < N and _residue_pass for i < N - r).  An int
        constant is mp.mpf(c), as eval_at makes it.  A table without
        a_{N-1} raises ``coeff``'s ValueError."""
        key = ("xi", ctx.N, ctx.dps)
        if key not in self._memo:
            with ctx.workprec():
                values = [mp.mpf(c) if a.terms.keys() <= {0} and type(c := a.terms.get(0, 0)) is int
                          else ctx.eval_at(a) for a in map(self.coeff, range(ctx.N))]
            # a real value stays an mpf, so that sums over real a_i stay real
            self._memo[key] = tuple(v.real if not v.imag else v for v in values)
        return self._memo[key]

    def fixed_at_xi(self, ctx: RootContext) -> tuple:
        """(re, im, scale): the parts of ``at_xi`` as ints at the scale
        2^scale, built once per (N, P).  The scale is 0 when every a_i(xi)
        is a Gaussian integer, as the unknot's and the figure-eight's are,
        so that their products with the terms stay cheap, and otherwise the
        P of ``ctx.sin_cot``."""
        P = ctx.sin_cot[-1]
        key = ("fixed", ctx.N, P)
        if key not in self._memo:
            values = self.at_xi(ctx)
            scale = 0 if all(mp.isint(v.real) and mp.isint(v.imag) for v in values) else P
            self._memo[key] = (tuple(to_fixed(v.real._mpf_, scale) for v in values),
                               tuple(to_fixed(v.imag._mpf_, scale) for v in values), scale)
        return self._memo[key]


def extract_coeffs(jones_values, knot: str = "") -> HabiroCoeffs:
    """Solve for a_0..a_{M-1} from exact 0-framed V_1..V_M.

    V_m/[m] = sum_{i<m} a_i L_i(m) (see _ladder) is lower triangular in
    the a_i: forward substitution divides V_m exactly by [m], subtracts the
    known terms, read off one packed ladder with its top rung L_{m-1}(m),
    and divides once by that rung.  A nonzero remainder means the inputs
    were not the 0-framed invariants of a knot.
    """
    coeffs = []
    for m, vm in enumerate(jones_values, start=1):
        lower, top = _ladder(coeffs, m, top=True)
        coeffs.append((vm / qint(m) - lower) / top)
    return HabiroCoeffs.from_table(knot, coeffs)


def _check_color(h: HabiroCoeffs, m: int, n: int):
    """V_m, read through its first n rungs, needs a_0..a_{n-1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not h.has_coeff(n - 1):
        raise ValueError(f"{h.knot}: V_{m} needs a_{n-1}, only a_0..a_{h.i_max} available")


def _ladder(coeffs: list, m: int, top: bool = False):
    """sum_{i<n} a_i L_i(m) for the n given a_i, L_i(m) =
    prod_{j=1}^{i} {m+j}{m-j}, and with top the pair of it and L_n(m).
    {m+i, 2i+1}/{1} = [m] L_i(m), so this one ladder serves V_m, V_m/[m]
    and the extraction of the a_i.

    The rung is one int (qcalc.kron_pack), digit k at doubled exponent
    lo + step k with step = gcd(4, exponents of the a_i).  As
    {m+i}{m-i} = q^{-2m} (q^{2(m+i)} - 1)(q^{2(m-i)} - 1), a rung step is
    two shifts and two subtractions.  Each a_i is packed once and
    multiplied in, and each result is unpacked once.  ||{m+j}{m-j}||_1 = 4
    and the L1 norm is submultiplicative, so a width one bit above
    sum_i ||a_i||_1 4^i (plus 4^n with top) decodes every digit."""
    n = len(coeffs)
    step = math.gcd(4, *(e for a in coeffs for e in a.terms))
    bound = sum(sum(map(abs, a.terms.values())) << 2 * i for i, a in enumerate(coeffs))
    width = (bound + (top << 2 * n)).bit_length() + 1
    per_q2 = 4 // step * width
    rungs = [i for i, a in enumerate(coeffs) if a]
    # the lowest doubled exponent of the sum: L_i(m) starts at -4mi
    lo = min((min(coeffs[i].terms) - 4 * m * i for i in rungs), default=0)
    rung, total = 1, 0
    for i in range(n + 1 if top else max(rungs, default=-1) + 1):
        if i:
            rung = (rung << (m + i) * per_q2) - rung
            rung = (rung << (m - i) * per_q2) - rung
        if i < n and coeffs[i]:
            a = coeffs[i].terms
            a_lo = min(a)
            total += (kron_pack(a, a_lo, step, width) * rung
                      << (a_lo - 4 * m * i - lo) // step * width)
    head = LaurentPoly(kron_unpack(total, lo, step, width))
    return (head, LaurentPoly(kron_unpack(rung, -4 * m * n, step, width))) if top else head


def reconstruct_Vm(h: HabiroCoeffs, m: int) -> LaurentPoly:
    """V_m = [m] (V_m/[m]); exact whenever a_{m-1} is known."""
    return qint(m) * reconstruct_normalized_Vm(h, m)


def reconstruct_normalized_Vm(h: HabiroCoeffs, m: int) -> LaurentPoly:
    """V_m/[m] = sum_{i=0}^{m-1} a_i L_i(m), exact."""
    return ladder_head(h, m, m)


def ladder_head(h: HabiroCoeffs, m: int, n: int) -> LaurentPoly:
    """sum_{i<n} a_i L_i(m), exact: the first n <= m rungs of V_m/[m]."""
    _check_color(h, m, n)
    return _ladder([h.coeff(i) for i in range(min(m, n))], m)


def normalized_Vm_at_xi(h: HabiroCoeffs, m: int, ctx: RootContext):
    """(p, c_m): the value p of V_m/[m] at xi and its color slope c_m,
    without building V_m/[m].

    With u_k = x^{4k} + x^{-4k}, x = q^{1/2}, the rung factor is
    {m+j}{m-j} = u_m - u_j, so V_m/[m] = P(u_m), P(u) = sum_i a_i
    prod_{j=1..i} (u - u_j).  At x0 = xi^{1/2}, u_m is U_r = C_2r and
    D u_m = +-m delta_r, D = x d/dx, r = +-m mod N in 0..N/2,
    delta_r = 4i S_2r.  So p = P(U_r) and the D-value of V_m/[m] at x0 is
    the D-value of P(U_r) plus c_m = +-m delta_r P'(U_r).  The first part
    is the same for every color of residue r, and loginv reads D-values
    only as differences of two such colors, so only p and c_m are kept;
    both are read off the one Horner pass of residue r (_residue_pass).
    For i >= N the rung L_i(m) holds two factors {kN}, each of value 0 at
    xi, so only a_0..a_{N-1} reach them, and a table must hold all N."""
    N = ctx.N
    _check_color(h, m, min(m, N))
    rho = m % N
    r, sign = (rho, m) if 2 * rho <= N else (N - rho, -m)
    p, slope = _residue_pass(h, ctx, r)
    with ctx.workprec():
        return p, sign * slope


def _residue_pass(h: HabiroCoeffs, ctx: RootContext, r: int):
    """(P(U_r), delta_r P'(U_r)) by Horner over the a_0(xi)..a_{N-1}(xi)
    of ``HabiroCoeffs.at_xi``: with the value d of P', each rung is
    d <- p + (U_r - u_j) d, then p <- a_{j-1} + (U_r - u_j) p, where
    U_r - u_j = C_2r - C_2j is real.  A color m < N reads the same pass,
    as every rung i >= m holds u_m - u_m = 0.  For r >= 1 every rung
    i >= N - r holds the factors j = r and j = N - r, both of value 0
    (one, of P' value 0, when 2r = N), so the pass reads a_0..a_{N-r-1}
    alone.  Memoized on h, keyed by (N, dps, r)."""
    N, memo = ctx.N, h._memo
    key = ("pass", N, ctx.dps, r)
    if key not in memo:
        a = h.at_xi(ctx)[:N - r]
        sym = ctx.qsymbols
        with ctx.workprec():
            u_r = sym[2 * r][1]
            p, d = a[-1], 0
            for j in range(len(a) - 1, 0, -1):
                factor = u_r - sym[2 * j][1]
                d = p + factor * d
                p = a[j - 1] + factor * p
            memo[key] = (p, mp.mpc(0, 4 * sym[2 * r][0]) * d)
    return memo[key]


def tilde_sum(h: HabiroCoeffs, s: int, ctx: RootContext):
    """The cotangent/tilde-bracket sum over a_i(xi), O(N) per s.

    With su = min(s, N-s) and sb = max(s, N-s), returns

      G = sum_{i<su} a_i {s+i,2i+1} sum_{k=s-i..s+i} {k}_+/{k}
          + 2 sum_{i=su..sb-1} a_i ~{s+i,2i+1},

    where ~{n,j} replaces each factor {tN} by (-1)^t.  At xi,
    {k} = 2i sin(pi k/N) and {k}_+/{k} = -i cot(pi k/N), so every term
    but a_i is real.  The window products alone, sum_{i<su} a_i
    {s+i,2i+1}, are {1} V_s(xi), since every later window holds {N}; a
    caller that needs them reads V_s instead.

    G is odd in s -> N - s, for any a_i: at xi, {N-k} = {k} and {N-k}_+ =
    -{k}_+, so N - s has the window products of s and the negated cotangent
    sums and tilde terms.  The table keeps this exactly (cots[N-k] =
    -cots[k], and sines and cos2 are symmetric), and every product is
    rounded half away from zero, which commutes with negation, so
    tilde_sum(h, N - s, ctx) == -tilde_sum(h, s, ctx) bit for bit.
    volume.asymptotic_scan reads row N - s off row s; this function, like
    loginv's HABIRO route, computes each s on its own.

    The terms run in fixed point: ints at the scale 2^P of the context's
    table ``sin_cot``, one rounding (_round_shift) per product, and the
    a_0(xi)..a_{N-1}(xi) converted once per (N, P) by
    ``HabiroCoeffs.fixed_at_xi``; the row reads the first sb of them.
    The sums are exact and are rounded once, to the working precision.

    Each product adds at most half a unit 2^-P; a unit added where a window
    product has dipped to 2^-dip grows by 2^dip as the window widens, and
    P reserves N/2 bits for that.  So every term keeps
    min(prec, P - _FIXED_GUARD - dip) bits, and G loses to cancellation
    the bits of the largest a_i term above |G|.  Both are read off int bit
    lengths.  A row left with _GUARD good digits or fewer, and |G| above
    ``ctx.tol`` (a zero row has no digits to keep), is computed again with
    the lost digits added to the precision.
    """
    N = ctx.N
    if not 1 <= s <= N - 1:
        raise ValueError("s must be in 1..N-1")
    su, sb = min(s, N - s), max(s, N - s)
    a_re, a_im, scale = h.fixed_at_xi(ctx)
    sines, cots_of, cos2, P = ctx.sin_cot
    # prod = (-1)^i prod_{k=s-i..s+i} 2 sin(pi k/N); each i adds the
    # factors 2 sin(pi (s+i)/N) 2 sin(pi (s-i)/N) = cos2[i] - cos2[s], and
    # the cotangent window [s-i, s+i] stays inside 1..N-1; low is the bit
    # length of the shallowest window product
    c_s = cos2[s]
    prod = sines[s]
    cots = cots_of[s]
    low = prod.bit_length()
    terms = [_round_shift(prod * cots, P)]
    # the loops inline _round_shift(x, P), which costs a call per product
    half = 1 << (P - 1)
    for i in range(1, su):
        x = prod * (c_s - cos2[i])
        prod = (x + half) >> P if x >= 0 else -((half - x) >> P)
        cots += cots_of[s + i] + cots_of[s - i]
        low = min(low, prod.bit_length())
        x = prod * cots
        terms.append((x + half) >> P if x >= 0 else -((half - x) >> P))
    # tilde terms 2 (-1)^i ~{s+i,2i+1}: the window [s-i, s+i] holds one
    # multiple of N, 0 when 2s < N and N (~{N} = -1) when 2s > N.  At
    # i = su it is the last cotangent window and its other end; each later
    # i adds two factors, the same pair as above.
    if su < sb:
        if 2 * s < N:
            term = _round_shift(-prod * sines[2 * s], P - 1)
        else:
            term = _round_shift(prod * sines[2 * s - N], P - 1)
        terms.append(term)
        for i in range(su + 1, sb):
            x = term * (c_s - cos2[i])
            term = (x + half) >> P if x >= 0 else -((half - x) >> P)
            terms.append(term)
    # G is an exact int sum at the scale 2^(P + scale), complex only where
    # some a_i it reads is
    g_parts = [a_re, a_im] if any(a_im[:sb]) else [a_re]
    g_terms = [list(map(operator.mul, a, terms)) for a in g_parts]
    g_sums = [sum(t) for t in g_terms]
    # digits left: every term keeps min(prec, P - _FIXED_GUARD - dip) bits,
    # the dip read off the shallowest window product, and G loses the bits
    # of its largest a_i term above |G|
    low = min(low, min(map(int.bit_length, terms[su:]), default=P + 1) - 1)
    kept = min(dps_to_prec(ctx.dps), P - RootContext._FIXED_GUARD - max(0, P - low))
    cancel = max(max(map(int.bit_length, t)) for t in g_terms) - max(map(int.bit_length, g_sums))
    loss = ctx.dps - (kept - cancel) * _LOG10_2
    with ctx.workprec():
        G = _from_fixed(g_sums, P + scale)
        if loss + RootContext._GUARD < ctx.dps or abs(G) < ctx.tol:
            return G
        # the lost digits back, in steps of _GUARD so that rows share one
        # finer context (its sin_cot table) and its memoized a_i
        extra = math.ceil(loss / RootContext._GUARD) * RootContext._GUARD
        return +tilde_sum(h, s, ctx.finer(extra))


_LOG10_2 = math.log10(2)


def _round_shift(x: int, shift: int) -> int:
    """x / 2^shift rounded to the nearest int, half away from zero, so
    that _round_shift(-x, shift) == -_round_shift(x, shift)."""
    half = 1 << (shift - 1)
    return (x + half) >> shift if x >= 0 else -((half - x) >> shift)


def _from_fixed(sums, exp):
    """mpf (one sum) or mpc (real and imaginary sums) of ints times 2^exp,
    rounded once to the working precision."""
    if len(sums) == 1:
        return mp.mpf((sums[0], -exp))
    return mp.mpc((sums[0], -exp), (sums[1], -exp))


def ddm_Vm(h: HabiroCoeffs, s: int, ctx: RootContext):
    """d/dm V_m at m = s, q = xi, from the cyclotomic expansion, O(N).

    The color derivative acts on q^{m+c} by ln(xi) = pi*i/N, so by the
    Leibniz rule d/dm {m+i, 2i+1} = ln(xi) D_i with
    D_i = sum_{k=s-i..s+i} {k}_+ prod_{j != k} {j}.  One running pair
    (P_i, D_i), P_i = prod_{k=s-i..s+i} {k}, starts at ({s}, {s}_+), and
    each i multiplies in f = {s+i} and g = {s-i}:
    (P, D) -> (P f g, D f g + P (f_+ g + f g_+)).  At xi, {k} = i S_k and
    {k}_+ = C_k with S_k, C_k real (``ctx.qsymbols``), so P_i = i (-1)^i p_i
    and D_i = (-1)^i d_i with (p, d) real: from (S_s, C_s) each step is
    (p, d) -> (p S_f S_g, d S_f S_g + p (C_f S_g + S_f C_g)), rounded as
    the complex pair rounds its nonzero part, and the sum is
    sum_i (-1)^i a_i d_i.

    {kN} is exactly 0 at xi, so once the window [s-i, s+i] holds two
    multiples of N the pair is exactly (0, 0) and stays there.  Every
    window of width 2i+1 > 2N does, so the sum stops at i = N-1 and reads
    a_0..a_{N-1}, the values of ``HabiroCoeffs.at_xi``.
    """
    N = ctx.N
    if not 1 <= s <= 2 * N:
        raise ValueError("s must be in 1..2N")
    a = h.at_xi(ctx)
    sym, n2 = ctx.qsymbols, 2 * N
    with ctx.workprec():
        p, d, _ = sym[s % n2]
        total = a[0] * d
        for i in range(1, N):
            (S_f, C_f, _), (S_g, C_g, _) = sym[(s + i) % n2], sym[(s - i) % n2]
            fg = S_f * S_g
            p, d = p * fg, d * fg + p * (C_f * S_g + S_f * C_g)
            total = total - a[i] * d if i % 2 else total + a[i] * d
        return mp.mpc(0, mp.pi) / N * total / ctx.brace_at(1)


# -- catalog and resolver -------------------------------------------------


def _unknot(i: int) -> LaurentPoly:
    return LaurentPoly.const(1 if i == 0 else 0)


def _trefoil(i: int) -> LaurentPoly:
    # (-1)^i q^{-i(i+3)}, at doubled exponent -2i(i+3)
    return LaurentPoly({-2 * i * (i + 3): (-1) ** i})


def _figure_eight(i: int) -> LaurentPoly:
    return LaurentPoly.const(1)


# closed forms of the catalog knots, keyed by the names of jones.KNOT_CATALOG
_CLOSED_FORMS = {"unknot": _unknot, "3_1": _trefoil, "4_1": _figure_eight}
_CATALOG_CACHE = {}


def catalog_coeffs(knot: str) -> HabiroCoeffs:
    """Cyclotomic coefficients of the built-in knots, every a_i known:
    the unknot has 1, 0, 0, ..., the trefoil (-1)^i q^{-i(i+3)} and the
    figure-eight a_i = 1."""
    if knot not in _CATALOG_CACHE:
        if knot not in _CLOSED_FORMS:
            raise KeyError(f"no catalog coefficients for {knot!r}")
        _CATALOG_CACHE[knot] = HabiroCoeffs(knot, _CLOSED_FORMS[knot])
    return _CATALOG_CACHE[knot]


def coeffs_for(knot, max_color: int) -> HabiroCoeffs:
    """The one resolver from a knot to its coefficients.

    A HabiroCoeffs is returned as it is and a catalog name gets its closed
    form.  A BraidWord or braid string is traced at colors 1..max_color
    and solved for a_0..a_{max_color-1}; the top color's tensor dimension
    is checked before the first trace.
    """
    if isinstance(knot, HabiroCoeffs):
        return knot
    if knot in _CLOSED_FORMS:
        return catalog_coeffs(knot)
    braid = knot if isinstance(knot, jones.BraidWord) else jones.parse_braid(knot)
    jones.check_trace(braid, max_color)
    values = [jones.colored_jones_zero_framed(braid, m) for m in range(1, max_color + 1)]
    return extract_coeffs(values, knot=braid.name or str(knot))
