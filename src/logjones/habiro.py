"""Cyclotomic expansion of the colored Jones invariant.

V_m(L) = sum_i a_i(L) {m+i, 2i+1}_q / {1}_q with knot coefficients a_i
that do not depend on the color m (Habiro, Invent. Math. 171 (2008)).
This module owns the whole Habiro layer: how a knot's a_i are stored (a
rule i -> a_i, closed-form for the catalog, a table when extracted from
exact 0-framed invariants), the one resolver from a knot to them, the
reconstruction of V_m, the cotangent/tilde-bracket sum over a_i(xi) and
the color derivative of the expansion at q = xi.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Callable

import mpmath as mp
from mpmath.libmp import dps_to_prec, to_fixed

from .qcalc import Jet, LaurentPoly, RootContext, brace, qint
from . import jones


class TruncationError(AssertionError):
    """A term dropped by the d/dm truncation did not provably vanish."""


@dataclasses.dataclass
class HabiroCoeffs:
    """Cyclotomic coefficients a_0, a_1, ... of one knot, as a rule i -> a_i.

    i_max is the highest known index, or None when every a_i is known (a
    catalog closed form).  An extracted table is bounded by its length.
    """

    knot: str
    rule: Callable[[int], LaurentPoly]
    i_max: int | None = None
    # reconstructed V_m and V_m/[m], keyed by (formula, m), the jets of
    # V_m/[m], keyed by ("jet", N, m), and of the a_i, keyed by
    # ("jets", N), the list of a_i at xi, keyed by ("xi", N, dps), and its
    # fixed-point parts, keyed by ("fixed", N, P); the lists are only ever
    # appended to and shared between callers, which never mutate them
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

    def at_xi(self, count: int, ctx: RootContext) -> list:
        """a_0(xi), ..., a_{count-1}(xi), each evaluated once per (N, dps).

        The returned list is the memoized one and may be longer than count."""
        values = self._memo.setdefault(("xi", ctx.N, ctx.dps), [])
        while len(values) < count:
            v = ctx.eval(self.coeff(len(values)))
            # a real value stays an mpf, so that sums over real a_i stay real
            values.append(v.real if not v.imag else v)
        return values

    def fixed_at_xi(self, count: int, ctx: RootContext) -> tuple:
        """(re, im, scale): the parts of a_0(xi), ..., a_{count-1}(xi) as
        ints at the scale 2^scale, converted once per (N, P) from the raw
        values of ``at_xi``.  The scale is 0 while every a_i(xi) is a
        Gaussian integer, as the unknot's and the figure-eight's are, so
        that their products with the terms stay cheap, and otherwise the
        P of ``ctx.sin_cot``.

        The returned lists are the memoized ones and may be longer."""
        P = ctx.sin_cot[-1]
        memo = self._memo.setdefault(("fixed", ctx.N, P), [[], [], 0])
        re, im, scale = memo
        for v in self.at_xi(count, ctx)[len(re):count]:
            if not scale and not (mp.isint(v.real) and mp.isint(v.imag)):
                memo[2] = scale = P
                re[:] = [x << P for x in re]
                im[:] = [x << P for x in im]
            re.append(to_fixed(v.real._mpf_, scale))
            im.append(to_fixed(v.imag._mpf_, scale))
        return re, im, scale


def extract_coeffs(jones_values, knot: str = "") -> HabiroCoeffs:
    """Solve for a_0..a_{M-1} from exact 0-framed V_1..V_M.

    V_m/[m] = sum_{i<m} a_i L_i(m) (see _ladder) is lower triangular in
    the a_i: forward substitution divides V_m exactly by [m], subtracts the
    known terms and divides once by L_{m-1}(m).  A nonzero remainder means
    the inputs were not the 0-framed invariants of a knot.
    """
    coeffs = []
    for m, vm in enumerate(jones_values, start=1):
        acc = vm / qint(m)
        *lower, top = _ladder(m)
        for a, rung in zip(coeffs, lower):
            acc = acc - a * rung
        coeffs.append(acc / top)
    return HabiroCoeffs.from_table(knot, coeffs)


def _check_color(h: HabiroCoeffs, m: int):
    if m < 1:
        raise ValueError("m must be >= 1")
    if not h.has_coeff(m - 1):
        raise ValueError(f"{h.knot}: V_{m} needs a_{m-1}, only a_0..a_{h.i_max} available")


def _ladder(m: int):
    """L_0(m), ..., L_{m-1}(m) with L_i(m) = prod_{j=1}^{i} {m+j}{m-j}.

    {m+i, 2i+1}/{1} = [m] L_i(m), so this one ladder serves V_m, V_m/[m]
    and the extraction of the a_i."""
    rung = LaurentPoly.const(1)
    for i in range(m):
        if i:
            rung = rung * (brace(m + i) * brace(m - i))
        yield rung


def reconstruct_Vm(h: HabiroCoeffs, m: int) -> LaurentPoly:
    """V_m = [m] (V_m/[m]); exact whenever a_{m-1} is known.  Memoized on h."""
    key = ("Vm", m)
    if key not in h._memo:
        h._memo[key] = qint(m) * reconstruct_normalized_Vm(h, m)
    return h._memo[key]


def reconstruct_normalized_Vm(h: HabiroCoeffs, m: int) -> LaurentPoly:
    """V_m/[m] = sum_{i=0}^{m-1} a_i L_i(m), exact.  Memoized on h."""
    key = ("normalized", m)
    if key not in h._memo:
        _check_color(h, m)
        out = LaurentPoly()
        for i, rung in enumerate(_ladder(m)):
            out = out + h.coeff(i) * rung
        h._memo[key] = out
    return h._memo[key]


def normalized_Vm_jet(h: HabiroCoeffs, m: int, N: int) -> Jet:
    """The jet of V_m/[m] mod x^{4N} - 1 (see qcalc.Jet), equal to
    Jet.of(reconstruct_normalized_Vm(h, m), N) without building V_m/[m].

    Horner's rule on the ladder: J = a_{m-1}, then
    J = a_{j-1} + {m+j}{m-j} J for j = m-1, ..., 1, four rotations of a
    4N vector per step; the a_i are reduced once per N.  Memoized on h,
    keyed by (N, m)."""
    key = ("jet", N, m)
    if key not in h._memo:
        _check_color(h, m)
        a = h._memo.setdefault(("jets", N), [])
        while len(a) < m:
            a.append(Jet.of(h.coeff(len(a)), N))
        J = a[m - 1]
        for j in range(m - 1, 0, -1):
            J = a[j - 1] + J.times(brace(m + j) * brace(m - j))
        h._memo[key] = J
    return h._memo[key]


def tilde_sum(h: HabiroCoeffs, s: int, ctx: RootContext):
    """The cotangent/tilde-bracket sum over a_i(xi), O(N) per s.

    With su = min(s, N-s) and sb = max(s, N-s), returns (G, S):

      G = sum_{i<su} a_i {s+i,2i+1} sum_{k=s-i..s+i} {k}_+/{k}
          + 2 sum_{i=su..sb-1} a_i ~{s+i,2i+1},
      S = sum_{i<su} a_i (-1)^i prod_{k=s-i..s+i} 2 sin(pi k/N),

    where ~{n,j} replaces each factor {tN} by (-1)^t.  At xi,
    {k} = 2i sin(pi k/N) and {k}_+/{k} = -i cot(pi k/N), so every term
    but a_i is real, and {s+i,2i+1} = i (-1)^i prod_{k=s-i..s+i}
    2 sin(pi k/N), so S = -i sum_{i<su} a_i {s+i,2i+1}.

    The terms run in fixed point: ints at the scale 2^P of the context's
    table ``sin_cot``, one truncation (x * y) >> P per product, and the
    a_i(xi) converted once per (N, P) by ``HabiroCoeffs.fixed_at_xi``.
    The sums are exact and are rounded once, to the working precision.

    Each product adds at most one unit 2^-P; a unit added where a window
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
    a_re, a_im, scale = h.fixed_at_xi(sb, ctx)
    sines, cots_of, cos2, P = ctx.sin_cot
    # prods[i] = (-1)^i prod_{k=s-i..s+i} 2 sin(pi k/N); each i adds the
    # factors 2 sin(pi (s+i)/N) 2 sin(pi (s-i)/N) = cos2[i] - cos2[s], and
    # the cotangent window [s-i, s+i] stays inside 1..N-1
    c_s = cos2[s]
    prod = sines[s]
    cots = cots_of[s]
    prods = [prod]
    terms = [prod * cots >> P]
    for i in range(1, su):
        prod = -(prod * (cos2[i] - c_s)) >> P
        cots += cots_of[s + i] + cots_of[s - i]
        prods.append(prod)
        terms.append(prod * cots >> P)
    # tilde terms 2 (-1)^i ~{s+i,2i+1}: the window [s-i, s+i] holds one
    # multiple of N, 0 when 2s < N and N (~{N} = -1) when 2s > N.  At
    # i = su it is the last cotangent window and its other end; each later
    # i adds two factors, the same pair as above.
    if su < sb:
        if 2 * s < N:
            term = -(prod * sines[2 * s]) >> (P - 1)
        else:
            term = prod * sines[2 * s - N] >> (P - 1)
        terms.append(term)
        for i in range(su + 1, sb):
            term = -(term * (cos2[i] - c_s)) >> P
            terms.append(term)
    # G and S are exact int sums at the scale 2^(P + scale), complex only
    # where some a_i they read is
    g_parts = [a_re, a_im] if any(a_im[:sb]) else [a_re]
    s_parts = [a_re, a_im] if any(a_im[:su]) else [a_re]
    g_terms = [list(map(operator.mul, a, terms)) for a in g_parts]
    g_sums = [sum(t) for t in g_terms]
    s_sums = [sum(map(operator.mul, a, prods)) for a in s_parts]
    # digits left: every term keeps min(prec, P - _FIXED_GUARD - dip) bits,
    # the dip read off the shallowest window product, and G loses the bits
    # of its largest a_i term above |G|
    low = min(min(map(int.bit_length, prods)),
              min(map(int.bit_length, terms[su:]), default=P + 1) - 1)
    kept = min(dps_to_prec(ctx.dps), P - RootContext._FIXED_GUARD - max(0, P - low))
    cancel = max(max(map(int.bit_length, t)) for t in g_terms) - max(map(int.bit_length, g_sums))
    loss = ctx.dps - (kept - cancel) * _LOG10_2
    with ctx.workprec():
        G, S = _from_fixed(g_sums, P + scale), _from_fixed(s_sums, P + scale)
        if loss + RootContext._GUARD < ctx.dps or abs(G) < ctx.tol:
            return G, S
        # the lost digits back, in steps of _GUARD so that rows share one
        # finer context (its sin_cot table) and its memoized a_i
        extra = math.ceil(loss / RootContext._GUARD) * RootContext._GUARD
        G, S = tilde_sum(h, s, ctx.finer(extra))
        return +G, +S


_LOG10_2 = math.log10(2)


def _from_fixed(sums, exp):
    """mpf (one sum) or mpc (real and imaginary sums) of ints times 2^exp,
    rounded once to the working precision."""
    if len(sums) == 1:
        return mp.mpf((sums[0], -exp))
    return mp.mpc((sums[0], -exp), (sums[1], -exp))


def ddm_Vm(h: HabiroCoeffs, s: int, ctx: RootContext):
    """d/dm V_m at m = s, q = xi, from the cyclotomic expansion.

    The color derivative acts on q^{m+c} by ln(xi) = pi*i/N.  A Leibniz
    term survives only when every undifferentiated factor is nonzero at
    xi, so terms whose factor window [s-i, s+i] meets two multiples of N
    vanish; the sum is truncated at i = 2N-1 and every truncated index up
    to 3N is checked to have at least two vanishing factors.
    """
    N = ctx.N
    if not 1 <= s <= 2 * N:
        raise ValueError("s must be in 1..2N")
    if not h.has_coeff(2 * N - 1):
        raise ValueError(f"{h.knot}: d/dm needs coefficients through i = {2 * N - 1}")
    for i in range(2 * N, 3 * N + 1):
        vanish = sum(1 for k in range(s - i, s + i + 1) if k % N == 0)
        if vanish < 2:
            raise TruncationError(f"truncated term i={i} has only {vanish} vanishing factor(s)")
    a = h.at_xi(2 * N, ctx)
    with ctx.workprec():
        ln_xi = mp.mpc(0, mp.pi) / N
        total = mp.mpc(0)
        for i in range(2 * N):
            ks = range(s - i, s + i + 1)
            vanishing = [k for k in ks if k % N == 0]
            if len(vanishing) >= 2:
                continue
            ai = a[i]
            if len(vanishing) == 1:
                k0 = vanishing[0]
                prod = mp.mpc(1)
                for k in ks:
                    if k != k0:
                        prod *= ctx.brace_at(k)
                total += ai * ctx.brace_plus(k0) * prod
            else:
                prod = mp.mpc(1)
                for k in ks:
                    prod *= ctx.brace_at(k)
                cot_sum = mp.fsum(ctx.brace_plus(k) / ctx.brace_at(k) for k in ks)
                total += ai * prod * cot_sum
        return ln_xi * total / ctx.brace_at(1)


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
