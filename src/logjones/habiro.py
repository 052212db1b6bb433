"""Cyclotomic expansion of the colored Jones invariant.

V_m(L) = sum_i a_i(L) {m+i, 2i+1}_q / {1}_q with knot coefficients a_i
that do not depend on the color m.  This module extracts the a_i from a
run of exact 0-framed invariants, reconstructs V_m from them, and
differentiates the expansion in the color m at q = xi.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from importlib import resources

import mpmath as mp

from .qcalc import LaurentPoly, RootContext, brace, brace_falling
from . import jones


class TruncationError(AssertionError):
    """A term dropped by the d/dm truncation did not provably vanish."""


@dataclasses.dataclass
class HabiroCoeffs:
    """Cyclotomic coefficients a_0, a_1, ... of one knot.

    all_ones marks knots whose full coefficient sequence is constantly 1
    (the figure-eight), making every color reachable; otherwise colors are
    limited by the number of stored coefficients.
    """

    knot: str
    coeffs: list
    all_ones: bool = False
    tail_zero: bool = False  # a_i = 0 beyond the stored table (unknot)
    # reconstructed V_m and V_m/[m], keyed by (formula, m); the polynomials
    # are shared between callers, which never mutate .terms in place
    _memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.all_ones:
            if not self.coeffs or self.coeffs[0] != LaurentPoly.const(1):
                raise ValueError("a_0 must be 1 (forced by V_1 = 1)")

    @property
    def i_max(self) -> int:
        return -1 if self.all_ones else len(self.coeffs) - 1

    def coeff(self, i: int) -> LaurentPoly:
        if self.all_ones:
            return LaurentPoly.const(1)
        if i >= len(self.coeffs):
            if self.tail_zero:
                return LaurentPoly()
            raise ValueError(f"{self.knot}: coefficient a_{i} is not available (have {len(self.coeffs)})")
        return self.coeffs[i]

    def has_coeff(self, i: int) -> bool:
        return self.all_ones or self.tail_zero or i < len(self.coeffs)

    def coeff_at_xi(self, i: int, ctx: RootContext):
        return ctx.eval(self.coeff(i))

    def to_json(self) -> str:
        if self.all_ones:
            return json.dumps({"knot": self.knot, "all_ones": True}, sort_keys=True)
        payload = {
            "knot": self.knot,
            "coeffs": [sorted((str(e), str(c)) for e, c in p.terms.items()) for p in self.coeffs],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "HabiroCoeffs":
        data = json.loads(text)
        if data.get("all_ones"):
            return HabiroCoeffs(data["knot"], [], all_ones=True)
        coeffs = [
            LaurentPoly({int(e): _parse_rational(c) for e, c in pairs})
            for pairs in data["coeffs"]
        ]
        return HabiroCoeffs(data["knot"], coeffs)


def _parse_rational(text: str):
    if "/" in text:
        return Fraction(text)
    return int(text)


def extract_coeffs(jones_values, knot: str = "") -> HabiroCoeffs:
    """Solve for a_0..a_{M-1} from exact 0-framed V_1..V_M.

    The system is lower triangular because {m+i, 2i+1} contains the factor
    {0} once i >= m; forward substitution with exact division recovers the
    coefficients, and a nonzero remainder means the inputs were not the
    0-framed invariants of a knot.
    """
    one = brace(1)
    coeffs = []
    for m, vm in enumerate(jones_values, start=1):
        acc = LaurentPoly(vm.terms)
        for i in range(m - 1):
            acc = acc - coeffs[i] * (brace_falling(m + i, 2 * i + 1) / one)
        coeffs.append(acc / (brace_falling(2 * m - 1, 2 * m - 1) / one))
    return HabiroCoeffs(knot, coeffs)


def _check_color(h: HabiroCoeffs, m: int):
    if m < 1:
        raise ValueError("m must be >= 1")
    if not h.has_coeff(m - 1):
        raise ValueError(f"{h.knot}: V_{m} needs a_{m-1}, only a_0..a_{h.i_max} available")


def reconstruct_Vm(h: HabiroCoeffs, m: int) -> LaurentPoly:
    """V_m = sum_{i=0}^{m-1} a_i {m+i, 2i+1}/{1}; exact for m <= i_max+1
    or for catalog knots with a full coefficient sequence.

    {m+i, 2i+1} = {m+i}...{m-i} is the previous factor times {m+i}{m-i},
    and the sum is divided by {1} once.  Memoized on h."""
    key = ("Vm", m)
    if key not in h._memo:
        _check_color(h, m)
        out = LaurentPoly()
        window = brace(m)
        for i in range(m):
            if i:
                window = window * (brace(m + i) * brace(m - i))
            out = out + h.coeff(i) * window
        h._memo[key] = out / brace(1)
    return h._memo[key]


def reconstruct_normalized_Vm(h: HabiroCoeffs, m: int) -> LaurentPoly:
    """V_m/[m] = sum_i a_i prod_{j=1}^{i} {m+j}{m-j}, exact.  Memoized on h."""
    key = ("normalized", m)
    if key not in h._memo:
        _check_color(h, m)
        out = LaurentPoly()
        ladder = LaurentPoly.const(1)
        for i in range(m):
            if i:
                ladder = ladder * (brace(m + i) * brace(m - i))
            out = out + h.coeff(i) * ladder
        h._memo[key] = out
    return h._memo[key]


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
    with ctx.workprec():
        ln_xi = mp.mpc(0, mp.pi) / N
        total = mp.mpc(0)
        for i in range(2 * N):
            ks = range(s - i, s + i + 1)
            vanishing = [k for k in ks if k % N == 0]
            if len(vanishing) >= 2:
                continue
            ai = h.coeff_at_xi(i, ctx)
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


# -- catalog ------------------------------------------------------------


def _load_trefoil() -> HabiroCoeffs:
    text = resources.files("logjones").joinpath("_data/trefoil_coeffs.json").read_text()
    return HabiroCoeffs.from_json(text)


_CATALOG_CACHE = {}


def catalog_coeffs(knot: str) -> HabiroCoeffs:
    """Cyclotomic coefficients of the built-in knots.

    4_1 has a_i = 1 for all i; 3_1 carries a frozen table derived from
    exact braid traces (scripts/derive_trefoil_coeffs.py regenerates it).
    """
    if knot not in _CATALOG_CACHE:
        if knot == "unknot":
            _CATALOG_CACHE[knot] = HabiroCoeffs("unknot", [LaurentPoly.const(1)], tail_zero=True)
        elif knot == "4_1":
            _CATALOG_CACHE[knot] = HabiroCoeffs("4_1", [], all_ones=True)
        elif knot == "3_1":
            _CATALOG_CACHE[knot] = _load_trefoil()
        else:
            raise KeyError(f"no catalog coefficients for {knot!r}")
    return _CATALOG_CACHE[knot]


def coeffs_for(knot, max_color: int) -> HabiroCoeffs:
    """Coefficients for a catalog name or BraidWord, extracting from exact
    braid traces when the knot is not in the catalog."""
    if isinstance(knot, str) and knot in ("unknot", "3_1", "4_1"):
        return catalog_coeffs(knot)
    braid = knot if isinstance(knot, jones.BraidWord) else jones.parse_braid(knot)
    values = [jones.colored_jones_zero_framed(braid, m) for m in range(1, max_color + 1)]
    return extract_coeffs(values, knot=braid.name or str(knot))
