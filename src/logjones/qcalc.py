"""Exact Laurent polynomial arithmetic in q^{1/2} and numeric evaluation at
the 2N-th root of unity.

A Laurent polynomial is stored as a map from doubled exponents to int
coefficients, so q^{3/2} lives at key 3 and q^{-2} at key -4; only d/dq on
odd keys makes a Fraction.  All ring operations are exact, and so are
limits at xi = exp(pi*i/N), which cancel Phi_4N(q^{1/2}) before a
RootContext evaluates.  A Jet keeps only the exact residues that
evaluation, and d/dq, at xi read of a polynomial.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import dps_to_prec, to_fixed


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where an exact quotient was required."""


class LaurentPoly:
    """Laurent polynomial in q^{1/2} with exact coefficients.

    ``terms`` maps doubled exponents (int) to nonzero int coefficients
    (Fraction after ddq); the zero polynomial has an empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    # -- ring structure -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        r = dict(self.terms)
        for e, c in other.terms.items():
            s = r.get(e, 0) + c
            if s:
                r[e] = s
            else:
                r.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = r
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) * len(b) > 3000:
            packed = _try_kronecker_mul(a, b)
            if packed is not None:
                out = LaurentPoly.__new__(LaurentPoly)
                out.terms = packed
                return out
        r = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = r.get(e, 0) + c1 * c2
                if s:
                    r[e] = s
                else:
                    del r[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = r
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        q, r = self.divmod(other)
        if r:
            raise InexactDivisionError(f"division of {self} by {other} leaves remainder {r}")
        return q

    def divmod(self, other: "LaurentPoly"):
        """Long division in the Laurent ring: self = q*other + r, by other
        with top coefficient +-1 (ValueError otherwise)."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly(), LaurentPoly()
        amin, amax = min(self.terms), max(self.terms)
        bmin, bmax = min(other.terms), max(other.terms)
        num = [self.terms.get(e, 0) for e in range(amin, amax + 1)]
        den = [other.terms.get(e, 0) for e in range(bmin, bmax + 1)]
        lead = den[-1]
        if lead not in (1, -1):
            raise ValueError(f"divisor {other} has top coefficient {lead}, not +-1")
        qlen = len(num) - len(den) + 1
        if qlen <= 0:
            return LaurentPoly(), self
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            top = num[i + len(den) - 1]
            if not top:
                continue
            c = top * lead
            quot[i] = c
            for j, d in enumerate(den):
                if d:
                    num[i + j] -= c * d
        q = LaurentPoly({i + amin - bmin: c for i, c in enumerate(quot)})
        r = LaurentPoly({i + amin: c for i, c in enumerate(num[: len(den) - 1])})
        return q, r

    # -- structure ----------------------------------------------------

    def degree2(self):
        """Top doubled exponent, or None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def shift(self, half_steps: int) -> "LaurentPoly":
        """Multiply by q^(half_steps/2)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e + half_steps: c for e, c in self.terms.items()}
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = f"{mag}"
            else:
                ex = str(e // 2) if e % 2 == 0 else f"{e}/2"
                body = f"q^{ex}" if mag == 1 else f"{mag}*q^{ex}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# -- Kronecker substitution --------------------------------------------
#
# An integer term map {e: c_e} whose doubled exponents are e = lo + step*k
# (k >= 0) is stored as the int sum_k c_e 2^{W k} (Harvey, J. Symbolic
# Comput. 44 (2009)).  Products and sums of such ints are products and sums
# of the polynomials evaluated at 2^W, with offsets lo that add, so they
# decode exactly when every coefficient lies strictly between -2^{W-1} and
# 2^{W-1}.
#
# Both directions split their digit range in halves, digits 0..h-1 and
# h..n-1 with h = n // 2, so that each level of the recursion copies the
# int once: O(n log n) digit copies for n digits, where a loop over the
# digits copies the whole int once per digit.  A range of at most
# _KRON_LEAF digits is a leaf and runs that loop, which is cheaper than the
# splits there.

_KRON_LEAF = 64


def kron_pack(terms: dict, lo: int, step: int, width: int) -> int:
    """The int sum_k c_e 2^{W k} of a term map with e = lo + step*k."""
    digits = [terms.get(e, 0) for e in range(lo, max(terms, default=lo - 1) + 1, step)]
    return _pack_digits(digits, 0, len(digits), width)


def _pack_digits(digits: list, i: int, j: int, width: int) -> int:
    """sum_{k=i..j-1} digits[k] 2^{W (k-i)}: the low half's int plus the
    high half's, shifted up by W h."""
    if j - i <= _KRON_LEAF:
        return sum(map(operator.lshift, digits[i:j], range(0, width * (j - i), width)))
    h = (j - i) // 2
    return (_pack_digits(digits, i, i + h, width)
            + (_pack_digits(digits, i + h, j, width) << (width * h)))


def kron_unpack(total: int, lo: int, step: int, width: int) -> dict:
    """Signed digits of total in base 2^W, with borrow, as a term map
    whose k-th digit sits at doubled exponent lo + step*k, in increasing
    order.  A negative total is fine: each digit is taken in
    (-2^{W-1}, 2^{W-1}] and subtracted before the shift, so total reaches
    0.

    A split takes the low h digits as total mod 2^{W h}, read as signed:
    h digits in (-2^{W-1}, 2^{W-1}] reach every residue mod 2^{W h} once,
    and the largest, every digit 2^{W-1}, is
    2^{W-1} (2^{W h} - 1)/(2^W - 1), so a residue above it stands for the
    residue less 2^{W h}.  The high digits are those of the rest, shifted
    down by W h.  At h = 1 this is the leaf loop's own rule."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    # digits of total, a last borrowed one included
    n = abs(total).bit_length() // width + 1
    if n <= _KRON_LEAF:
        terms = {}
        e = lo
        while total:
            digit = total & mask
            if digit > half:
                digit -= mask + 1
            if digit:
                terms[e] = digit
            total = (total - digit) >> width
            e += step
        return terms
    h = n // 2
    bits = width * h
    low = total & ((1 << bits) - 1)
    if low > half * (((1 << bits) - 1) // mask):
        low -= 1 << bits
    terms = kron_unpack(low, lo, step, width)
    terms.update(kron_unpack((total - low) >> bits, lo + step * h, step, width))
    return terms


def _try_kronecker_mul(a, b):
    """Product of two int-coefficient term maps as one big-int product
    (Kronecker substitution); None when a coefficient is
    not an int or either map is too sparse for dense packing to pay off.

    Both maps share the gcd step of their exponents.  No product
    coefficient exceeds max|a| max|b| min(len a, len b), so a width one
    bit above that bound decodes every digit of the product."""
    amin, bmin = min(a), min(b)
    if max(a) - amin + 1 > 70 * len(a) or max(b) - bmin + 1 > 70 * len(b):
        return None
    if any(type(c) is not int for c in a.values()) or any(type(c) is not int for c in b.values()):
        return None
    # the gcd is 0 when both maps are single terms
    step = math.gcd(*(e - amin for e in a), *(e - bmin for e in b)) or 1
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    width = bound.bit_length() + 1
    prod = kron_pack(a, amin, step, width) * kron_pack(b, bmin, step, width)
    return kron_unpack(prod, amin + bmin, step, width)


# -- the q-symbol zoo --------------------------------------------------


def brace(n: int) -> LaurentPoly:
    """{n}_q = q^n - q^{-n}."""
    if n == 0:
        return LaurentPoly()
    return LaurentPoly({2 * n: 1, -2 * n: -1})


def brace_falling(n: int, k: int) -> LaurentPoly:
    """{n, k}_q = prod_{j=0}^{k-1} {n-j}_q; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = LaurentPoly.const(1)
    for j in range(k):
        out = out * brace(n - j)
    return out


def brace_fact(n: int) -> LaurentPoly:
    """{n}_q! = {n, n}_q."""
    return brace_falling(n, n)


def qint(n: int) -> LaurentPoly:
    """[n]_q = {n}_q/{1}_q = q^{n-1} + q^{n-3} + ... + q^{1-n}."""
    if n == 0:
        return LaurentPoly()
    if n < 0:
        return -qint(-n)
    return LaurentPoly({2 * e: 1 for e in range(-(n - 1), n, 2)})


def qfact(n: int) -> LaurentPoly:
    """[n]_q! = prod_{k=1}^{n} [k]_q."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = LaurentPoly.const(1)
    for k in range(1, n + 1):
        out = out * qint(k)
    return out


def qbinom(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial [n over k]_q by exact polynomial division."""
    if k < 0 or n < 0:
        raise ValueError("n, k must be >= 0")
    if k > n:
        return LaurentPoly()
    out = LaurentPoly.const(1)
    for j in range(k):
        out = (out * qint(n - j)) / qint(j + 1)
    return out


def ddq(p: LaurentPoly) -> LaurentPoly:
    """Formal d/dq; a term q^{e/2} maps to (e/2) q^{e/2 - 1}, a Fraction
    only where (e/2) c is not an integer."""
    r = {}
    for e, c in p.terms.items():
        r[e - 2] = Fraction(c * e, 2) if c * e % 2 else c * e // 2
    return LaurentPoly(r)


@functools.cache
def cyclotomic(n: int) -> LaurentPoly:
    """Phi_n(x), x = q^{1/2}: x^n - 1 divided exactly by Phi_d for each
    proper divisor d of n.  Memoized, so callers share the result."""
    out = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            out = out / cyclotomic(d)
    return out


# -- evaluation at roots of unity --------------------------------------


def residue_bins(terms: dict, period: int) -> dict:
    """The coefficients of a term map summed exactly by doubled exponent
    mod ``period``; at period 4N these are the values that q = xi, a
    2N-th root of unity, cannot tell apart."""
    bins = {}
    for e, c in terms.items():
        k = e % period
        bins[k] = bins.get(k, 0) + c
    return bins


class Jet:
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
    def of(cls, p: LaurentPoly, N: int) -> "Jet":
        n = 4 * N
        v, w = [0] * n, [0] * n
        for k, c in residue_bins(p.terms, n).items():
            v[k] = c
        for k, c in residue_bins({e: e * c for e, c in p.terms.items()}, n).items():
            w[k] = c
        return cls(v, w)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.v == other.v and self.w == other.w

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(list(map(operator.add, self.v, other.v)),
                   list(map(operator.add, self.w, other.w)))

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(list(map(operator.sub, self.v, other.v)),
                   list(map(operator.sub, self.w, other.w)))

    def times(self, p: LaurentPoly) -> "Jet":
        """The jet of (this polynomial) * p, for a sparse p: each term
        c x^a rotates both vectors by a and adds a c v to w, with a the
        unreduced exponent (D x^a = a x^a)."""
        n = len(self.v)
        v_out, w_out = [0] * n, [0] * n
        for a, c in p.terms.items():
            r = a % n
            v = self.v[-r:] + self.v[:-r]
            w = self.w[-r:] + self.w[:-r]
            v_out = [x + c * y for x, y in zip(v_out, v)]
            w_out = [x + c * (y + a * z) for x, y, z in zip(w_out, w, v)]
        return Jet(v_out, w_out)

    def shift(self, half_steps: int) -> "Jet":
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


@dataclasses.dataclass(frozen=True)
class RootContext:
    """Holds N, the 2N-th root of unity xi = exp(pi*i/N), and the working
    precision in decimal digits.

    Evaluation routines run with a few guard digits on top of
    ``precision_digits``; comparisons should use ``tol`` which leaves half
    the configured digits as guard.
    """

    N: int
    precision_digits: int = 60

    _GUARD = 10
    # bits of the fixed-point table sin_cot beyond the working precision
    # and the dip, for the rounding errors of the products it enters
    _FIXED_GUARD = 30

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.precision_digits < 30:
            raise ValueError("precision_digits must be >= 30")

    @property
    def dps(self) -> int:
        return self.precision_digits + self._GUARD

    def workprec(self):
        return mp.workdps(self.dps)

    @functools.cached_property
    def tol(self):
        """10^-(precision_digits // 2), rounded once at ``dps``."""
        with self.workprec():
            return mp.mpf(10) ** (-self.precision_digits // 2)

    @functools.cached_property
    def half_powers(self):
        """xi^{k/2} = exp(pi*i*k/2N) for k = 0..4N-1, built once at ``dps``.

        q^{1/2} = xi^{1/2} is a 4N-th root of unity, so every evaluation at
        xi reads this table.  Entries up to k = 2N come from mpmath; the
        rest are their exact conjugates.
        """
        with self.workprec():
            top = [mp.expjpi(mp.mpf(k) / (2 * self.N)) for k in range(2 * self.N + 1)]
            return tuple(top + [z.conjugate() for z in reversed(top[1:-1])])

    @functools.cached_property
    def sin_cot(self):
        """(sines, cots, cos2, P): 2 sin(pi k/N), cot(pi k/N) and
        2 cos(2 pi k/N) for k = 0..N-1 as ints at the scale 2^P, the
        fixed-point table of ``habiro.tilde_sum``; cot is 0 at k = 0.

        xi^k is taken at P bits for k <= N/2, where a small sine keeps its
        relative accuracy, and continued by sin(pi (N-k)/N) = sin(pi k/N);
        the values are rounded down to ints by ``to_fixed``.  P is the
        working precision plus N/2 bits for the dip and _FIXED_GUARD bits
        for the rest.  A window product of sines falls to about
        e^{-0.33 N} = 2^{-0.47 N} before it grows again, and a truncation
        made at its bottom is amplified by as much.  The rest is the
        truncation of up to 3N products and the rounding of the factors
        2 sin(pi (s+i)/N) 2 sin(pi (s-i)/N) = cos2[i] - cos2[s], whose
        relative errors add up to at most N^2/10 units 2^-P: 23 bits at
        N = 10^4."""
        N = self.N
        P = dps_to_prec(self.dps) + self._FIXED_GUARD + N // 2
        with mp.workprec(P):
            roots = [mp.expjpi(mp.mpf(k) / N) for k in range(N // 2 + 1)]
            sin_q = [to_fixed(z.imag._mpf_, P + 1) for z in roots]
            cot_q = [to_fixed((z.real / z.imag)._mpf_, P) if z.imag else 0 for z in roots]
            cos_q = [to_fixed((z * z).real._mpf_, P + 1) for z in roots]
        ks = range(N)
        return (tuple(sin_q[min(k, N - k)] for k in ks),
                tuple(cot_q[k] if 2 * k <= N else -cot_q[N - k] for k in ks),
                tuple(cos_q[min(k, N - k)] for k in ks), P)

    @functools.cached_property
    def _finer(self):
        return {}

    def finer(self, extra_digits: int) -> "RootContext":
        """The context of the same N with ``extra_digits`` more digits,
        made once per context and extra_digits, so that callers that step
        up to it again share its tables."""
        if extra_digits not in self._finer:
            self._finer[extra_digits] = RootContext(
                self.N, precision_digits=self.precision_digits + extra_digits)
        return self._finer[extra_digits]

    @functools.cached_property
    def _qfact_prefix(self):
        """[n]! at xi for n = 0..N-1; [N] = 0 makes every later one 0."""
        with self.workprec():
            out = [mp.mpf(1)]
            for k in range(1, self.N):
                out.append(out[-1] * self.qint_at(k))
            return tuple(out)

    @property
    def xi(self):
        return self.half_powers[2]

    def xi_pow(self, num: int, den: int = 1):
        """xi^(num/den) for den in {1, 2}."""
        if den not in (1, 2):
            raise ValueError("den must be 1 or 2")
        return self.half_powers[num * (2 // den) % (4 * self.N)]

    def eval_at(self, p: LaurentPoly):
        """p at q = xi: the coefficients are summed exactly into the 4N
        residues of their doubled exponents and dotted once with
        ``half_powers``."""
        return self.eval_bins(residue_bins(p.terms, 4 * self.N).items())

    def eval_bins(self, bins):
        """sum_k c_k xi^{k/2} over the pairs (k, c_k), 0 <= k < 4N, with
        exact c_k: one dot product with ``half_powers``, rounded once.
        Every evaluation of a polynomial at xi ends here."""
        with self.workprec():
            table = self.half_powers
            pairs = [(int_or_frac_to_mp(c), table[k]) for k, c in bins if c]
            return mp.fdot(pairs) if pairs else mp.mpc(0)

    def brace_plus(self, n: int):
        """{n}_+ = xi^n + xi^{-n} = 2 cos(n*pi/N)."""
        with self.workprec():
            return 2 * self.xi_pow(n).real

    def brace_at(self, n: int):
        """{n} at xi, i.e. 2i sin(n*pi/N)."""
        with self.workprec():
            return mp.mpc(0, 2 * self.xi_pow(n).imag)

    def qint_at(self, n: int):
        """[n] at xi = sin(n*pi/N)/sin(pi/N)."""
        with self.workprec():
            return self.xi_pow(n).imag / self.xi.imag

    def qfact_at(self, n: int):
        """[n]! at xi."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._qfact_prefix[n] if n < self.N else mp.mpf(0)

    def order_at(self, p: LaurentPoly):
        """(k, p / Phi_4N^k) for a nonzero p: k is the order of the zero of
        p at q^{1/2} = xi^{1/2}, the number of times Phi_4N(q^{1/2}), its
        minimal polynomial, divides p exactly, so the quotient does not
        vanish at xi.  This is the one loop that cancels Phi_4N.
        ZeroDivisionError for the zero polynomial, which every power
        divides."""
        if not p:
            raise ZeroDivisionError("the zero polynomial has no order at xi")
        phi = cyclotomic(4 * self.N)
        k = 0
        while True:
            quot, rem = p.divmod(phi)
            if rem:
                return k, p
            p, k = quot, k + 1

    def lhopital_ratio(self, num: LaurentPoly, den: LaurentPoly):
        """lim_{q->xi} num/den, exactly: order_at reduces both; the limit
        is exactly 0 when num vanishes to the higher order, a pole when den
        does, and otherwise the reduced num/den evaluated once.
        ZeroDivisionError when den is 0 or the limit is a pole."""
        if not den:
            raise ZeroDivisionError("denominator is identically zero")
        if not num:
            return mp.mpc(0)
        (k_num, num), (k_den, den) = self.order_at(num), self.order_at(den)
        if k_num < k_den:
            raise ZeroDivisionError("pole: numerator does not vanish with denominator")
        if k_num > k_den:
            return mp.mpc(0)
        with self.workprec():
            return self.eval_at(num) / self.eval_at(den)


def int_or_frac_to_mp(c):
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / c.denominator
    return mp.mpf(c)
