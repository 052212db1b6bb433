"""Figure-eight cone-manifold volumes and the large-N scan of the
logarithmic invariant.

The scan computes (2 pi / N) log |gamma_s| for s = 1..N-1 with the O(N)
cotangent/tilde-product kernel (the all-ones coefficient specialization),
run on s <= N/2 only, as gamma_{N-s} = -gamma_s (see habiro.tilde_sum),
and pairs each row with the hyperbolic volume reference curve: Vol(M_a)
for cone angles a < 2pi/3, the conjectural flat 0 on [2pi/3, 4pi/3], and
the mirror Vol(M_{2pi-a}) beyond, which reuses the value of row N - s.
A volume is -(Cl_2(a + theta) - Cl_2(a - theta)), theta the branch angle
of the cone angle a: cone_volume computes theta and both Clausen values
on ints at the scale 2^q of the Clausen coefficients, with one kernel
(_clausen) for the real Clausen series and int series for cos, acos and
log (_cos, _acos, _log; the scan's rows use _log too), and rounds once.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import mpmath as mp
from mpmath.libmp import from_man_exp, ln2_fixed, pi_fixed, round_nearest, to_fixed

from .qcalc import RootContext
from . import habiro, jones


def _clausen(t: int, q: int, pi: int, coeffs: tuple) -> int:
    """Cl_2(t) = sum_{n>=1} sin(nt)/n^2 on ints at the scale 2^q, with pi
    and the coefficients d_K..d_1 of _clausen_coeffs at that scale.

    Cl_2 is odd and 2pi-periodic, so t is first reduced to [-pi, pi); a t
    within a few multiples of pi loses a few units 2^-q to the error of
    pi.  Then the real Clausen series

      Cl_2(t) = t - t log|t| + t sum_{k>=1} d_k u^k,  u = (t/pi)^2 <= 1,
      d_k = c_k pi^{2k} = zeta(2k) / (k (2k+1) 4^k) <= 4^-k,

    is summed by Horner's rule in u.  With u <= 1 no step amplifies the
    truncation of the steps before it, so the K steps add at most K units
    2^-q; in t^2 they would grow by up to pi^{2K}.  The dropped tail is
    below (4/3) 2^{10-q}, and log|t| is one _log at q + 10 bits.
    """
    t -= (t + pi) // (2 * pi) * (2 * pi)
    if not t:
        return 0
    u = (t << q) // pi
    u = u * u >> q
    acc = 0
    for d in coeffs:
        acc = (acc + d) * u >> q
    log_t = _log(abs(t), -q, q + 10) >> 10
    return t - (t * log_t >> q) + (t * acc >> q)


@functools.lru_cache(maxsize=8)
def _clausen_coeffs(prec: int) -> tuple:
    """(q, (d_K, ..., d_1)): the Clausen coefficients d_k = c_k pi^{2k} as
    ints at the scale 2^q, q = prec + 20, highest first.

    The list stops before the first d_k < 2^{-prec-10}.  Each d_k is within
    2 units 2^-q of zeta(2k) / (k (2k+1) 4^k): zeta(2k) is taken at the
    scale 2^q and divided with one truncation.  Below the crossover k0 the
    zeta(2k) come from the recurrence

      (k + 1/2) zeta(2k) = sum_{0<j<k} zeta(2j) zeta(2k-2j),  zeta(2) = pi^2/6,

    whose terms are all positive; its error grows only like k units, which
    the division by 4^k makes vanish.  From k0 on, mp.zeta(2k) is summed
    as an Euler product and is cheap at the prec + 30 - 2k bits its term
    needs.  mpmath switches to that product at about
    2k = wp / (log2(wp/25) - 1), and k0 is that point: on a 2-vCPU machine
    the list at 300 / 1010 / 2000 digits takes 0.02 / 0.45 / 3.6 s, against
    0.26 / 8.0 / over 40 s with mp.zeta throughout."""
    q = prec + 20
    k0 = max(2, int(prec / (2 * max(1.0, math.log2(prec / 25) - 1))))
    with mp.workprec(q + 10):
        zetas = [0, to_fixed((mp.pi ** 2 / 6)._mpf_, q)]
    coeffs = []
    k = 1
    while True:
        if k < k0:
            if k > 1:
                acc = 2 * sum(zetas[j] * zetas[k - j] for j in range(1, (k + 1) // 2))
                if k % 2 == 0:
                    acc += zetas[k // 2] ** 2
                zetas.append((acc >> q) * 2 // (2 * k + 1))
            z = zetas[k]
        else:
            with mp.workprec(q + 10 - 2 * k):
                z = to_fixed(mp.zeta(2 * k)._mpf_, q)
        d = (z >> 2 * k) // (k * (2 * k + 1))
        if d < 1 << 10:  # 2^{-prec-10} at the scale 2^q
            break
        coeffs.append(d)
        k += 1
    return q, tuple(reversed(coeffs))


def _series(x: int, W: int, r: int, alternate: bool) -> int:
    """2^{r+1} atan(x), or without the signs 2^{r+1} atanh(x), on ints at
    the scale 2^W for |x| <= 2^-r: W/2r + 1 terms, each within 2 units."""
    x2, total, p = x * x >> W, x, x
    for n in range(1, W // r // 2 + 1):
        p = p * x2 >> W
        total += -(p // (2 * n + 1)) if alternate and n % 2 else p // (2 * n + 1)
    return total << (r + 1)


def _cos(x: int, w: int) -> int:
    """cos(x 2^-w) at the scale 2^w for |x| <= 2.1 * 2^w, within 1 unit:
    the Taylor series at len(w) + 4 guard bits until a term is 0; each of
    its fewer than w terms is within 5 units, as none amplifies by > 2.2."""
    g = w.bit_length() + 4
    W = w + g
    x2, total, term, n = (x << g) ** 2 >> W, 1 << W, 1 << W, 0
    while term:
        n += 2
        term = (term * x2 >> W) // (n * (n - 1))
        total += -term if n % 4 == 2 else term
    return (total + (1 << (g - 1))) >> g


def _acos(c: int, w: int) -> int:
    """acos(c 2^-w) at the scale 2^w for |c| <= 2^w, within 1 unit: pi -
    acos(-c) for c < 0, else t = tan(theta/2) = sin/(1 + cos) <= 1, the
    sine by math.isqrt, halved r times by t -> t/(1 + sqrt(1 + t^2)) (of
    slope <= 1/2) and summed by _series, whose 2^r the guard g covers."""
    r = math.isqrt(w // 6) + 1
    g = r + w.bit_length() + 5
    W = w + g
    one, a = 1 << W, abs(c) << g
    t = (math.isqrt(one * one - a * a) << W) // (one + a)
    for _ in range(r):
        t = (t << W) // (one + math.isqrt(one * one + t * t))
    theta = _series(t, W, r, alternate=True)
    return ((pi_fixed(W) - theta if c < 0 else theta) + (1 << (g - 1))) >> g


def _log(x: int, e: int, w: int) -> int:
    """log(x 2^e) at the scale 2^w for an int x > 0, within 1 unit: m =
    x 2^-b in [1/2, 1), b = len(x), at W = w + g bits, r square roots
    (math.isqrt), 2^r 2 atanh((m - 1)/(m + 1)) by _series, and
    (b + e) ln2_fixed; g covers the 2^r and the |b + e| units."""
    b = x.bit_length()
    r = math.isqrt(w // 6) + 1
    g = r + w.bit_length() + abs(b + e).bit_length() + 6
    W = w + g
    m, one = x << (W - b) if W >= b else x >> (b - W), 1 << W
    for _ in range(r):
        m = math.isqrt(m << W)
    total = _series(((m - one) << W) // (m + one), W, r, alternate=False) + (b + e) * ln2_fixed(W)
    return (total + (1 << (g - 1))) >> g


def _theta(a, q: int, pi: int) -> int:
    """The branch angle theta in (pi, 2pi) of the cone angle a (a raw mpf,
    0 <= a < 2pi/3), with cos(theta) = cos(a) - 1/2, as an int at the
    scale 2^q: _cos and _acos at the scale 2^{q+10}, then 2 pi - acos."""
    wp = q + 10
    c = _cos(to_fixed(a, wp), wp) - (1 << (wp - 1))
    return 2 * pi - (_acos(c, wp) >> 10)


def cone_volume(alpha, dps: int = 30):
    """Hyperbolic volume of the figure-eight cone manifold (Mednykh and
    Rasskazov), -(Cl_2(a + theta) - Cl_2(a - theta)) = -2 (L((a+theta)/2)
    - L((a-theta)/2)) with theta in (pi, 2pi) and L the Lobachevsky
    function.

    Valid on 0 <= alpha < 2pi/3 where the cone manifold is hyperbolic.
    alpha is rounded to dps digits (prec bits); theta and both Clausen
    values are ints at the scale 2^q of _clausen_coeffs, q = prec + 20,
    and the volume is rounded once, to nearest, to prec bits.
    """
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        if a < 0 or a >= 2 * mp.pi / 3:
            raise ValueError("alpha must lie in [0, 2pi/3) for the hyperbolic cone volume")
        prec = mp.mp.prec
    q, coeffs = _clausen_coeffs(prec)
    pi = pi_fixed(q)
    a_int = to_fixed(a._mpf_, q)
    theta = _theta(a._mpf_, q, pi)
    vol = _clausen(a_int - theta, q, pi, coeffs) - _clausen(a_int + theta, q, pi, coeffs)
    return mp.make_mpf(from_man_exp(vol, -q, prec, round_nearest))


def gamma_fig8_fast(N: int, s: int, ctx: RootContext):
    """gamma_s^{(N)} of the figure-eight knot by the O(N) kernel:

    sum_{i<su} {s+i,2i+1} sum_{k=s-i..s+i} {k}_+/{k}
      + 2 sum_{i=su..sb-1} ~{s+i,2i+1},

    habiro.tilde_sum on the all-ones coefficients of 4_1.  ctx must be at
    this N.
    """
    if ctx.N != N:
        raise ValueError(f"N={N} but the context is at N={ctx.N}")
    return habiro.tilde_sum(habiro.catalog_coeffs("4_1"), s, ctx)


@dataclasses.dataclass
class ScanRow:
    s: int
    alpha: float
    log_gamma_scaled: float  # (2 pi / N) log |gamma_s|; -inf when gamma_s = 0
    vol_reference: float
    region: str
    zero_flag: bool


@dataclasses.dataclass
class ScanResult:
    N: int
    rows: list

    def strings(self):
        """(row, alpha, log_gamma_scaled, vol_reference) at 17 digits, each
        distinct double formatted once: mirror rows share log and reference."""
        fmt = functools.lru_cache(maxsize=None)(lambda x: mp.nstr(mp.mpf(x), 17))
        for r in self.rows:
            lg = "-inf" if r.zero_flag else fmt(r.log_gamma_scaled)
            yield r, fmt(r.alpha), lg, fmt(r.vol_reference)

    def to_csv(self) -> str:
        lines = ["N,s,alpha,log_gamma_scaled,vol_reference,region_label"]
        lines += [f"{self.N},{r.s},{a},{lg},{ref},{r.region}" for r, a, lg, ref in self.strings()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = [{"s": r.s, "alpha": a, "log_gamma_scaled": lg, "vol_reference": ref,
                 "region_label": r.region} for r, a, lg, ref in self.strings()]
        return json.dumps({"N": self.N, "rows": rows}, sort_keys=True)


def vol_reference(s: int, N: int, dps: int = 30):
    """Reference curve at alpha = 2 pi s/N: Vol(M_alpha) below 2pi/3, 0 on
    the conjectural middle third, the mirror volume above 4pi/3.

    The region is chosen by the exact rational s/N, so boundary rows like
    s/N = 2/3 do not flip with the working precision.  A mirror row reads
    the volume of row N - s, which is computed once per (N, dps); only the
    value is shared, the label stays the row's own."""
    if 3 * s < N:
        return _row_volume(s, N, dps), "volume"
    if 3 * s <= 2 * N:
        return mp.mpf(0), "conjectural-flat"
    return _row_volume(N - s, N, dps), "volume-mirror"


@functools.lru_cache(maxsize=1024)
def _row_volume(s: int, N: int, dps: int):
    """Vol(M_alpha) at alpha = 2 pi s/N, 3s < N."""
    with mp.workdps(dps):
        return cone_volume(2 * mp.pi * s / N, dps)


def scan_precision(N: int) -> int:
    """Starting digits of the scan, 0.15 N + 35 and at least 33: a choice
    for speed, not a bound for correctness.  Single tilde products reach
    e^{~0.33 N} while whole-sum values in the plateau cancel down to
    O(N^3), so a row loses about 0.14 N digits.  tilde_sum measures what
    each row keeps and computes a row again, finer, when too few digits
    are left, so the scan prints the same JSON from 40 digits up (at
    N = 400 and 1600); started that low it recomputes rows and is slower
    (7.9-8.5 s against 5.5 s at N = 1600)."""
    return max(33, int(0.15 * N) + 35)


# Largest N of a scan at its own scan_precision(N) digits, the bound of
# check_scan.  On a shared 2-vCPU Xeon such a whole volume-scan process
# takes 0.8 s at N = 800, 1.3-1.5 s at N = 1000, 2.2-2.4 s at N = 1200 and
# 5.7-6.0 s at N = 1600, with a peak RSS of 22-24 MB.  The time grows like
# N^2 digits, the O(N) fixed-point products of tilde_sum on each of the
# N/2 rows it runs, so a --precision floor above the scan's own digits
# costs as much as a larger N (at 4000 digits N = 400 takes 8 s).
# check_scan refuses N^2 digits above its value at N = MAX_SCAN_N with
# scan_precision(MAX_SCAN_N) = 275 digits: N <= 1600 at the scan's own
# digits, N <= 419 at 4000, so that the same inputs still exit 3.
MAX_SCAN_N = 1600


def check_scan(N: int, digits: int):
    """jones.FeasibilityError when a scan at N with ``digits`` working
    digits is above the bound of MAX_SCAN_N, before any table is built."""
    top = scan_precision(MAX_SCAN_N)
    if N * N * digits > MAX_SCAN_N ** 2 * top:
        raise jones.FeasibilityError(
            f"volume scan at N = {N} with {digits} digits exceeds the bound N^2 digits <= "
            f"{MAX_SCAN_N}^2 * {top}, N <= {MAX_SCAN_N} at the scan's own precision")


def asymptotic_scan(N: int, ctx: RootContext = None) -> ScanResult:
    """Rows (s, alpha=2 pi s/N, (2 pi/N) log|gamma_s|, reference) for
    s = 1..N-1.  gamma_s = 0 rows carry the -inf sentinel and a flag.  The
    kernel runs on s <= N/2, and row N - s reads the value and the flag of
    row s, as gamma_{N-s} = -gamma_s (see habiro.tilde_sum).  A
    given ctx must be at this N (gamma_fig8_fast checks it), and N with
    its digits within the bound of check_scan.

    A row keeps (2 pi/N) log|gamma_s| and the reference as doubles, so
    the reference is taken at 30 digits and the log by _log at the scale
    2^128 from the mantissa and exponent of |gamma_s|, not at ctx.dps:
    the row's double can differ from the one at full precision only
    within about 2^-120, relative, of a point where a double rounds."""
    if N < 2:
        raise ValueError("N must be >= 2")
    ctx = ctx or RootContext(N, precision_digits=scan_precision(N))
    check_scan(N, ctx.precision_digits)
    rows = []
    two_pi_128 = pi_fixed(128) << 1
    with ctx.workprec():
        two_pi = 2 * mp.pi
        # -inf where gamma_s = 0; row N - s reads the value of row s
        lg = [-math.inf] * N
        for s in range(1, N // 2 + 1):
            mag = abs(gamma_fig8_fast(N, s, ctx))
            if mag >= ctx.tol:
                _, man, exp, _ = mag._mpf_
                lg[s] = lg[N - s] = two_pi_128 * _log(man, exp, 128) // N / (1 << 256)
        for s in range(1, N):
            ref, region = vol_reference(s, N)
            zero = lg[s] == -math.inf
            rows.append(ScanRow(s, float(two_pi * s / N), lg[s], float(ref), region, zero))
    return ScanResult(N, rows)

