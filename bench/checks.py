"""Output checks for the benchmark, made apart from the program.

Every check returns a list of problems (empty when the output is right).
The oracles below import nothing from logjones: they evaluate closed
formulas with mpmath or exact integers, so a fault in the program cannot
hide in its own reference values.

* loginv: V_m/[m] = sum_{i<m} a_i prod_{j=1..i} {m+j}{m-j} at xi with
  a_i(4_1) = 1 and a_i(3_1) = (-1)^i xi^{-i(i+3)}, compared with idem[k]
  (m = 2N at k = 0, m = k otherwise) and with alpha_s, beta_s; plus the
  three-route agreement and, at framing 0, beta = 0 and b+ = b-.
* jones: the Rosso-Jones / Morton formula for the 2-strand torus knot
  closing sigma_1^b, exact, plus integer coefficients and V_m(1) = m.
* volume-scan: the tilde-bracket sum of the figure-eight evaluated
  naively, O(N^2) per row, over a sine table; the mirror symmetry
  s <-> N-s; the exact zero at s = N/2; the cone volume
  -2(L((a+t)/2) - L((a-t)/2)) with L(x) = -int_0^x log|2 sin u| du by
  quadrature; alpha and the region labels of every row.
* qgroup-verify: every row passes with a residual below the tolerance,
  and the report holds the rows the sweep must make.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

# The benchmark runs the CLI at its default precision of 60 digits, whose
# comparison tolerance is 10^-30.
PRECISION = 60
TOL = mp.mpf(10) ** (-PRECISION // 2)
ORACLE_DPS = PRECISION + 20

# How many rows or indices an oracle samples per operation.
LOGINV_SAMPLES = 4
SCAN_ROWS = 6
VOLUME_ROWS = 3


def arg_value(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cnum(z):
    return mp.mpc(mp.mpf(z["re"]), mp.mpf(z["im"]))


# -- loginv -----------------------------------------------------------------


def habiro_coeff(knot, i, xi):
    if knot == "4_1":
        return mp.mpf(1)
    if knot == "3_1":
        return (-1) ** i * xi ** (-i * (i + 3))
    raise ValueError(f"no oracle for knot {knot!r}")


def normalized_jones(knot, m, N, framing=0):
    """V_m/[m] of the framed knot at xi = exp(pi i/N), from the cyclotomic
    ladder; framing f multiplies it by xi^{(m^2-1)f/2}."""
    with mp.workdps(ORACLE_DPS):
        xi = mp.expjpi(mp.mpf(1) / N)
        total = mp.mpc(0)
        ladder = mp.mpc(1)
        for i in range(m):
            if i:
                ladder *= (xi ** (m + i) - xi ** -(m + i)) * (xi ** (m - i) - xi ** -(m - i))
            total += habiro_coeff(knot, i, xi) * ladder
        return total * mp.expjpi(mp.mpf((m * m - 1) * framing) / (2 * N))


def loginv_sample(N, rng):
    """The interior indices s the oracle compares; both boundaries of idem
    are always compared."""
    interior = list(range(1, N))
    return sorted(rng.sample(interior, min(LOGINV_SAMPLES, len(interior))))


def loginv_oracle(knot, N, framing, sample):
    """{k: V_m/[m]} for the idem indices k = 0, N and the sampled s."""
    return {k: normalized_jones(knot, 2 * N if k == 0 else k, N, framing)
            for k in [0, N] + list(sample)}


def check_loginv(argv, text, knot, oracle):
    N = int(arg_value(argv, "--N"))
    framing = int(arg_value(argv, "--framing", 0))
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    problems = []
    if out.get("N") != N or out.get("framing") != framing:
        problems.append(f"N/framing {out.get('N')}/{out.get('framing')} != requested {N}/{framing}")
        return problems
    sizes = {"idem": N + 1, "gamma": N + 1, "alpha": N - 1, "beta": N - 1,
             "b_plus": N - 1, "b_minus": N - 1}
    for key, size in sizes.items():
        if len(out.get(key, ())) != size:
            problems.append(f"{key} has {len(out.get(key, ()))} entries, expected {size}")
    if problems:
        return problems
    if out.get("routes_agree") is not True:
        problems.append("routes_agree is not true")
    with mp.workdps(ORACLE_DPS):
        tol = mp.mpf(out["route_tolerance"])
        if tol > TOL * (1 + mp.mpf(10) ** -6):
            problems.append(f"route_tolerance {out['route_tolerance']} is looser than {mp.nstr(TOL, 3)}")
            tol = TOL
        deltas = out.get("gamma_route_deltas", {})
        if sorted(deltas, key=int) != [str(s) for s in range(1, N)]:
            problems.append("gamma_route_deltas does not cover s = 1..N-1")
        for s, d in deltas.items():
            if not mp.mpf(d) < tol:
                problems.append(f"gamma route delta at s={s} is {d}")
        one = 2j * mp.sinpi(mp.mpf(1) / N)  # {1} at xi
        for k, want in oracle.items():
            got = _cnum(out["idem"][k])
            if abs(got - want) > tol:
                problems.append(f"idem[{k}] = {mp.nstr(got, 20)}, oracle {mp.nstr(want, 20)}")
            if 0 < k < N:
                vs = want * mp.sinpi(mp.mpf(k) / N) / mp.sinpi(mp.mpf(1) / N)  # V_s(L^f) at xi
                alpha = (-1) ** (N + k) * N * one * vs
                beta = -N * framing * one * vs
                if abs(_cnum(out["alpha"][k - 1]) - alpha) > tol:
                    problems.append(f"alpha[{k}] differs from the oracle")
                if abs(_cnum(out["beta"][k - 1]) - beta) > tol:
                    problems.append(f"beta[{k}] differs from the oracle")
        if framing == 0:
            for s in range(1, N):
                if abs(_cnum(out["beta"][s - 1])) > tol:
                    problems.append(f"beta[{s}] is not 0 at framing 0")
                if abs(_cnum(out["b_plus"][s - 1]) - _cnum(out["b_minus"][s - 1])) > tol:
                    problems.append(f"b_plus[{s}] != b_minus[{s}] at framing 0")
    return problems


# -- jones --------------------------------------------------------------------


def torus_colored_jones(b, m):
    """0-framed V_m of the closure of sigma_1^b (b odd), as {doubled exponent
    of q: integer coefficient}:

        V_m = q^{-(m^2-1)b} sum_{k<m} (-1)^k q^{b(j^2-1)/4} [j],  j = 2m-1-2k,

    the cabling of W_m by the Adams operation psi^2 (Rosso-Jones, Morton).
    """
    out = {}
    for k in range(m):
        j = 2 * m - 1 - 2 * k
        shift = 2 * (b * (j * j - 1) // 4 - (m * m - 1) * b)
        for t in range(j):
            e = shift + 2 * (j - 1 - 2 * t)
            out[e] = out.get(e, 0) + (-1) ** k
    return {e: c for e, c in out.items() if c}


def check_jones(argv, text, b):
    """Colors 1..--max-m of the closure of sigma_1^b."""
    max_m = int(arg_value(argv, "--max-m", 4))
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    problems = []
    values = out.get("values", {})
    if sorted(values, key=int) != [str(m) for m in range(1, max_m + 1)]:
        return [f"colors {sorted(values, key=int)} != 1..{max_m}"]
    for m in range(1, max_m + 1):
        terms = {}
        for e, c in values[str(m)]["terms"]:
            try:
                terms[int(e)] = int(c)
            except ValueError:
                problems.append(f"V_{m} has a non-integer term {e}: {c}")
        if sum(terms.values()) != m:
            problems.append(f"V_{m}(1) = {sum(terms.values())}, expected {m}")
        if terms != torus_colored_jones(b, m):
            problems.append(f"V_{m} differs from the torus-knot formula")
    return problems


# -- volume-scan ----------------------------------------------------------------


def scan_dps(N):
    # single tilde products reach about e^{N/3} while plateau sums cancel to
    # O(N^3): keep N/(3 ln 10) digits for the cancellation and 25 beyond
    return int(N / (3 * math.log(10))) + 45


def fig8_log_gamma(N, s):
    """(2 pi/N) log|gamma_s| of the figure-eight (a_i = 1), naively:

        sum_{i<su} {s+i,2i+1} sum_{k=s-i..s+i} {k}_+/{k}
          + 2 sum_{i=su..sb-1} ~{s+i,2i+1},

    each bracket a fresh product over the window k = s-i..s+i of
    {k} = 2i sin(k pi/N); ~ replaces a factor at k = N t by (-1)^t.
    Returns -inf when gamma_s vanishes.
    """
    with mp.workdps(scan_dps(N)):
        sin = [mp.sinpi(mp.mpf(k) / N) for k in range(2 * N)]
        cos = [mp.cospi(mp.mpf(k) / N) for k in range(2 * N)]

        def br(k):
            return mp.mpc(0, 2 * sin[k % (2 * N)])

        su, sb = min(s, N - s), max(s, N - s)
        total = mp.mpc(0)
        for i in range(su):
            prod = mp.mpc(1)
            cot = mp.mpc(0)
            for k in range(s - i, s + i + 1):
                prod *= br(k)
                cot += 2 * cos[k % (2 * N)] / br(k)
            total += prod * cot
        for i in range(su, sb):
            prod = mp.mpc(1)
            for k in range(s - i, s + i + 1):
                prod *= (-1) ** (k // N) if k % N == 0 else br(k)
            total += 2 * prod
        if abs(total) < mp.mpf(10) ** (-PRECISION):
            return -math.inf
        return float(2 * mp.pi / N * mp.log(abs(total)))


def lobachevsky(x):
    """L(x) = -int_0^x log|2 sin u| du, split at the log singularities k pi."""
    with mp.workdps(30):
        x = mp.mpf(x)
        lo, hi = min(x, 0), max(x, 0)
        cuts = [lo] + [k * mp.pi for k in range(int(mp.ceil(lo / mp.pi)), int(mp.floor(hi / mp.pi)) + 1)
                       if lo < k * mp.pi < hi] + [hi]
        val = mp.quad(lambda u: mp.log(abs(2 * mp.sin(u))), cuts)
        return -val if x > 0 else val


def cone_volume(a):
    """Volume of the figure-eight cone manifold with cone angle a < 2 pi/3."""
    with mp.workdps(30):
        a = mp.mpf(a)
        theta = 2 * mp.pi - mp.acos(mp.cos(a) - mp.mpf(1) / 2)
        return float(-2 * (lobachevsky((a + theta) / 2) - lobachevsky((a - theta) / 2)))


def region(N, s):
    if 3 * s < N:
        return "volume"
    return "conjectural-flat" if 3 * s <= 2 * N else "volume-mirror"


def scan_sample(N, rng):
    """(rows for the gamma oracle, rows for the volume oracle)."""
    rows = [s for s in range(1, N) if 2 * s != N]
    vol_rows = [s for s in rows if region(N, s) != "conjectural-flat"]
    return sorted(rng.sample(rows, SCAN_ROWS)), sorted(rng.sample(vol_rows, VOLUME_ROWS))


def scan_oracle(N, sample):
    gamma_rows, vol_rows = sample
    return ({s: fig8_log_gamma(N, s) for s in gamma_rows},
            {s: cone_volume(2 * math.pi * min(s, N - s) / N) for s in vol_rows})


def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_scan(argv, text, oracle):
    N = int(arg_value(argv, "--N"))
    try:
        out = json.loads(text)
        rows = out["rows"]
        lg = {r["s"]: float(r["log_gamma_scaled"]) for r in rows}
        vol = {r["s"]: float(r["vol_reference"]) for r in rows}
    except (ValueError, KeyError, TypeError):
        return ["output is not a scan table"]
    if out.get("N") != N or [r["s"] for r in rows] != list(range(1, N)):
        return [f"rows do not run over s = 1..{N - 1}"]
    problems = []
    for r in rows:
        s = r["s"]
        if not _close(float(r["alpha"]), 2 * math.pi * s / N):
            problems.append(f"alpha at s={s} is {r['alpha']}")
        if r["region_label"] != region(N, s):
            problems.append(f"region at s={s} is {r['region_label']}")
        if lg[s] != lg[N - s] and not _close(lg[s], lg[N - s]):
            problems.append(f"log_gamma_scaled({s}) != log_gamma_scaled({N - s})")
        if region(N, s) == "conjectural-flat" and vol[s] != 0:
            problems.append(f"vol_reference at s={s} is not 0 on the flat third")
    if N % 2 == 0 and lg[N // 2] != -math.inf:
        problems.append(f"s = N/2 = {N // 2} is not flagged as the exact zero")
    gamma_ref, vol_ref = oracle
    for s, want in gamma_ref.items():
        if not (lg[s] == want or _close(lg[s], want)):
            problems.append(f"log_gamma_scaled({s}) = {lg[s]!r}, oracle {want!r}")
    for s, want in vol_ref.items():
        if not _close(vol[s], want, 1e-13):
            problems.append(f"vol_reference({s}) = {vol[s]!r}, oracle {want!r}")
    return problems


# -- qgroup-verify ----------------------------------------------------------------


def check_qgroup(argv, text):
    N = int(arg_value(argv, "--N"))
    try:
        rows = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(rows, list) or not rows:
        return ["empty report"]
    problems = []
    counts = {}
    for r in rows:
        name = r["check"].split(":")[0]
        counts[name] = counts.get(name, 0) + 1
        if r.get("pass") is not True:
            problems.append(f"{r['check']} {r['parameters']} does not pass")
        try:
            residual = mp.mpf(r["residual"])
        except (ValueError, TypeError, KeyError):
            problems.append(f"{r['check']} {r['parameters']}: residual {r.get('residual')!r}")
            continue
        if not residual < TOL:
            problems.append(f"{r['check']} {r['parameters']}: residual {r['residual']}")
    # modules U+-, V+- for s = 1..N and P+-, Y+- for s < N; one iso and y1
    # row per m < N; every ordered pair of W_1..W_2N, Y_m^+- in the R sweep
    expect = {"relations": 4 * N + 4 * (N - 1), "iso_f": N - 1, "iso_g": N - 1,
              "iso_h": N - 1, "y1_invariance": N - 1,
              "rmatrix_specialization": (2 * N + 2 * (N - 1)) ** 2}
    for name, n in expect.items():
        if counts.get(name, 0) != n:
            problems.append(f"{counts.get(name, 0)} {name} rows, expected {n}")
    if not counts.get("center"):
        problems.append("no center-action rows")
    return problems
