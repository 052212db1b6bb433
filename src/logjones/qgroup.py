"""Restricted quantum group modules at xi and their verification.

Builds the irreducibles U_s^+-, the length-two modules V_s^+-, the
projectives P_s^+- as numeric matrices at xi, and the generic-q modified
representations Y_m^+- as exact Laurent-polynomial matrices; checks the
defining relations, the intertwiners f/g/h onto the specializations of
Y_m^+-, the vanishing of the high R-matrix terms at xi, and the center
actions; and extracts the radical coefficients from partial traces on
Y_m^+-.

All residuals are max-abs matrix entries of the defect, compared against
the context tolerance.
"""

from __future__ import annotations

import dataclasses
import json

import mpmath as mp

from .qcalc import LaurentPoly, RootContext, qbinom, qint
from . import jones
from .jones import FeasibilityError  # noqa: F401  raised through jones.braid_operator


@dataclasses.dataclass
class RestrictedModule:
    """One module of the restricted quantum group.

    Numeric kinds (U/V/P) carry mpc matrices evaluated at xi; modified
    kinds (Y) carry exact LaurentPoly matrices at generic q.  h_weights
    lists the Cartan exponents: the representative of the K-eigenvalue
    exponent in (-N, N], with h = 0 whenever K fixes the vector.
    """

    kind: str
    index: int
    N: int
    dim: int
    matE: list
    matF: list
    matK: list
    basis_labels: list
    h_weights: list
    numeric: bool = True


def _reduce_h(w: int, N: int) -> int:
    return (w + N - 1) % (2 * N) - N + 1


# mpmath numbers are immutable, so every zero entry can be this one object
_ZERO = mp.mpc(0)


def _num_zeros(d):
    return [[_ZERO] * d for _ in range(d)]


def _poly_zeros(d):
    return [[LaurentPoly() for _ in range(d)] for _ in range(d)]


def build_restricted(kind: str, idx: int, N: int, ctx: RootContext = None) -> RestrictedModule:
    """Construct a module by its displayed actions.

    kind is one of 'U+', 'U-', 'V+', 'V-' (1 <= idx <= N),
    'P+', 'P-' (1 <= idx <= N-1), 'Y+', 'Y-' (1 <= idx <= N-1).
    """
    ctx = ctx or RootContext(N)
    if kind in ("Y+", "Y-"):
        sign = 1 if kind[1] == "+" else -1
        rep, labels = build_modified(sign, idx, N)
        return RestrictedModule(kind, idx, N, rep.dim,
                                [list(r) for r in rep.matE],
                                [list(r) for r in rep.matF],
                                [list(r) for r in rep.matK],
                                labels, [_reduce_h(w, N) for w in rep.weights],
                                numeric=False)
    with ctx.workprec():
        if kind in ("U+", "U-", "V+", "V-"):
            if not 1 <= idx <= N:
                raise ValueError("index must be in 1..N for U/V kinds")
            sgn = 1 if kind[1] == "+" else -1
            d = idx if kind[0] == "U" else N
            E, F, K = _num_zeros(d), _num_zeros(d), _num_zeros(d)
            weights = []
            for n in range(d):
                K[n][n] = sgn * ctx.xi_pow(idx - 1 - 2 * n)
                weights.append(_reduce_h((idx - 1 - 2 * n) + (0 if sgn > 0 else N), N))
                if n >= 1:
                    E[n - 1][n] = sgn * ctx.qint_at(n) * ctx.qint_at(idx - n)
                if n <= d - 2:
                    F[n + 1][n] = mp.mpc(1)
            labels = [f"{'u' if kind[0] == 'U' else 'v'}{n}" for n in range(d)]
            return RestrictedModule(kind, idx, N, d, E, F, K, labels, weights)
        if kind == "P+":
            if not 1 <= idx <= N - 1:
                raise ValueError("index must be in 1..N-1 for P kinds")
            return _build_p_plus(idx, N, ctx)
        if kind == "P-":
            if not 1 <= idx <= N - 1:
                raise ValueError("index must be in 1..N-1 for P kinds")
            # the displayed minus-family actions are parametrized so that
            # parameter s builds P_{N-s}^-
            return _build_p_minus(N - idx, N, ctx)
    raise ValueError(f"unknown module kind {kind!r}")


def _build_p_plus(s: int, N: int, ctx: RootContext) -> RestrictedModule:
    """P_s^+ on basis x_0..x_{N-s-1}, y_0..y_{N-s-1}, a_0..a_{s-1}, b_0..b_{s-1}."""
    k = N - s
    labels = [f"x{j}" for j in range(k)] + [f"y{j}" for j in range(k)] + \
             [f"a{n}" for n in range(s)] + [f"b{n}" for n in range(s)]
    pos = {lab: i for i, lab in enumerate(labels)}
    d = 2 * N
    E, F, K = _num_zeros(d), _num_zeros(d), _num_zeros(d)
    wexp = {}
    for j in range(k):
        wexp[f"x{j}"] = 2 * N - s - 1 - 2 * j
        wexp[f"y{j}"] = -s - 1 - 2 * j
    for n in range(s):
        wexp[f"a{n}"] = s - 1 - 2 * n
        wexp[f"b{n}"] = s - 1 - 2 * n
    for lab, i in pos.items():
        K[i][i] = ctx.xi_pow(wexp[lab])

    def cE(n):
        return -ctx.qint_at(n) * ctx.qint_at(N - s - n)

    def cA(n):
        return ctx.qint_at(n) * ctx.qint_at(s - n)

    for j in range(k):
        if j >= 1:
            E[pos[f"x{j-1}"]][pos[f"x{j}"]] = cE(j)
            E[pos[f"y{j-1}"]][pos[f"y{j}"]] = cE(j)
    E[pos[f"a{s-1}"]][pos["y0"]] += mp.mpc(1)
    for n in range(s):
        if n >= 1:
            E[pos[f"a{n-1}"]][pos[f"a{n}"]] = cA(n)
            E[pos[f"b{n-1}"]][pos[f"b{n}"]] = cA(n)
            E[pos[f"a{n-1}"]][pos[f"b{n}"]] += mp.mpc(1)
    E[pos[f"x{k-1}"]][pos["b0"]] += mp.mpc(1)
    for j in range(k - 1):
        F[pos[f"x{j+1}"]][pos[f"x{j}"]] = mp.mpc(1)
        F[pos[f"y{j+1}"]][pos[f"y{j}"]] = mp.mpc(1)
    F[pos["a0"]][pos[f"x{k-1}"]] = mp.mpc(1)
    for n in range(s - 1):
        F[pos[f"a{n+1}"]][pos[f"a{n}"]] = mp.mpc(1)
        F[pos[f"b{n+1}"]][pos[f"b{n}"]] = mp.mpc(1)
    F[pos["y0"]][pos[f"b{s-1}"]] = mp.mpc(1)
    h = [_reduce_h(wexp[lab], N) for lab in labels]
    return RestrictedModule("P+", s, N, d, E, F, K, labels, h)


def _build_p_minus(s: int, N: int, ctx: RootContext) -> RestrictedModule:
    """P_{N-s}^- on basis x_0..x_{N-s-1}, y_0..y_{N-s-1}, a_0..a_{s-1}, b_0..b_{s-1}."""
    k = N - s
    labels = [f"x{j}" for j in range(k)] + [f"y{j}" for j in range(k)] + \
             [f"a{n}" for n in range(s)] + [f"b{n}" for n in range(s)]
    pos = {lab: i for i, lab in enumerate(labels)}
    d = 2 * N
    E, F, K = _num_zeros(d), _num_zeros(d), _num_zeros(d)
    wexp = {}
    for j in range(k):
        wexp[f"x{j}"] = -s - 1 - 2 * j
        wexp[f"y{j}"] = -s - 1 - 2 * j
    for n in range(s):
        wexp[f"a{n}"] = s - 1 - 2 * n
        wexp[f"b{n}"] = -2 * N + s - 1 - 2 * n
    for lab, i in pos.items():
        K[i][i] = ctx.xi_pow(wexp[lab])

    def cE(n):
        return -ctx.qint_at(n) * ctx.qint_at(N - s - n)

    def cA(n):
        return ctx.qint_at(n) * ctx.qint_at(s - n)

    for j in range(k):
        if j >= 1:
            E[pos[f"x{j-1}"]][pos[f"x{j}"]] = cE(j)
            E[pos[f"y{j-1}"]][pos[f"y{j}"]] = cE(j)
            E[pos[f"x{j-1}"]][pos[f"y{j}"]] += mp.mpc(1)
    E[pos[f"a{s-1}"]][pos["y0"]] += mp.mpc(1)
    for n in range(s):
        if n >= 1:
            E[pos[f"a{n-1}"]][pos[f"a{n}"]] = cA(n)
            E[pos[f"b{n-1}"]][pos[f"b{n}"]] = cA(n)
    E[pos[f"x{k-1}"]][pos["b0"]] += mp.mpc(1)
    for j in range(k - 1):
        F[pos[f"x{j+1}"]][pos[f"x{j}"]] = mp.mpc(1)
        F[pos[f"y{j+1}"]][pos[f"y{j}"]] = mp.mpc(1)
    F[pos["b0"]][pos[f"y{k-1}"]] = mp.mpc(1)
    for n in range(s - 1):
        F[pos[f"a{n+1}"]][pos[f"a{n}"]] = mp.mpc(1)
        F[pos[f"b{n+1}"]][pos[f"b{n}"]] = mp.mpc(1)
    F[pos["x0"]][pos[f"a{s-1}"]] = mp.mpc(1)
    h = [_reduce_h(wexp[lab], N) for lab in labels]
    return RestrictedModule("P-", N - s, N, d, E, F, K, labels, h)


def build_modified(sign: int, m: int, N: int):
    """The generic-q representation Y_m^+ (2N-dim) or Y_m^- (4N-dim) as a
    WeightRep plus basis labels."""
    if not 1 <= m <= N - 1:
        raise ValueError("m must be in 1..N-1")
    if sign > 0:
        na, nb = 2 * N - m, m
        alpha_w = [2 * N - m - 1 - 2 * i for i in range(na)]
        beta_w = [m - 1 - 2 * i for i in range(nb)]
    else:
        na, nb = 2 * N + m, 2 * N - m
        alpha_w = [2 * N + m - 1 - 2 * i for i in range(na)]
        beta_w = [2 * N - m - 1 - 2 * i for i in range(nb)]
    d = na + nb
    labels = [f"alpha{i}" for i in range(na)] + [f"beta{i}" for i in range(nb)]
    E = _poly_zeros(d)
    F = _poly_zeros(d)
    for i in range(na):
        if i >= 1:
            E[i - 1][i] = qint(i)
        if sign > 0:
            if N - m + 1 <= i <= N:
                E[na + (m - N + i - 1)][i] = qbinom(2 * N - m - i - 1, N - i)
            if i != N - m - 1 and i + 1 < na:
                F[i + 1][i] = qint(2 * N - m - i - 1)
            elif i == N - m - 1:
                F[i + 1][i] = qint(N)
                F[na + 0][i] = qbinom(N - 1, m - 1)
        else:
            if m + 1 <= i <= 2 * N:
                E[na + (i - m - 1)][i] = qbinom(2 * N + m - 1 - i, 2 * N - i)
            if i != m - 1 and i + 1 < na:
                F[i + 1][i] = qint(2 * N + m - 1 - i)
            elif i == m - 1:
                F[i + 1][i] = qint(2 * N)
                F[na + 0][i] = qbinom(2 * N - 1, 2 * N - m - 1)
    for i in range(nb):
        if i >= 1:
            E[na + i - 1][na + i] = qint(i)
        if i + 1 < nb:
            F[na + i + 1][na + i] = qint((m if sign > 0 else 2 * N - m) - i - 1)
    rep = jones.make_weight_rep(d, E, F, alpha_w + beta_w)
    return rep, labels


# -- relation checks -----------------------------------------------------


def _num_mat_mul(a, b, d):
    out = _num_zeros(d)
    for i in range(d):
        arow = a[i]
        orow = out[i]
        for k in range(d):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(d):
                    y = brow[j]
                    if y:
                        orow[j] += x * y
    return out


def _num_max_abs(a):
    return max((abs(x) for row in a for x in row), default=mp.mpf(0))


def _num_sub(a, b, d):
    return [[a[i][j] - b[i][j] for j in range(d)] for i in range(d)]


def _eval_mat(mat, ctx):
    return [[ctx.eval(p) for p in row] for row in mat]


def relations_residual(mod: RestrictedModule, ctx: RootContext):
    """Max defect of the restricted relations at xi:
    E^N = F^N = 0, K^{2N} = 1, K E K^{-1} = xi^2 E, K F K^{-1} = xi^{-2} F,
    E F - F E = (K - K^{-1}) / (xi - xi^{-1})."""
    with ctx.workprec():
        d = mod.dim
        E = mod.matE if mod.numeric else _eval_mat(mod.matE, ctx)
        F = mod.matF if mod.numeric else _eval_mat(mod.matF, ctx)
        K = mod.matK if mod.numeric else _eval_mat(mod.matK, ctx)
        N = mod.N
        worst = mp.mpf(0)
        power = E
        for _ in range(N - 1):
            power = _num_mat_mul(power, E, d)
        worst = max(worst, _num_max_abs(power))
        power = F
        for _ in range(N - 1):
            power = _num_mat_mul(power, F, d)
        worst = max(worst, _num_max_abs(power))
        kk = [[K[i][j] ** (2 * N) if i == j else mp.mpc(0) for j in range(d)] for i in range(d)]
        ident = [[mp.mpc(1) if i == j else mp.mpc(0) for j in range(d)] for i in range(d)]
        worst = max(worst, _num_max_abs(_num_sub(kk, ident, d)))
        xi2 = ctx.xi_pow(2)
        kek = [[K[i][i] * E[i][j] / K[j][j] - xi2 * E[i][j] for j in range(d)] for i in range(d)]
        worst = max(worst, _num_max_abs(kek))
        kfk = [[K[i][i] * F[i][j] / K[j][j] - F[i][j] / xi2 for j in range(d)] for i in range(d)]
        worst = max(worst, _num_max_abs(kfk))
        comm = _num_sub(_num_mat_mul(E, F, d), _num_mat_mul(F, E, d), d)
        one = ctx.brace_at(1)
        cart = [[(K[i][j] - 1 / K[i][j]) / one if i == j else mp.mpc(0) for j in range(d)]
                for i in range(d)]
        worst = max(worst, _num_max_abs(_num_sub(comm, cart, d)))
        return worst


def weight_multiset(mod: RestrictedModule, ctx: RootContext):
    """Sorted K-eigenvalues (as complex numbers rounded at tolerance scale)."""
    with ctx.workprec():
        K = mod.matK if mod.numeric else _eval_mat(mod.matK, ctx)
        vals = [K[i][i] for i in range(mod.dim)]
        return sorted(vals, key=lambda z: (mp.nstr(z.real, 25), mp.nstr(z.imag, 25)))


# -- intertwiners --------------------------------------------------------


def _intertwiner_residual(mat, src: RestrictedModule, tgt_E, tgt_F, tgt_K, dim_t, ctx,
                          skip_rows=frozenset()):
    """max over X in {E, F, K} of |mat rho_src(X) - rho_tgt(X) mat|_max,
    over the target rows not in skip_rows."""
    with ctx.workprec():
        worst = mp.mpf(0)
        for src_m, tgt_m in ((src.matE, tgt_E), (src.matF, tgt_F), (src.matK, tgt_K)):
            for i in range(dim_t):
                if i in skip_rows:
                    continue
                for j in range(src.dim):
                    lhs = mp.fsum(mat[i][k] * src_m[k][j] for k in range(src.dim))
                    rhs = mp.fsum(tgt_m[i][k] * mat[k][j] for k in range(dim_t))
                    worst = max(worst, abs(lhs - rhs))
        return worst


def iso_f_matrix(m: int, N: int, ctx: RootContext, as_printed: bool = False):
    """The map f: P_m^+ -> Y_m^+|_{q=xi} by its displayed basis images.

    The source display carries a factor (-1)^k on f(y_k); that sign breaks
    the intertwining with E and F because [N+k] = -[k] at xi flips the
    alpha-ladder beyond index N, and the relation checker rejects it (see
    tests).  The default drops it; as_printed=True keeps the display.
    """
    p = build_restricted("P+", m, N, ctx)
    y, ylab = build_modified(1, m, N)
    ypos = {lab: i for i, lab in enumerate(ylab)}
    with ctx.workprec():
        mat = [[mp.mpc(0) for _ in range(p.dim)] for _ in range(y.dim)]
        for k in range(N - m):
            col = p.basis_labels.index(f"x{k}")
            mat[ypos[f"alpha{k}"]][col] = (-1) ** (N - m - 1 - k) * ctx.qint_at(m) / ctx.qfact_at(N - m - 1 - k)
            col = p.basis_labels.index(f"y{k}")
            ysign = (-1) ** k if as_printed else 1
            mat[ypos[f"alpha{N + k}"]][col] = ysign * ctx.qfact_at(N - 1) / ctx.qfact_at(N - m - 1 - k)
        for k in range(m):
            col = p.basis_labels.index(f"a{k}")
            mat[ypos[f"beta{k}"]][col] = ctx.qfact_at(m) / ctx.qfact_at(m - 1 - k)
            col = p.basis_labels.index(f"b{k}")
            mat[ypos[f"alpha{k + N - m}"]][col] = ctx.qfact_at(k)
    return mat, p, y


def iso_g_matrix(m: int, N: int, ctx: RootContext):
    """The map g: P_{N-m}^- -> Y_1 inside Y_m^-|_{q=xi}."""
    p = build_restricted("P-", N - m, N, ctx)
    y, ylab = build_modified(-1, m, N)
    ypos = {lab: i for i, lab in enumerate(ylab)}
    with ctx.workprec():
        mat = [[mp.mpc(0) for _ in range(p.dim)] for _ in range(y.dim)]
        for k in range(N - m):
            col = p.basis_labels.index(f"x{k}")
            mat[ypos[f"beta{k}"]][col] = (-1) ** (m + k) * ctx.qfact_at(N - m) / ctx.qfact_at(N - m - 1 - k)
            col = p.basis_labels.index(f"y{k}")
            mat[ypos[f"alpha{m + k}"]][col] = (-1) ** k * ctx.qfact_at(k)
        for k in range(m):
            col = p.basis_labels.index(f"a{k}")
            mat[ypos[f"alpha{k}"]][col] = ctx.qint_at(m) / ctx.qfact_at(m - 1 - k)
            col = p.basis_labels.index(f"b{k}")
            mat[ypos[f"alpha{N + k}"]][col] = (-1) ** (N + m + k) * ctx.qfact_at(N - 1) / ctx.qfact_at(m - 1 - k)
    return mat, p, y


def iso_h_matrix(m: int, N: int, ctx: RootContext, as_printed: bool = False):
    """The map h: P_{N-m}^- -> Y_2, an intertwiner onto Y_m^-/Y_1.

    As with f, the displayed (-1)^k on h(b_k) contradicts the ladder signs
    [2N+k] = [k] at xi together with E b_k = [k][m-k] b_{k-1}; the default
    drops it and as_printed=True reproduces the display for the tests."""
    p = build_restricted("P-", N - m, N, ctx)
    y, ylab = build_modified(-1, m, N)
    ypos = {lab: i for i, lab in enumerate(ylab)}
    with ctx.workprec():
        mat = [[mp.mpc(0) for _ in range(p.dim)] for _ in range(y.dim)]
        for k in range(N - m):
            col = p.basis_labels.index(f"x{k}")
            mat[ypos[f"beta{N + k}"]][col] = ctx.qfact_at(N - m) / ctx.qfact_at(N - m - 1 - k)
            col = p.basis_labels.index(f"y{k}")
            mat[ypos[f"alpha{N + m + k}"]][col] = ctx.qfact_at(k)
        for k in range(m):
            col = p.basis_labels.index(f"a{k}")
            mat[ypos[f"beta{N - m + k}"]][col] = ctx.qfact_at(k) / ctx.qfact_at(m - 1)
            col = p.basis_labels.index(f"b{k}")
            bsign = (-1) ** k if as_printed else 1
            mat[ypos[f"alpha{2 * N + k}"]][col] = bsign * ctx.qfact_at(N - 1) / ctx.qfact_at(m - 1 - k)
    return mat, p, y


def y1_basis_indices(m: int, N: int):
    """Row indices spanning the invariant subspace Y_1 of Y_m^-."""
    na = 2 * N + m
    return list(range(N + m)) + [na + i for i in range(N - m)]


def _iso_residual(iso, ctx: RootContext, skip_rows=frozenset()):
    """Intertwining residual of one (mat, P, Y) from the iso_*_matrix
    builders, with Y's matrices evaluated at xi once."""
    mat, p, y = iso
    ye, yf, yk = (_eval_mat(x, ctx) for x in (y.matE, y.matF, y.matK))
    return _intertwiner_residual(mat, p, ye, yf, yk, y.dim, ctx, skip_rows)


def verify_iso_f(m: int, N: int, ctx: RootContext = None):
    ctx = ctx or RootContext(N)
    return _iso_residual(iso_f_matrix(m, N, ctx), ctx)


def verify_iso_g(m: int, N: int, ctx: RootContext = None):
    ctx = ctx or RootContext(N)
    return _iso_residual(iso_g_matrix(m, N, ctx), ctx)


def verify_iso_h(m: int, N: int, ctx: RootContext = None):
    """h intertwines into the quotient Y_m^-/Y_1: compare after projecting
    the Y_1 coordinates away."""
    ctx = ctx or RootContext(N)
    return _iso_residual(iso_h_matrix(m, N, ctx), ctx, frozenset(y1_basis_indices(m, N)))


def verify_y1_invariance(m: int, N: int, ctx: RootContext = None):
    """Y_1 = span(alpha_0..alpha_{N+m-1}, beta_0..beta_{N-m-1}) is
    invariant at xi: entries from Y_1 columns into Y_2 rows vanish."""
    ctx = ctx or RootContext(N)
    y, _ = build_modified(-1, m, N)
    inside = set(y1_basis_indices(m, N))
    with ctx.workprec():
        worst = mp.mpf(0)
        for mat in (y.matE, y.matF, y.matK):
            for j in inside:
                for i in range(y.dim):
                    if i in inside:
                        continue
                    v = mat[i][j]
                    if v:
                        worst = max(worst, abs(ctx.eval(v)))
        return worst


# -- R-matrix specialization ---------------------------------------------


def rmatrix_specialization_check(rep1, rep2, N: int, ctx: RootContext = None):
    """Check that the R-matrix terms with n >= N all specialize to 0 at xi
    on rep1 (x) rep2 and that lower terms stay finite.

    Where the division by {n}! is exact, the entries of a term are Laurent
    polynomials, so the q -> xi limit is plain evaluation and always
    finite: such terms with n < N are not evaluated.  The other terms are
    limits of num/{n}!.  Returns a report dict; 'residual' is the worst
    n >= N entry magnitude and 'offender' names the first failing
    (n, row, col).
    """
    ctx = ctx or RootContext(N)
    one = LaurentPoly.const(1)
    report = {"n_terms": 0, "residual": mp.mpf(0), "offender": None, "pass": True}
    with ctx.workprec():
        for n, term, den in jones.rmatrix_terms(rep1, rep2):
            report["n_terms"] = n + 1
            plain = den == one
            if plain and n < N:
                continue
            for (r, c), v in term.entries.items():
                try:
                    mag = abs(ctx.eval(v)) if plain else abs(ctx.lhopital_ratio(v, den))
                except ZeroDivisionError:
                    # a pole would contradict the specialization property
                    report["offender"] = (n, r, c)
                    report["pass"] = False
                    continue
                if n < N:
                    continue  # low terms only need finite limits
                if mag > report["residual"]:
                    report["residual"] = mag
                if mag > ctx.tol and report["offender"] is None:
                    report["offender"] = (n, r, c)
                    report["pass"] = False
    return report


# -- partial traces on the modified representations ------------------------


def eta_partial_trace(b: jones.BraidWord, m: int, sign: int, N: int, ctx: RootContext = None):
    """Partial trace of the braid representation on (Y_m^sign)^{(x) strands},
    evaluated at xi; returns (matrix, rep, labels).

    The result is the generic-q (1,1)-tangle operator of the braid closure
    carrying framing = writhe, specialized entrywise at xi.  Tensor powers
    above jones.EXACT_DIM_CAP raise FeasibilityError.
    """
    ctx = ctx or RootContext(N)
    if not b.is_knot():
        raise jones.LinkNotKnotError(f"closure of {b} is not a knot")
    rep, labels = build_modified(sign, m, N)
    op, den = jones.braid_operator(b, rep)
    traced = jones.partial_trace(op, rep)
    with ctx.workprec():
        if den == LaurentPoly.const(1):
            numeric = [[ctx.eval(p) for p in row] for row in traced]
        else:
            # entrywise q -> xi limit of the rational operator
            numeric = [[ctx.lhopital_ratio(p, den) if p else mp.mpc(0) for p in row]
                       for row in traced]
    return numeric, rep, labels


def eta_block_data(b: jones.BraidWord, m: int, sign: int, N: int, ctx: RootContext = None):
    """Decompose eta into (alpha scalar, beta scalar, couplings, off-block
    residual); couplings maps (beta_row, alpha_col) label pairs to values."""
    ctx = ctx or RootContext(N)
    numeric, rep, labels = eta_partial_trace(b, m, sign, N, ctx)
    na = (2 * N - m) if sign > 0 else (2 * N + m)
    nb = rep.dim - na
    with ctx.workprec():
        alpha_diag = [numeric[i][i] for i in range(na)]
        beta_diag = [numeric[na + i][na + i] for i in range(nb)]
        couplings = {}
        residual = mp.mpf(0)
        for i in range(rep.dim):
            for j in range(rep.dim):
                v = numeric[i][j]
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


def x0_from_eta(b: jones.BraidWord, m: int, sign: int, N: int, ctx: RootContext = None):
    """The off-block entry x_0^sign: row beta_0, column alpha_{N-m} for the
    plus sign and alpha_m for the minus sign."""
    ctx = ctx or RootContext(N)
    numeric, rep, labels = eta_partial_trace(b, m, sign, N, ctx)
    na = (2 * N - m) if sign > 0 else (2 * N + m)
    col = (N - m) if sign > 0 else m
    return numeric[na + 0][col]


def x0_to_b(x0, m: int, N: int, sign: int, ctx: RootContext = None):
    """Convert the partial-trace off-block entry to b_m^sign via the basis
    correspondences f(a_0^+) = [m] beta_0^+ and g(x_0^-) = (-1)^m [m] beta_0^-."""
    ctx = ctx or RootContext(N)
    with ctx.workprec():
        if sign > 0:
            return x0 / ctx.qint_at(m)
        return (-1) ** m * x0 / ctx.qint_at(m)


# -- center actions --------------------------------------------------------


def _endo_residual(mat, mod: RestrictedModule, ctx: RootContext):
    with ctx.workprec():
        worst = mp.mpf(0)
        d = mod.dim
        for x in (mod.matE, mod.matF, mod.matK):
            lhs = _num_mat_mul(mat, x, d)
            rhs = _num_mat_mul(x, mat, d)
            worst = max(worst, _num_max_abs(_num_sub(lhs, rhs, d)))
        return worst


def center_action_matrices(mod: RestrictedModule, N: int):
    """Matrices of e_0..e_N and w_1^+-..w_{N-1}^+- acting on mod, from the
    stated actions: e_s is the identity on P_s^+ and P_{N-s}^-, e_N on
    U_N^+, e_0 on U_N^-; w_s^+ sends b_n -> a_n on P_s^+; w_s^- sends
    y_k -> x_k on P_{N-s}^-; everything else acts by zero."""
    d = mod.dim
    zero = _num_zeros(d)
    ident = [[mp.mpc(1) if i == j else mp.mpc(0) for j in range(d)] for i in range(d)]
    out = {}
    for s in range(N + 1):
        key = f"e{s}"
        if mod.kind == "P+" and mod.index == s and 1 <= s <= N - 1:
            out[key] = ident
        elif mod.kind == "P-" and mod.index == N - s and 1 <= s <= N - 1:
            out[key] = ident
        elif mod.kind == "U+" and mod.index == N and s == N:
            out[key] = ident
        elif mod.kind == "U-" and mod.index == N and s == 0:
            out[key] = ident
        else:
            out[key] = zero
    for s in range(1, N):
        wp = _num_zeros(d)
        if mod.kind == "P+" and mod.index == s:
            for n in range(s):
                wp[mod.basis_labels.index(f"a{n}")][mod.basis_labels.index(f"b{n}")] = mp.mpc(1)
        out[f"w{s}+"] = wp
        wm = _num_zeros(d)
        if mod.kind == "P-" and mod.index == N - s:
            nx = sum(1 for lab in mod.basis_labels if lab.startswith("x"))
            for k in range(nx):
                wm[mod.basis_labels.index(f"x{k}")][mod.basis_labels.index(f"y{k}")] = mp.mpc(1)
        out[f"w{s}-"] = wm
    return out


def center_action_check(N: int, ctx: RootContext = None):
    """Verify on every built module that the stated center actions are
    endomorphisms and satisfy the commutation relations
    e_s e_t = delta e_s, e_s w_t^+- = delta w_t^+-, w w = 0."""
    ctx = ctx or RootContext(N)
    checks = []
    mods = []
    for s in range(1, N + 1):
        mods.append(build_restricted("U+", s, N, ctx))
        mods.append(build_restricted("U-", s, N, ctx))
    for s in range(1, N):
        mods.append(build_restricted("P+", s, N, ctx))
        mods.append(build_restricted("P-", s, N, ctx))
    for mod in mods:
        acts = center_action_matrices(mod, N)
        d = mod.dim
        for name, mat in acts.items():
            res = _endo_residual(mat, mod, ctx)
            checks.append({"check": "endomorphism", "module": f"{mod.kind}{mod.index}",
                           "center": name, "residual": res, "pass": bool(res < ctx.tol)})
        names = list(acts)
        with ctx.workprec():
            for i, na_ in enumerate(names):
                for nb_ in names[i:]:
                    a, b = acts[na_], acts[nb_]
                    prod = _num_mat_mul(a, b, d)
                    if na_.startswith("e") and nb_.startswith("e"):
                        expect = a if na_ == nb_ else None
                    elif na_.startswith("e"):
                        expect = b if na_[1:] == nb_[1:-1] else None
                    elif nb_.startswith("e"):
                        expect = a if nb_[1:] == na_[1:-1] else None
                    else:
                        expect = None  # w w = 0 in every combination
                    target = expect if expect is not None else _num_zeros(d)
                    res = _num_max_abs(_num_sub(prod, target, d))
                    checks.append({"check": f"{na_}*{nb_}", "module": f"{mod.kind}{mod.index}",
                                   "center": "", "residual": res, "pass": bool(res < ctx.tol)})
    return checks


def verification_report(N: int, ctx: RootContext = None, include_rmatrix: bool = True):
    """The full qgroup verification suite as a JSON-ready list of checks."""
    ctx = ctx or RootContext(N)
    rows = []

    def add(check, params, residual):
        rows.append({"check": check, "parameters": params,
                     "residual": mp.nstr(mp.mpf(residual), 8),
                     "pass": bool(residual < ctx.tol)})

    for s in range(1, N + 1):
        for kind in ("U+", "U-", "V+", "V-"):
            add("relations", f"{kind} s={s}", relations_residual(build_restricted(kind, s, N, ctx), ctx))
    for s in range(1, N):
        for kind in ("P+", "P-"):
            add("relations", f"{kind} s={s}", relations_residual(build_restricted(kind, s, N, ctx), ctx))
        for kind in ("Y+", "Y-"):
            add("relations", f"{kind} m={s}", relations_residual(build_restricted(kind, s, N, ctx), ctx))
        add("iso_f", f"m={s}", verify_iso_f(s, N, ctx))
        add("iso_g", f"m={s}", verify_iso_g(s, N, ctx))
        add("iso_h", f"m={s}", verify_iso_h(s, N, ctx))
        add("y1_invariance", f"m={s}", verify_y1_invariance(s, N, ctx))
    if include_rmatrix:
        reps = {f"W{m}": jones.build_Wm(m) for m in range(1, 2 * N + 1)}
        for m in range(1, N):
            reps[f"Y{m}+"] = build_modified(1, m, N)[0]
            reps[f"Y{m}-"] = build_modified(-1, m, N)[0]
        names = sorted(reps)
        for i, n1 in enumerate(names):
            for n2 in names:
                rep = rmatrix_specialization_check(reps[n1], reps[n2], N, ctx)
                add("rmatrix_specialization", f"{n1} (x) {n2}", rep["residual"])
    for row in center_action_check(N, ctx):
        add(f"center:{row['check']}", f"{row['module']} {row['center']}", row["residual"])
    return rows


def report_to_json(rows) -> str:
    return json.dumps(rows, indent=1, sort_keys=True)
