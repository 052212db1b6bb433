"""Restricted quantum group modules at xi and their verification.

Builds the irreducibles U_s^+-, the length-two modules V_s^+-, the
projectives P_s^+- and the modified representations Y_m^+- at generic q,
all by the one ladder rule of jones.ladder_rep (Y_m^+- is W_na + W_nb
plus two families of links, see build_modified), and specializes them
at xi as sparse matrices; checks the defining relations, the
intertwiners f/g/h onto Y_m^+-, the vanishing of the high R-matrix terms
at xi, and the center actions; and extracts the radical coefficients
from partial traces on Y_m^+-.

Every matrix is a sparse map {(row, col): value}.  All checks multiply
with jones.mat_mul, and every check returns one residual, mostly the
max-abs entry of a defect (_max_diff); verification_report alone compares
the residuals with the context tolerance.

Every function that works at xi takes a required RootContext ctx, which
fixes N and the precision together, and reads N from ctx.N (a module
carries its own N); build_modified, at generic q, takes N alone.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import mpmath as mp

from .qcalc import LaurentPoly, RootContext, qbinom, qint
from . import jones


# Largest N that verification_report takes on.  On a shared 2-vCPU Xeon
# qgroup-verify (cli.main in a fresh process) takes 0.4 s at N = 5, 2.4 s
# and 55 MB at N = 8 and 8.8 s and 127 MB at N = 10, R-matrix sweep
# included.  Without the sweep it takes 0.1 s, 0.4 s and 33 MB, and 1.2 s
# and 44 MB, but it grows too, so the one bound holds for both.  A larger
# N is refused with jones.FeasibilityError before any module is built.
MAX_VERIFY_N = 10


@dataclasses.dataclass(frozen=True)
class RestrictedModule:
    """One module of the restricted quantum group.

    matE, matF and matK are sparse maps {(row, col): mpc} of the actions
    at xi.  build_restricted shares one module among all its callers, so
    nothing may change its maps.
    """

    kind: str
    index: int
    N: int
    dim: int
    matE: dict
    matF: dict
    matK: dict
    basis_labels: list


# mpmath numbers are immutable, so every zero entry can be this one object
_ZERO = mp.mpc(0)


@functools.lru_cache(maxsize=None)
def build_restricted(kind: str, idx: int, ctx: RootContext) -> RestrictedModule:
    """Construct a module by its displayed actions, once per (kind, idx, ctx).

    kind is one of 'U+', 'U-', 'V+', 'V-' (1 <= idx <= N),
    'P+', 'P-' (1 <= idx <= N-1), 'Y+', 'Y-' (1 <= idx <= N-1).  Each is
    a WeightRep at generic q from jones.ladder_rep (through build_modified
    for Y; unsplit for the rest, with the factor [n][t+1-n] on E as the
    displays of U, V and P put it), specialized here alone: E and F
    entrywise by ctx.eval_at, and K = sign xi^weight, with sign = -1 on E
    and K of U- and V- only.  No sign is kept by hand: at xi,
    [2N-k] = -[k] and [N-k] = [k], so the rule itself gives the displayed
    -[n][N-s-n] on the x and y ladders of P.
    """
    N = ctx.N
    if kind in ("Y+", "Y-"):
        rep, labels = build_modified(1 if kind[1] == "+" else -1, idx, N)
    elif kind in ("U+", "U-", "V+", "V-"):
        if not 1 <= idx <= N:
            raise ValueError("index must be in 1..N for U/V kinds")
        rep, labels = jones.ladder_rep([(kind[0].lower(), idx - 1, idx if kind[0] == "U" else N)],
                                       split=False)
    elif kind in ("P+", "P-"):
        if not 1 <= idx <= N - 1:
            raise ValueError("index must be in 1..N-1 for P kinds")
        # P_s^+, or P_{N-s}^- as its display is parametrized: ladders x, y
        # of N-s vectors and a, b of s, with E links y_0 -> a_{s-1}, b_0 ->
        # x_{N-s-1} and one diagonal pair, and F links from bottoms to tops
        plus = kind == "P+"
        s = idx if plus else N - idx
        k = N - s
        lower, upper, d = ("b", "a", s) if plus else ("y", "x", k)
        one = LaurentPoly.const(1)
        rep, labels = jones.ladder_rep(
            [("x", (2 * N if plus else 0) - s - 1, k), ("y", -s - 1, k),
             ("a", s - 1, s), ("b", s - 1 - (0 if plus else 2 * N), s)],
            [("y0", f"a{s - 1}", one), ("b0", f"x{k - 1}", one)]
            + [(f"{lower}{n}", f"{upper}{n - 1}", one) for n in range(1, d)],
            [(f"x{k - 1}", "a0", one), (f"b{s - 1}", "y0", one)] if plus
            else [(f"y{k - 1}", "b0", one), (f"a{s - 1}", "x0", one)],
            split=False)
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    sign = -1 if kind in ("U-", "V-") else 1
    with ctx.workprec():
        E = {key: sign * ctx.eval_at(p) for key, p in rep.E.items()}
        F = {key: ctx.eval_at(p) for key, p in rep.F.items()}
        K = {(i, i): sign * ctx.xi_pow(w) for i, w in enumerate(rep.weights)}
    return RestrictedModule(kind, idx, N, rep.dim, E, F, K, labels)


def _modified_ladders(sign: int, m: int, N: int):
    """(na, nb, t) of Y_m^sign: its alpha ladder has na vectors, its beta
    ladder nb, and E links alpha_i to beta_{i-(na-t+1)} for na-t < i <= t.
    That is (2N-m, m, N) for Y_m^+ and (2N+m, 2N-m, 2N) for Y_m^-."""
    if not 1 <= m <= N - 1:
        raise ValueError("m must be in 1..N-1")
    return (2 * N - m, m, N) if sign > 0 else (2 * N + m, 2 * N - m, 2 * N)


def build_modified(sign: int, m: int, N: int):
    """The generic-q representation Y_m^+ (2N-dim) or Y_m^- (4N-dim) as a
    WeightRep plus basis labels: W_na + W_nb as the ladders alpha and beta
    of jones.ladder_rep, with E links alpha_i -> qbinom(na-1-i, t-i)
    beta_{i-(na-t+1)} for na-t < i <= t and one F link alpha_{na-t-1} ->
    qbinom(t-1, nb-1) beta_0.  The display's F alpha_{na-t-1} =
    [t] alpha_{na-t} is the ladder's own [na-1-i] at i = na-t-1."""
    na, nb, t = _modified_ladders(sign, m, N)
    return jones.ladder_rep(
        [("alpha", na - 1, na), ("beta", nb - 1, nb)],
        [(f"alpha{i}", f"beta{i - (na - t + 1)}", qbinom(na - 1 - i, t - i))
         for i in range(na - t + 1, t + 1)],
        [(f"alpha{na - t - 1}", "beta0", qbinom(t - 1, nb - 1))])


# -- relation checks -----------------------------------------------------


def _max_diff(a: dict, b: dict, skip_rows=frozenset()):
    """max |a - b| over the entries of two sparse maps, leaving out the
    rows in skip_rows; 0 when nothing is left."""
    return max((abs(a.get(key, _ZERO) - b.get(key, _ZERO)) for key in a.keys() | b.keys()
                if key[0] not in skip_rows), default=mp.mpf(0))


def relations_residual(mod: RestrictedModule, ctx: RootContext):
    """Max defect of the restricted relations at xi:
    E^N = F^N = 0, K^{2N} = 1, K E K^{-1} = xi^2 E, K F K^{-1} = xi^{-2} F,
    E F - F E = (K - K^{-1}) / (xi - xi^{-1})."""
    with ctx.workprec():
        E, F, K = mod.matE, mod.matF, mod.matK
        N = mod.N
        kd = {i: v for (i, _), v in K.items()}
        e_pow, f_pow = E, F
        for _ in range(N - 1):
            e_pow, f_pow = jones.mat_mul(e_pow, E), jones.mat_mul(f_pow, F)
        ef, fe = jones.mat_mul(E, F), jones.mat_mul(F, E)
        comm = {key: ef.get(key, _ZERO) - fe.get(key, _ZERO) for key in ef.keys() | fe.keys()}
        xi2 = ctx.xi_pow(2)
        one = ctx.brace_at(1)
        return max(
            _max_diff(e_pow, {}),
            _max_diff(f_pow, {}),
            _max_diff({key: v ** (2 * N) for key, v in K.items()},
                      {(i, i): mp.mpc(1) for i in range(mod.dim)}),
            _max_diff({(i, j): kd[i] * v / kd[j] for (i, j), v in E.items()},
                      {key: xi2 * v for key, v in E.items()}),
            _max_diff({(i, j): kd[i] * v / kd[j] for (i, j), v in F.items()},
                      {key: v / xi2 for key, v in F.items()}),
            _max_diff(comm, {key: (v - 1 / v) / one for key, v in K.items()}))


# -- intertwiners --------------------------------------------------------


def _intertwiner_residual(mat, src: RestrictedModule, tgt: RestrictedModule, ctx: RootContext,
                          skip_rows=frozenset()):
    """max over X in {E, F, K} of |mat rho_src(X) - rho_tgt(X) mat|_max,
    over the target rows not in skip_rows.  With src = tgt this is the
    defect of an endomorphism."""
    with ctx.workprec():
        return max(_max_diff(jones.mat_mul(mat, s), jones.mat_mul(t, mat), skip_rows)
                   for s, t in ((src.matE, tgt.matE), (src.matF, tgt.matF),
                                (src.matK, tgt.matK)))


def _iso(p: RestrictedModule, y: RestrictedModule, images):
    """(map, P, Y) for the map P -> Y that sends P basis vector plab to
    value times Y basis vector ylab, from (plab, ylab, value) images."""
    col = {lab: j for j, lab in enumerate(p.basis_labels)}
    row = {lab: i for i, lab in enumerate(y.basis_labels)}
    return {(row[ylab], col[plab]): v for plab, ylab, v in images}, p, y


def iso_f_matrix(m: int, ctx: RootContext):
    """The map f: P_m^+ -> Y_m^+|_{q=xi} by its displayed basis images.

    The source display carries a factor (-1)^k on f(y_k); that sign breaks
    the intertwining with E and F because [N+k] = -[k] at xi flips the
    alpha-ladder beyond index N, and the relation checker rejects it (see
    tests).  The map here drops it.
    """
    N = ctx.N
    p = build_restricted("P+", m, ctx)
    y = build_restricted("Y+", m, ctx)
    images = []
    with ctx.workprec():
        for k in range(N - m):
            images.append((f"x{k}", f"alpha{k}",
                           (-1) ** (N - m - 1 - k) * ctx.qint_at(m) / ctx.qfact_at(N - m - 1 - k)))
            images.append((f"y{k}", f"alpha{N + k}",
                           ctx.qfact_at(N - 1) / ctx.qfact_at(N - m - 1 - k)))
        for k in range(m):
            images.append((f"a{k}", f"beta{k}", ctx.qfact_at(m) / ctx.qfact_at(m - 1 - k)))
            images.append((f"b{k}", f"alpha{k + N - m}", ctx.qfact_at(k)))
    return _iso(p, y, images)


def iso_g_matrix(m: int, ctx: RootContext):
    """The map g: P_{N-m}^- -> Y_1 inside Y_m^-|_{q=xi}."""
    N = ctx.N
    p = build_restricted("P-", N - m, ctx)
    y = build_restricted("Y-", m, ctx)
    images = []
    with ctx.workprec():
        for k in range(N - m):
            images.append((f"x{k}", f"beta{k}",
                           (-1) ** (m + k) * ctx.qfact_at(N - m) / ctx.qfact_at(N - m - 1 - k)))
            images.append((f"y{k}", f"alpha{m + k}", (-1) ** k * ctx.qfact_at(k)))
        for k in range(m):
            images.append((f"a{k}", f"alpha{k}", ctx.qint_at(m) / ctx.qfact_at(m - 1 - k)))
            images.append((f"b{k}", f"alpha{N + k}", (-1) ** (N + m + k) * ctx.qfact_at(N - 1)
                           / ctx.qfact_at(m - 1 - k)))
    return _iso(p, y, images)


def iso_h_matrix(m: int, ctx: RootContext):
    """The map h: P_{N-m}^- -> Y_2, an intertwiner onto Y_m^-/Y_1.

    As with f, the displayed (-1)^k on h(b_k) contradicts the ladder signs
    [2N+k] = [k] at xi together with E b_k = [k][m-k] b_{k-1}; the map
    here drops it."""
    N = ctx.N
    p = build_restricted("P-", N - m, ctx)
    y = build_restricted("Y-", m, ctx)
    images = []
    with ctx.workprec():
        for k in range(N - m):
            images.append((f"x{k}", f"beta{N + k}",
                           ctx.qfact_at(N - m) / ctx.qfact_at(N - m - 1 - k)))
            images.append((f"y{k}", f"alpha{N + m + k}", ctx.qfact_at(k)))
        for k in range(m):
            images.append((f"a{k}", f"beta{N - m + k}", ctx.qfact_at(k) / ctx.qfact_at(m - 1)))
            images.append((f"b{k}", f"alpha{2 * N + k}",
                           ctx.qfact_at(N - 1) / ctx.qfact_at(m - 1 - k)))
    return _iso(p, y, images)


def y1_basis_indices(m: int, N: int):
    """Row indices spanning the invariant subspace Y_1 of Y_m^-: its first
    na - N alpha and first nb - N beta vectors."""
    na, nb, _ = _modified_ladders(-1, m, N)
    return list(range(na - N)) + [na + i for i in range(nb - N)]


def verify_iso_f(m: int, ctx: RootContext):
    return _intertwiner_residual(*iso_f_matrix(m, ctx), ctx)


def verify_iso_g(m: int, ctx: RootContext):
    return _intertwiner_residual(*iso_g_matrix(m, ctx), ctx)


def verify_iso_h(m: int, ctx: RootContext):
    """h intertwines into the quotient Y_m^-/Y_1: compare after projecting
    the Y_1 coordinates away."""
    return _intertwiner_residual(*iso_h_matrix(m, ctx), ctx,
                                 frozenset(y1_basis_indices(m, ctx.N)))


def verify_y1_invariance(m: int, ctx: RootContext):
    """Y_1 = span(alpha_0..alpha_{N+m-1}, beta_0..beta_{N-m-1}) is
    invariant at xi: entries from Y_1 columns into Y_2 rows vanish."""
    y = build_restricted("Y-", m, ctx)
    inside = set(y1_basis_indices(m, ctx.N))
    with ctx.workprec():
        return max((abs(v) for mat in (y.matE, y.matF, y.matK) for (i, j), v in mat.items()
                    if j in inside and i not in inside), default=mp.mpf(0))


# -- R-matrix specialization ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _qfact_unit(n: int, ctx: RootContext):
    """(n // N, |([n]! / Phi_4N^{n // N})(xi)|): the order of [n]! at xi and
    the modulus there of what is left.  [k] = {k}/{1} vanishes at xi just
    when N | k, and then once, as x^{4k} - 1 has simple roots, and
    {1}(xi) != 0 for N >= 2; order_at counts it all the same."""
    if n == 0:
        return 0, mp.mpf(1)
    order, mag = _qfact_unit(n - 1, ctx)
    k, unit = ctx.order_at(qint(n))
    with ctx.workprec():
        return order + k, mag * abs(ctx.eval_at(unit))


def _orders(mat: dict, ctx: RootContext, base: int = 0, scale=1):
    """(k - base, m / scale): k the least order at xi of an entry p of mat,
    m the largest |(p / Phi_4N^k)(xi)| over the entries of order k alone."""
    least, mag = math.inf, None
    with ctx.workprec():
        for p in mat.values():
            k, unit = ctx.order_at(p)
            if k < least:
                least, mag = k, abs(ctx.eval_at(unit))
            elif k == least:
                mag = max(mag, abs(ctx.eval_at(unit)))
        return least - base, mag / scale


def _vanishing_profile(V: jones.WeightRep, ctx: RootContext):
    """(E side, F side) of V for rmatrix_specialization_check, built once
    per (V, ctx) and kept in V._memo.

    Each side is a tuple over n = N, N+1, ... below the nilpotency order
    of E (of F) of the pair (order, modulus) that _orders reads off the
    entries of E^n / [n]! and of {1}^n F^n (jones._rep_powers).  On the
    E side the order of [n]! is taken off, so an order below 0 is a pole
    there, and the modulus is divided by that of [n]! / Phi_4N^{n // N}."""
    key = ("vanishing", ctx)
    sides = V._memo.get(key)
    if sides is None:
        e_pow, f_scaled = jones._rep_powers(V)
        N = ctx.N
        sides = V._memo[key] = (
            tuple(_orders(e_pow[n], ctx, *_qfact_unit(n, ctx)) for n in range(N, len(e_pow))),
            tuple(_orders(f_scaled[n], ctx) for n in range(N, len(f_scaled))))
    return sides


def rmatrix_specialization_check(rep1, rep2, ctx: RootContext):
    """The worst magnitude at xi of an entry of the R-matrix terms with
    n >= N on rep1 (x) rep2, which must all specialize to 0, or mp.inf
    when one of them has a pole at xi.

    An entry of term n is a monomial of modulus 1 at xi times e f / [n]!,
    e an entry of E^n on rep1 and f one of {1}^n F^n on rep2, as
    {n}! = {1}^n [n]!.  Orders of vanishing at xi add, so the entry is a
    pole where the orders of e / [n]! and f sum below 0, exactly 0 where
    they sum above, and otherwise of the modulus of the product of their
    reductions; no term is formed.  By the least orders ke, kf of the
    sides of _vanishing_profile, term n has a pole if ke + kf < 0; else
    the only orders that can sum to 0 are ke and kf themselves, so its
    worst entry is the product of their moduli if ke + kf == 0 and every
    entry is exactly 0 if ke + kf > 0.  Terms with n < N have no pole, as
    [n]! has no zero at xi there, and are not read.
    """
    worst = mp.mpf(0)
    e_side = _vanishing_profile(rep1, ctx)[0]
    f_side = _vanishing_profile(rep2, ctx)[1]
    with ctx.workprec():
        for (ke, me), (kf, mf) in zip(e_side, f_side):
            if ke + kf < 0:
                return mp.inf  # a pole contradicts the specialization property
            if ke + kf == 0:
                worst = max(worst, me * mf)
    return worst


# -- partial traces on the modified representations ------------------------


def eta_partial_trace(b: jones.BraidWord, m: int, sign: int, ctx: RootContext):
    """Partial trace of the braid representation on (Y_m^sign)^{(x) strands},
    evaluated at xi; returns (matrix, rep, labels).

    The result is the generic-q (1,1)-tangle operator of the braid closure
    carrying framing = writhe, specialized entrywise at xi.  Tensor powers
    above jones.EXACT_DIM_CAP raise jones.FeasibilityError.
    """
    jones.check_knot(b)
    rep, labels = build_modified(sign, m, ctx.N)
    traced, den = _partial_trace_over_den(b, rep)
    # entrywise q -> xi limit of the rational operator
    at_xi = [[ctx.lhopital_ratio(p, den) for p in row] for row in traced]
    return at_xi, rep, labels


def _partial_trace_over_den(b: jones.BraidWord, rep: jones.WeightRep):
    """(traced, den): (1 x K^{(x)(n-1)}) . op, the partial quantum trace
    over the right n-1 factors of the braid word b on rep^{(x) n}, as a
    dense matrix of LaurentPoly numerators over den, the product of the
    braidings' {n}! denominators.  The Y_m^+- are not irreducible, so
    this takes every column: the dict-polynomial braidings run through
    jones._apply_local on the columns (b, t) of one open index b at a
    time, which bounds the entries held at once."""
    d, n = rep.dim, b.strands
    jones._check_dim(d ** n)
    signs = [1 if g > 0 else -1 for g in b.word]
    local = {sign: jones.braiding(rep, sign) for sign in set(signs)}
    one = LaurentPoly.const(1)
    den = math.prod((local[s][1] for s in signs), start=one)
    gates = {sign: jones._by_col(op) for sign, (op, _) in local.items()}
    rest = d ** (n - 1)
    shifts = [2 * w for w in jones._weight_sums(n - 1, rep)]
    traced = [[LaurentPoly() for _ in range(d)] for _ in range(d)]
    for b_ in range(d):
        cols = range(b_ * rest, (b_ + 1) * rest)
        op = jones.TensorOperator(rep, n, {(c, c): one for c in cols}, None)
        for g, s in zip(b.word, signs):
            op = jones._apply_local(op, gates[s], abs(g) - 1, d, n)
        for (r, c), v in op.entries.items():
            a, t = divmod(r, rest)
            if t == c - b_ * rest:
                traced[a][b_] = traced[a][b_] + v.shift(shifts[t])
    return traced, den


def x0_from_eta(b: jones.BraidWord, m: int, sign: int, ctx: RootContext):
    """The off-block entry x_0^sign: row beta_0, column alpha_{na-t}, which
    is alpha_{N-m} for the plus sign and alpha_m for the minus sign."""
    at_xi, rep, labels = eta_partial_trace(b, m, sign, ctx)
    na, _, t = _modified_ladders(sign, m, ctx.N)
    return at_xi[na][na - t]


def x0_to_b(x0, m: int, sign: int, ctx: RootContext):
    """Convert the partial-trace off-block entry to b_m^sign via the basis
    correspondences f(a_0^+) = [m] beta_0^+ and g(x_0^-) = (-1)^m [m] beta_0^-."""
    with ctx.workprec():
        if sign > 0:
            return x0 / ctx.qint_at(m)
        return (-1) ** m * x0 / ctx.qint_at(m)


# -- center actions --------------------------------------------------------


def center_action_matrices(mod: RestrictedModule):
    """Sparse maps of e_0..e_N and w_1^+-..w_{N-1}^+- acting on mod, from
    the stated actions: e_s is the identity on P_s^+ and P_{N-s}^-, e_N on
    U_N^+, e_0 on U_N^-; w_s^+ sends b_n -> a_n on P_s^+; w_s^- sends
    y_k -> x_k on P_{N-s}^-; everything else acts by zero ({})."""
    N = mod.N
    # the one s whose e_s is the identity on mod; None for any other module
    top = mod.index == N
    owner = {"P+": mod.index, "P-": N - mod.index,
             "U+": N if top else None, "U-": 0 if top else None}.get(mod.kind)
    ident = {(i, i): mp.mpc(1) for i in range(mod.dim)}
    pos = {lab: i for i, lab in enumerate(mod.basis_labels)}
    out = {f"e{s}": ident if s == owner else {} for s in range(N + 1)}
    for s in range(1, N):
        out[f"w{s}+"] = ({(pos[f"a{n}"], pos[f"b{n}"]): mp.mpc(1) for n in range(s)}
                         if mod.kind == "P+" and mod.index == s else {})
        out[f"w{s}-"] = ({(pos[f"x{k}"], pos[f"y{k}"]): mp.mpc(1) for k in range(N - s)}
                         if mod.kind == "P-" and mod.index == N - s else {})
    return out


def center_action_check(ctx: RootContext):
    """(check, parameters, residual) rows on every U and P module: that the
    stated center actions are endomorphisms ('endomorphism', parameters
    'P+1 e1') and satisfy the commutation relations e_s e_t = delta e_s,
    e_s w_t^+- = delta w_t^+-, w w = 0 ('e1*w1+', parameters 'P+1 ')."""
    N = ctx.N
    checks = []
    mods = []
    for s in range(1, N + 1):
        mods.append(build_restricted("U+", s, ctx))
        mods.append(build_restricted("U-", s, ctx))
    for s in range(1, N):
        mods.append(build_restricted("P+", s, ctx))
        mods.append(build_restricted("P-", s, ctx))
    for mod in mods:
        label = f"{mod.kind}{mod.index}"
        acts = center_action_matrices(mod)
        for name, mat in acts.items():
            checks.append(("endomorphism", f"{label} {name}",
                           _intertwiner_residual(mat, mod, mod, ctx)))
        # every e_s comes before every w, so a pair (na_, nb_) with
        # nb_ in names[i:] never puts a w first and an e second
        names = list(acts)
        with ctx.workprec():
            for i, na_ in enumerate(names):
                for nb_ in names[i:]:
                    a, b = acts[na_], acts[nb_]
                    if na_.startswith("e") and nb_.startswith("e"):
                        expect = a if na_ == nb_ else {}
                    elif na_.startswith("e"):
                        expect = b if na_[1:] == nb_[1:-1] else {}
                    else:
                        expect = {}  # w w = 0 in every combination
                    checks.append((f"{na_}*{nb_}", f"{label} ",
                                   _max_diff(jones.mat_mul(a, b), expect)))
    return checks


def verification_report(ctx: RootContext, include_rmatrix: bool = True):
    """The full qgroup verification suite as a JSON-ready list of checks.

    The memoized build_restricted shares each (kind, idx) module among the
    relation, intertwiner, invariance and center checks.  add is the one
    place that judges a residual: a row passes when it is below ctx.tol,
    so a pole (mp.inf) or a NaN fails.  N above MAX_VERIFY_N raises
    jones.FeasibilityError before any module is built."""
    N = ctx.N
    if N > MAX_VERIFY_N:
        raise jones.FeasibilityError(f"qgroup verification at N = {N} exceeds the bound "
                                     f"N <= {MAX_VERIFY_N}")
    rows = []

    def add(check, params, residual):
        rows.append({"check": check, "parameters": params,
                     "residual": mp.nstr(mp.mpf(residual), 8),
                     "pass": bool(residual < ctx.tol)})

    def relations(kind, s, label):
        add("relations", f"{kind} {label}={s}", relations_residual(build_restricted(kind, s, ctx), ctx))

    for s in range(1, N + 1):
        for kind in ("U+", "U-", "V+", "V-"):
            relations(kind, s, "s")
    for s in range(1, N):
        for kind in ("P+", "P-"):
            relations(kind, s, "s")
        for kind in ("Y+", "Y-"):
            relations(kind, s, "m")
        add("iso_f", f"m={s}", verify_iso_f(s, ctx))
        add("iso_g", f"m={s}", verify_iso_g(s, ctx))
        add("iso_h", f"m={s}", verify_iso_h(s, ctx))
        add("y1_invariance", f"m={s}", verify_y1_invariance(s, ctx))
    if include_rmatrix:
        reps = {f"W{m}": jones.build_Wm(m) for m in range(1, 2 * N + 1)}
        for m in range(1, N):
            reps[f"Y{m}+"] = build_modified(1, m, N)[0]
            reps[f"Y{m}-"] = build_modified(-1, m, N)[0]
        names = sorted(reps)
        for n1 in names:
            for n2 in names:
                add("rmatrix_specialization", f"{n1} (x) {n2}",
                    rmatrix_specialization_check(reps[n1], reps[n2], ctx))
    for check, params, residual in center_action_check(ctx):
        add(f"center:{check}", params, residual)
    return rows


def report_to_json(rows) -> str:
    return json.dumps(rows, indent=1, sort_keys=True)
