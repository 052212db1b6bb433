"""Restricted quantum group modules at xi and their verification.

Builds the irreducibles U_s^+-, the length-two modules V_s^+-, the
projectives P_s^+- and the specializations of the generic-q modified
representations Y_m^+- as sparse matrices at xi; checks the defining
relations, the intertwiners f/g/h onto Y_m^+-, the vanishing of the high
R-matrix terms at xi, and the center actions; and extracts the radical
coefficients from partial traces on Y_m^+-.

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

import mpmath as mp

from .qcalc import RootContext, qbinom, qint
from . import jones


# Largest N that verification_report takes on.  On a shared 2-vCPU Xeon
# the whole report, R-matrix sweep included, takes 0.07 s at N = 3,
# 0.16 s at N = 4, 0.33 s at N = 5, 0.8 s at N = 6, 2.7 s at N = 7,
# 4.5 s and 56 MB at N = 8, 7.1 s and 85 MB at N = 9 and 12.7 s and
# 132 MB at N = 10.  Without the sweep it takes 0.41 s at N = 8 and
# 0.66 s at N = 10, but it grows too, so the one bound holds for both.
# A larger N is refused with jones.FeasibilityError before any module is
# built.
MAX_VERIFY_N = 10


@dataclasses.dataclass(frozen=True)
class RestrictedModule:
    """One module of the restricted quantum group.

    matE, matF and matK are sparse maps {(row, col): mpc} of the actions
    at xi; the Y kinds evaluate E and F of build_modified entrywise and
    take K = xi^{weight}.  build_restricted shares one module among all
    its callers, so nothing may change its maps.
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
    'P+', 'P-' (1 <= idx <= N-1), 'Y+', 'Y-' (1 <= idx <= N-1).
    """
    N = ctx.N
    with ctx.workprec():
        if kind in ("Y+", "Y-"):
            rep, labels = build_modified(1 if kind[1] == "+" else -1, idx, N)
            E, F = ({key: ctx.eval_at(p) for key, p in mat.items()} for mat in (rep.E, rep.F))
            K = {(i, i): ctx.xi_pow(w) for i, w in enumerate(rep.weights)}
            return RestrictedModule(kind, idx, N, rep.dim, E, F, K, labels)
        if kind in ("U+", "U-", "V+", "V-"):
            if not 1 <= idx <= N:
                raise ValueError("index must be in 1..N for U/V kinds")
            sgn = 1 if kind[1] == "+" else -1
            d = idx if kind[0] == "U" else N
            E, F, K = {}, {}, {}
            for n in range(d):
                K[(n, n)] = sgn * ctx.xi_pow(idx - 1 - 2 * n)
                if n >= 1:
                    E[(n - 1, n)] = sgn * ctx.qint_at(n) * ctx.qint_at(idx - n)
                if n <= d - 2:
                    F[(n + 1, n)] = mp.mpc(1)
            labels = [f"{'u' if kind[0] == 'U' else 'v'}{n}" for n in range(d)]
            return RestrictedModule(kind, idx, N, d, E, F, K, labels)
        if kind in ("P+", "P-"):
            if not 1 <= idx <= N - 1:
                raise ValueError("index must be in 1..N-1 for P kinds")
            # the displayed minus-family actions are parametrized so that
            # parameter s builds P_{N-s}^-
            return _build_p(kind, idx if kind == "P+" else N - idx, ctx)
    raise ValueError(f"unknown module kind {kind!r}")


def _build_p(kind: str, s: int, ctx: RootContext) -> RestrictedModule:
    """P_s^+ (kind 'P+') or P_{N-s}^- (kind 'P-') on basis x_0..x_{N-s-1},
    y_0..y_{N-s-1}, a_0..a_{s-1}, b_0..b_{s-1}.

    Both displays run E and F along the four ladders and link a_{s-1} <- y_0
    and x_{N-s-1} <- b_0 by E.  They differ in the weights of x and b, in
    the ladder pair that E links diagonally (a-b for P+, x-y for P-), and
    in the two F links from the bottom of one ladder to the top of another
    (x -> a and b -> y for P+, y -> b and a -> x for P-)."""
    N = ctx.N
    plus = kind == "P+"
    k = N - s
    size = {"x": k, "y": k, "a": s, "b": s}
    labels = [f"{c}{j}" for c in "xyab" for j in range(size[c])]
    pos = {lab: i for i, lab in enumerate(labels)}
    top = {"x": (2 * N if plus else 0) - s - 1, "y": -s - 1,
           "a": s - 1, "b": s - 1 - (0 if plus else 2 * N)}
    wexp = [top[lab[0]] - 2 * int(lab[1:]) for lab in labels]
    K = {(i, i): ctx.xi_pow(w) for i, w in enumerate(wexp)}
    one = mp.mpc(1)
    E = {(pos[f"a{s-1}"], pos["y0"]): one, (pos[f"x{k-1}"], pos["b0"]): one}
    F = {}
    for c in "xyab":
        for n in range(1, size[c]):
            v = ctx.qint_at(n) * ctx.qint_at(size[c] - n)
            E[(pos[f"{c}{n-1}"], pos[f"{c}{n}"])] = -v if c in "xy" else v
            F[(pos[f"{c}{n}"], pos[f"{c}{n-1}"])] = one
    upper, lower = ("a", "b") if plus else ("x", "y")
    for n in range(1, size[upper]):
        E[(pos[f"{upper}{n-1}"], pos[f"{lower}{n}"])] = one
    for src, dst in ((("x", "a"), ("b", "y")) if plus else (("y", "b"), ("a", "x"))):
        F[(pos[f"{dst}0"], pos[f"{src}{size[src] - 1}"])] = one
    return RestrictedModule(kind, s if plus else N - s, N, 2 * N, E, F, K, labels)


def _modified_ladders(sign: int, m: int, N: int):
    """(na, nb, t) of Y_m^sign: its alpha ladder has na vectors, its beta
    ladder nb, and E links alpha_i to beta_{i-(na-t+1)} for na-t < i <= t.
    That is (2N-m, m, N) for Y_m^+ and (2N+m, 2N-m, 2N) for Y_m^-."""
    if not 1 <= m <= N - 1:
        raise ValueError("m must be in 1..N-1")
    return (2 * N - m, m, N) if sign > 0 else (2 * N + m, 2 * N - m, 2 * N)


def build_modified(sign: int, m: int, N: int):
    """The generic-q representation Y_m^+ (2N-dim) or Y_m^- (4N-dim) as a
    WeightRep plus basis labels."""
    na, nb, t = _modified_ladders(sign, m, N)
    labels = [f"alpha{i}" for i in range(na)] + [f"beta{i}" for i in range(nb)]
    E, F = {}, {}
    for i in range(na):
        if i >= 1:
            E[(i - 1, i)] = qint(i)
        if na - t < i <= t:
            E[(na + i - (na - t + 1), i)] = qbinom(na - 1 - i, t - i)
        if i == na - t - 1:
            F[(i + 1, i)] = qint(t)
            F[(na, i)] = qbinom(t - 1, nb - 1)
        elif i + 1 < na:
            F[(i + 1, i)] = qint(na - 1 - i)
    for i in range(nb):
        if i >= 1:
            E[(na + i - 1, na + i)] = qint(i)
        if i + 1 < nb:
            F[(na + i + 1, na + i)] = qint(nb - 1 - i)
    weights = [na - 1 - 2 * i for i in range(na)] + [nb - 1 - 2 * i for i in range(nb)]
    return jones.WeightRep(na + nb, E, F, tuple(weights)), labels


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
    """{k - base: max |(p / Phi_4N^k)(xi)| / scale} over the entries p of
    mat, grouped by their order k at xi."""
    out = {}
    with ctx.workprec():
        for p in mat.values():
            k, unit = ctx.order_at(p)
            mag = abs(ctx.eval_at(unit))
            if mag > out.get(k - base, -1):
                out[k - base] = mag
        return {k: mag / scale for k, mag in out.items()}


def _vanishing_profile(V: jones.WeightRep, ctx: RootContext):
    """(E side, F side) of V for rmatrix_specialization_check, built once
    per (V, ctx) and kept in V._memo.

    Each side is a tuple over n = N, N+1, ... below the nilpotency order
    of E (of F) of the maps _orders reads off the entries of E^n / [n]!
    and of {1}^n F^n (jones._rep_powers).  On the E side the order of
    [n]! is taken off, so an order below 0 is a pole there, and the
    moduli are divided by that of [n]! / Phi_4N^{n // N}."""
    key = ("vanishing", ctx)
    sides = V._memo.get(key)
    if sides is None:
        e_pow, _, f_scaled = jones._rep_powers(V)
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
    {n}! = {1}^n [n]!.  Orders of vanishing at xi add, so by the sides of
    _vanishing_profile the entry is a pole where the orders of e / [n]!
    and f sum below 0, exactly 0 where they sum above, and otherwise of
    the modulus of the product of their reductions; no term is formed.
    Terms with n < N have no pole, as [n]! has no zero at xi there, and
    are not read.
    """
    worst = mp.mpf(0)
    e_side = _vanishing_profile(rep1, ctx)[0]
    f_side = _vanishing_profile(rep2, ctx)[1]
    with ctx.workprec():
        for e, f in zip(e_side, f_side):
            if min(e) + min(f) < 0:
                return mp.inf  # a pole contradicts the specialization property
            for k, mag in e.items():
                if -k in f:
                    worst = max(worst, mag * f[-k])
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
    op, den = jones.braid_operator(b, rep)
    traced = jones.partial_trace(op)
    # entrywise q -> xi limit of the rational operator
    at_xi = [[ctx.lhopital_ratio(p, den) for p in row] for row in traced]
    return at_xi, rep, labels


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
        names = list(acts)
        with ctx.workprec():
            for i, na_ in enumerate(names):
                for nb_ in names[i:]:
                    a, b = acts[na_], acts[nb_]
                    if na_.startswith("e") and nb_.startswith("e"):
                        expect = a if na_ == nb_ else {}
                    elif na_.startswith("e"):
                        expect = b if na_[1:] == nb_[1:-1] else {}
                    elif nb_.startswith("e"):
                        expect = a if nb_[1:] == na_[1:-1] else {}
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
