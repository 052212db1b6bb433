import mpmath as mp
import pytest

from logjones import habiro, jones, loginv, qgroup
from logjones.jones import KNOT_CATALOG, FeasibilityError
from logjones.qcalc import LaurentPoly, RootContext, qbinom, qint
from logjones.qgroup import (
    build_modified,
    build_restricted,
    center_action_check,
    center_action_matrices,
    iso_f_matrix,
    iso_g_matrix,
    iso_h_matrix,
    relations_residual,
    rmatrix_specialization_check,
    verify_iso_f,
    verify_iso_g,
    verify_iso_h,
    verify_y1_invariance,
    x0_from_eta,
    x0_to_b,
    y1_basis_indices,
)
from conftest import (assert_close, displayed_modified, eta_block_data, exact_normalized_Vm,
                      exact_Vm, q_power, rmatrix_specialization_by_limits, weight_multiset,
                      with_entry)


# -- dense oracles: the residuals as computed on dense matrices, which the
# sparse jones.mat_mul / qgroup._max_diff path must reproduce bit for bit


def dense(mat, rows, cols):
    return [[mat.get((i, j), mp.mpc(0)) for j in range(cols)] for i in range(rows)]


def dense_mul(a, b, d):
    out = [[mp.mpc(0)] * d for _ in range(d)]
    for i in range(d):
        for k in range(d):
            x = a[i][k]
            if x:
                for j in range(d):
                    y = b[k][j]
                    if y:
                        out[i][j] += x * y
    return out


def dense_max_abs(a):
    return max((abs(x) for row in a for x in row), default=mp.mpf(0))


def dense_sub(a, b, d):
    return [[a[i][j] - b[i][j] for j in range(d)] for i in range(d)]


def dense_relations_residual(mod, ctx):
    with ctx.workprec():
        d, N = mod.dim, mod.N
        E, F, K = (dense(m, d, d) for m in (mod.matE, mod.matF, mod.matK))
        worst = mp.mpf(0)
        for X in (E, F):
            power = X
            for _ in range(N - 1):
                power = dense_mul(power, X, d)
            worst = max(worst, dense_max_abs(power))
        kk = [[K[i][j] ** (2 * N) if i == j else mp.mpc(0) for j in range(d)] for i in range(d)]
        ident = [[mp.mpc(1) if i == j else mp.mpc(0) for j in range(d)] for i in range(d)]
        worst = max(worst, dense_max_abs(dense_sub(kk, ident, d)))
        xi2 = ctx.xi_pow(2)
        kek = [[K[i][i] * E[i][j] / K[j][j] - xi2 * E[i][j] for j in range(d)] for i in range(d)]
        worst = max(worst, dense_max_abs(kek))
        kfk = [[K[i][i] * F[i][j] / K[j][j] - F[i][j] / xi2 for j in range(d)] for i in range(d)]
        worst = max(worst, dense_max_abs(kfk))
        comm = dense_sub(dense_mul(E, F, d), dense_mul(F, E, d), d)
        one = ctx.brace_at(1)
        cart = [[(K[i][j] - 1 / K[i][j]) / one if i == j else mp.mpc(0) for j in range(d)]
                for i in range(d)]
        return max(worst, dense_max_abs(dense_sub(comm, cart, d)))


def dense_intertwiner_residual(mat, src, tgt, ctx, skip_rows=frozenset()):
    """max over X of |mat rho_src(X) - rho_tgt(X) mat|, each entry an fsum."""
    ds, dt = src.dim, tgt.dim
    mat = dense(mat, dt, ds)
    with ctx.workprec():
        worst = mp.mpf(0)
        for x in ("matE", "matF", "matK"):
            src_m, tgt_m = dense(getattr(src, x), ds, ds), dense(getattr(tgt, x), dt, dt)
            for i in range(dt):
                if i in skip_rows:
                    continue
                for j in range(ds):
                    lhs = mp.fsum(mat[i][k] * src_m[k][j] for k in range(ds))
                    rhs = mp.fsum(tgt_m[i][k] * mat[k][j] for k in range(dt))
                    worst = max(worst, abs(lhs - rhs))
        return worst


def dense_endo_residual(mat, mod, ctx):
    d = mod.dim
    mat = dense(mat, d, d)
    with ctx.workprec():
        worst = mp.mpf(0)
        for x in (mod.matE, mod.matF, mod.matK):
            x = dense(x, d, d)
            worst = max(worst, dense_max_abs(dense_sub(dense_mul(mat, x, d), dense_mul(x, mat, d), d)))
        return worst


class TestModuleZoo:
    def test_trivial_module(self, ctx3):
        u1 = build_restricted("U+", 1, ctx3)
        assert u1.dim == 1
        assert abs(u1.matK[(0, 0)] - 1) < ctx3.tol
        assert abs(u1.matE.get((0, 0), 0)) < ctx3.tol and abs(u1.matF.get((0, 0), 0)) < ctx3.tol

    def test_dimensions(self, ctx4):
        N = 4
        for s in range(1, N):
            assert build_restricted("P+", s, ctx4).dim == 2 * N
            assert build_restricted("P-", s, ctx4).dim == 2 * N
            assert build_restricted("Y+", s, ctx4).dim == 2 * N
            assert build_restricted("Y-", s, ctx4).dim == 4 * N
        for s in range(1, N + 1):
            assert build_restricted("U+", s, ctx4).dim == s
            assert build_restricted("V-", s, ctx4).dim == N

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_Y_actions_are_the_generic_ones_at_xi(self, N):
        # E and F evaluated entry by entry, K = xi^w equal to the weight
        # monomial evaluated at xi, exactly
        ctx = RootContext(N)
        for m in range(1, N):
            for sign, kind in ((1, "Y+"), (-1, "Y-")):
                rep, _ = build_modified(sign, m, N)
                mod = build_restricted(kind, m, ctx)
                assert mod.matK == {(i, i): ctx.eval_at(q_power(w))
                                    for i, w in enumerate(rep.weights)}
                assert mod.matE == {k: ctx.eval_at(v) for k, v in rep.E.items()}
                assert mod.matF == {k: ctx.eval_at(v) for k, v in rep.F.items()}

    @pytest.mark.parametrize("N", range(2, 9))
    def test_one_builder_matches_the_displays(self, N):
        # the sign-free loop reproduces both displays entry for entry, in
        # insertion order: the residuals sum over dicts in that order
        for sign in (1, -1):
            for m in range(1, N):
                rep, labels = build_modified(sign, m, N)
                want, want_labels = displayed_modified(sign, m, N)
                assert labels == want_labels
                assert (rep.dim, rep.weights) == (want.dim, want.weights)
                assert list(rep.E.items()) == list(want.E.items())
                assert list(rep.F.items()) == list(want.F.items())

    def test_index_ranges(self, ctx3):
        for kind, bad in (("U+", 4), ("P+", 3), ("Y-", 0), ("P-", 0)):
            with pytest.raises(ValueError):
                build_restricted(kind, bad, ctx3)
        with pytest.raises(ValueError):
            build_restricted("Q+", 1, ctx3)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_defining_relations_every_module(self, N):
        ctx = RootContext(N)
        worst = mp.mpf(0)
        for s in range(1, N + 1):
            for kind in ("U+", "U-", "V+", "V-"):
                worst = max(worst, relations_residual(build_restricted(kind, s, ctx), ctx))
        for s in range(1, N):
            for kind in ("P+", "P-", "Y+", "Y-"):
                worst = max(worst, relations_residual(build_restricted(kind, s, ctx), ctx))
        assert worst < mp.mpf(10) ** -40

    def test_weight_lists(self):
        # U_s^+ carries xi^{s-1}, xi^{s-3}, ..; U_{N-s}^- carries the
        # negated ladder -xi^{N-s-1}, ..
        N = 5
        ctx = RootContext(N)
        for s in range(1, N + 1):
            mod = build_restricted("U+", s, ctx)
            with ctx.workprec():
                want = sorted((ctx.xi_pow(s - 1 - 2 * n) for n in range(s)),
                              key=lambda z: (mp.nstr(z.real, 20), mp.nstr(z.imag, 20)))
                got = weight_multiset(mod, ctx)
                for a, b in zip(want, got):
                    assert_close(a, b, ctx.tol)
        for s in range(1, N):
            mod = build_restricted("U-", N - s, ctx)
            with ctx.workprec():
                want = sorted((-ctx.xi_pow(N - s - 1 - 2 * n) for n in range(N - s)),
                              key=lambda z: (mp.nstr(z.real, 20), mp.nstr(z.imag, 20)))
                for a, b in zip(want, weight_multiset(mod, ctx)):
                    assert_close(a, b, ctx.tol)

    def test_modified_generic_relations_exact(self):
        # {1}(EF - FE) = K - K^{-1} holds exactly at generic q on Y_m^{+-}
        from logjones.qcalc import brace
        N = 3
        for sign in (1, -1):
            rep, _ = build_modified(sign, 1, N)
            d = rep.dim
            one = brace(1)
            zero = LaurentPoly()
            E = [[rep.E.get((i, j), zero) for j in range(d)] for i in range(d)]
            F = [[rep.F.get((i, j), zero) for j in range(d)] for i in range(d)]
            for i in range(d):
                for j in range(d):
                    ef = LaurentPoly()
                    for k in range(d):
                        ef = ef + E[i][k] * F[k][j] - F[i][k] * E[k][j]
                    want = LaurentPoly()
                    if i == j:
                        w = rep.weights[i]
                        want = q_power(w) - q_power(-w)
                    assert ef * one == want


class TestIntertwiners:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_f_g_h_and_invariance(self, N):
        ctx = RootContext(N)
        for m in range(1, N):
            assert verify_iso_f(m, ctx) < mp.mpf(10) ** -40
            assert verify_iso_g(m, ctx) < mp.mpf(10) ** -40
            assert verify_iso_h(m, ctx) < mp.mpf(10) ** -40
            assert verify_y1_invariance(m, ctx) < mp.mpf(10) ** -40

    @staticmethod
    def printed(mat, p, family):
        # the source display of a map: the one image of each basis vector
        # family_k of p carries an extra (-1)^k
        return {(r, c): -v if p.basis_labels[c][0] == family and int(p.basis_labels[c][1:]) % 2
                else v for (r, c), v in mat.items()}

    def test_printed_f_sign_fails(self, ctx3):
        # the displayed (-1)^k on the y-family of f is incompatible with
        # the ladder signs at xi; the residual metric sees it
        mat, p, y = iso_f_matrix(1, ctx3)
        mat = self.printed(mat, p, "y")
        res = qgroup._intertwiner_residual(mat, p, y, ctx3)
        assert res > mp.mpf("0.5")

    def test_printed_h_sign_fails(self, ctx3):
        mat, p, y = iso_h_matrix(2, ctx3)
        mat = dense(self.printed(mat, p, "b"), y.dim, p.dim)
        kill = set(y1_basis_indices(2, 3))
        with ctx3.workprec():
            worst = mp.mpf(0)
            for x in ("matE", "matF", "matK"):
                src_m = dense(getattr(p, x), p.dim, p.dim)
                tgt_m = dense(getattr(y, x), y.dim, y.dim)
                for i in range(y.dim):
                    if i in kill:
                        continue
                    for j in range(p.dim):
                        lhs = mp.fsum(mat[i][k] * src_m[k][j] for k in range(p.dim))
                        rhs = mp.fsum(tgt_m[i][k] * mat[k][j] for k in range(y.dim))
                        worst = max(worst, abs(lhs - rhs))
        assert worst > mp.mpf("0.5")

    def test_residual_metric_detects_perturbation(self, ctx3):
        # sanity of the metric: a perturbed map is no longer an intertwiner,
        # and the residual scales linearly under scaling the map
        mat, p, y = iso_f_matrix(1, ctx3)
        mat[(2, 0)] = mat.get((2, 0), 0) + mp.mpf("0.001")
        res = qgroup._intertwiner_residual(mat, p, y, ctx3)
        assert res > mp.mpf("1e-4")
        doubled = {k: 2 * v for k, v in mat.items()}
        res2 = qgroup._intertwiner_residual(doubled, p, y, ctx3)
        assert_close(res2, 2 * res, ctx3.tol)

    def test_y1_not_invariant_generically(self):
        # at generic q some matrix entry leaves Y_1, so the specialization
        # check is not vacuous
        N, m = 3, 1
        rep, _ = build_modified(-1, m, N)
        inside = set(y1_basis_indices(m, N))
        leaks = [v for (i, j), v in rep.F.items() if j in inside and i not in inside]
        assert leaks  # nonzero polynomials that vanish only at xi


class TestRMatrixSpecialization:
    def test_W2_at_N2(self):
        ctx = RootContext(2)
        W2 = jones.build_Wm(2)
        assert rmatrix_specialization_check(W2, W2, ctx) < ctx.tol
        # terms beyond the joint nilpotency order vanish identically:
        # E^2 = 0 on W_2, so the sum stops after n = 0, 1
        assert sum(1 for _ in jones.rmatrix_terms(W2, W2)) == 2
        assert len(jones._mat_powers(W2.E, 2)) == 2

    def test_Y1_pairs_at_N3(self, ctx3):
        y1p = build_modified(1, 1, 3)[0]
        y1m = build_modified(-1, 1, 3)[0]
        for a, b in ((y1p, y1p), (y1p, y1m), (y1m, y1m)):
            assert rmatrix_specialization_check(a, b, ctx3) < mp.mpf(10) ** -40
            # nontrivial n >= N terms were checked
            assert sum(1 for _ in jones.rmatrix_terms(a, b)) > 3

    def test_mixed_W_Y_pair(self, ctx3):
        res = rmatrix_specialization_check(jones.build_Wm(4), build_modified(1, 2, 3)[0], ctx3)
        assert res < ctx3.tol

    def test_low_terms_not_evaluated(self, ctx4, monkeypatch):
        # the check forms no R-matrix term, and it reduces the entries of
        # E^n and {1}^n F^n with n >= N only: {n}! has no zero at xi for
        # n < N, so those terms cannot have a pole there
        def forbidden(*args):
            raise AssertionError("the check formed an R-matrix term")

        monkeypatch.setattr(jones, "tensor_of", forbidden)
        monkeypatch.setattr(jones, "rmatrix_terms", forbidden)
        reduced = []
        real = RootContext.order_at

        def recording(self, p):
            reduced.append(p)
            return real(self, p)

        monkeypatch.setattr(RootContext, "order_at", recording)
        y2m = build_modified(-1, 2, 4)[0]
        assert rmatrix_specialization_check(y2m, y2m, ctx4) < ctx4.tol
        e_pow, _, f_scaled = jones._rep_powers(y2m)
        low = {id(p) for powers in (e_pow, f_scaled) for mat in powers[:4] for p in mat.values()}
        high = {id(p) for powers in (e_pow, f_scaled) for mat in powers[4:] for p in mat.values()}
        assert high and high <= {id(p) for p in reduced}
        assert not low & {id(p) for p in reduced}

    def test_genuine_pole(self, ctx3):
        # at N = 3 the [3] in E^3 and in F^3 of W_5 is their one zero at
        # xi; taken out of E on the first factor and out of F on the
        # second, it leaves e f / [3]! with a pole
        W5 = jones.build_Wm(5)
        one = LaurentPoly.const(1)
        a, b = with_entry(W5, "E", (2, 3), one), with_entry(W5, "F", (2, 1), one)
        assert rmatrix_specialization_check(a, b, ctx3) == mp.inf
        assert rmatrix_specialization_by_limits(a, b, ctx3) == mp.inf

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_equals_the_limit_sweep(self, N):
        # every ordered pair of the report's sweep, against the check that
        # forms each term and takes the limits of its entries
        ctx = RootContext(N)
        reps = [jones.build_Wm(m) for m in range(1, 2 * N + 1)]
        reps += [build_modified(sign, m, N)[0] for m in range(1, N) for sign in (1, -1)]
        for a in reps:
            for b in reps:
                assert (mp.nstr(rmatrix_specialization_check(a, b, ctx), 8)
                        == mp.nstr(rmatrix_specialization_by_limits(a, b, ctx), 8))

    def test_perturbed_controls_equal_the_limit_sweep(self, ctx3):
        # negative controls: each of the first four E and F entries of
        # Y_1^-, W_5 and Y_2^+ set to 1, [2] or q, paired with itself and
        # with W_5 both ways; 36 of the 216 pairs fail, with the same
        # nonzero residual in both checks
        W5 = jones.build_Wm(5)
        failing = 0
        for V in (build_modified(-1, 1, 3)[0], W5, build_modified(1, 2, 3)[0]):
            for side in ("E", "F"):
                for key in list(getattr(V, side))[:4]:
                    for value in (LaurentPoly.const(1), qint(2), q_power(1)):
                        P = with_entry(V, side, key, value)
                        for a, b in ((P, P), (P, W5), (W5, P)):
                            res = rmatrix_specialization_check(a, b, ctx3)
                            assert mp.nstr(res, 8) == mp.nstr(
                                rmatrix_specialization_by_limits(a, b, ctx3), 8)
                            failing += not res < ctx3.tol
        assert failing == 36

    def test_n0_term_is_diagonal_nonzero(self):
        for n, term, _den in jones.rmatrix_terms(jones.build_Wm(3), jones.build_Wm(2)):
            if n == 0:
                assert all(r == c for (r, c) in term)
                assert len(term) == 6
                break


class TestEtaPartialTrace:
    def test_unknot_blocks(self, ctx3):
        b = KNOT_CATALOG["unknot"]
        for sign in (1, -1):
            data = eta_block_data(b, 1, sign, 3, ctx3)
            assert_close(data["alpha_scalar"], 1, ctx3.tol)
            assert_close(data["beta_scalar"], 1, ctx3.tol)
            assert not data["couplings"]
            assert data["off_block_residual"] < ctx3.tol

    @pytest.mark.parametrize("sign", [1, -1])
    def test_trefoil_block_structure(self, sign, ctx3):
        # criterion-7 shape: scalar diagonal blocks carrying the framed
        # normalized invariants, couplings only from alpha into beta
        N, m = 3, 1
        b31 = KNOT_CATALOG["3_1"]
        w = b31.writhe
        data = eta_block_data(b31, m, sign, N, ctx3)
        h = habiro.coeffs_for("3_1", N)
        ma = (2 * N - m) if sign > 0 else (2 * N + m)
        mb = m if sign > 0 else (2 * N - m)
        va = ctx3.lhopital_ratio(exact_Vm(h, ma, framing=w), qint(ma))
        vb = ctx3.lhopital_ratio(exact_Vm(h, mb, framing=w), qint(mb))
        assert_close(data["alpha_scalar"], va, ctx3.tol)
        assert_close(data["beta_scalar"], vb, ctx3.tol)
        assert data["alpha_scatter"] < ctx3.tol and data["beta_scatter"] < ctx3.tol
        assert data["off_block_residual"] < ctx3.tol
        for (row, col) in data["couplings"]:
            assert row.startswith("beta") and col.startswith("alpha")
            # couplings sit at (beta_{k-c}, alpha_k) with c = N-m resp. m
            k = int(col[5:])
            assert int(row[4:]) == k - (N - m if sign > 0 else m)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_trefoil_x0_matches_displayed_formula(self, sign, ctx3):
        N, m = 3, 1
        b31 = KNOT_CATALOG["3_1"]
        w = b31.writhe
        h = habiro.coeffs_for("3_1", N)
        x0 = x0_from_eta(b31, m, sign, ctx3)
        if sign > 0:
            num = qbinom(N - 1, m - 1) * (exact_normalized_Vm(h, 2 * N - m, framing=w)
                                          - exact_normalized_Vm(h, m, framing=w))
            den = qint(N)
        else:
            num = qbinom(2 * N - 1, m) * (exact_normalized_Vm(h, 2 * N + m, framing=w)
                                          - exact_normalized_Vm(h, 2 * N - m, framing=w))
            den = qint(2 * N)
        assert_close(x0, ctx3.lhopital_ratio(num, den), mp.mpf(10) ** -25)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_x0_to_b_matches_loginv(self, sign, ctx3):
        N, m = 3, 1
        b31 = KNOT_CATALOG["3_1"]
        x0 = x0_from_eta(b31, m, sign, ctx3)
        got = x0_to_b(x0, m, sign, ctx3)
        want = loginv.b_pm_via_derivative("3_1", m, sign, ctx3, framing=b31.writhe)
        assert_close(got, want, mp.mpf(10) ** -25)

    def test_zero_x0_maps_to_zero(self, ctx3):
        assert abs(x0_to_b(mp.mpc(0), 1, 1, ctx3)) == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_figure_eight_three_strand_N2(self, sign):
        # 3-strand braid on Y_1^{+-} at N=2 (dimensions 4^3 and 8^3)
        N, m = 2, 1
        ctx = RootContext(N)
        b41 = KNOT_CATALOG["4_1"]
        x0 = x0_from_eta(b41, m, sign, ctx)
        got = x0_to_b(x0, m, sign, ctx)
        want = loginv.b_pm_via_derivative("4_1", m, sign, ctx, framing=b41.writhe)
        assert_close(got, want, mp.mpf(10) ** -25)

    @pytest.mark.parametrize("sign, m", [(-1, 1), (1, 1), (1, 2)])
    def test_figure_eight_three_strand_N3(self, sign, m):
        # the definitional route on the cubes of Y_1^- (1728-dim) and
        # Y_m^+ (216-dim) at N=3
        N = 3
        ctx = RootContext(N)
        b41 = KNOT_CATALOG["4_1"]
        got = x0_to_b(x0_from_eta(b41, m, sign, ctx), m, sign, ctx)
        want = loginv.b_pm_via_derivative("4_1", m, sign, ctx, framing=b41.writhe)
        assert_close(got, want, mp.mpf(10) ** -25)

    def test_trefoil_larger_root(self):
        # 2-strand trace on Y_2^+ at N=5 (dimension 10^2)
        N, m = 5, 2
        ctx = RootContext(N)
        b31 = KNOT_CATALOG["3_1"]
        x0 = x0_from_eta(b31, m, 1, ctx)
        got = x0_to_b(x0, m, 1, ctx)
        want = loginv.b_pm_via_derivative("3_1", m, 1, ctx, framing=b31.writhe)
        assert_close(got, want, mp.mpf(10) ** -25)

    def test_feasibility_bound(self, ctx3):
        with pytest.raises(FeasibilityError):
            qgroup.eta_partial_trace(KNOT_CATALOG["4_1"], 1, -1, RootContext(5))

    def test_link_rejected(self, ctx3):
        with pytest.raises(jones.LinkNotKnotError):
            qgroup.eta_partial_trace(jones.BraidWord(2, (1, 1)), 1, 1, ctx3)


class TestCenterActions:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_all_relations(self, N):
        ctx = RootContext(N)
        bad = [row for row in center_action_check(ctx) if not row[2] < ctx.tol]
        assert not bad, bad[:3]

    def test_specific_actions(self, ctx3):
        N = 3
        p1 = build_restricted("P+", 1, ctx3)
        acts = center_action_matrices(p1)
        # w_1^+ squares to zero on P_1^+
        sq = jones.mat_mul(acts["w1+"], acts["w1+"])
        assert qgroup._max_diff(sq, {}) < ctx3.tol
        # w_1^+ e_1 = w_1^+
        prod = jones.mat_mul(acts["w1+"], acts["e1"])
        assert qgroup._max_diff(prod, acts["w1+"]) < ctx3.tol
        # e_s acts by zero on U_N^+ unless s = N
        un = build_restricted("U+", N, ctx3)
        acts_un = center_action_matrices(un)
        assert qgroup._max_diff(acts_un["e1"], {}) == 0
        assert qgroup._max_diff(acts_un[f"e{N}"],
                                {(i, i): mp.mpc(1) for i in range(N)}) < ctx3.tol

    def test_report_shape(self, ctx3):
        rows = qgroup.verification_report(RootContext(2), include_rmatrix=False)
        assert all(set(r) == {"check", "parameters", "residual", "pass"} for r in rows)
        assert all(r["pass"] for r in rows)
        text = qgroup.report_to_json(rows)
        import json as _json
        assert _json.loads(text) == rows


class TestReportModules:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_each_module_built_once(self, N):
        # a report builds each (kind, idx) module once, a second report
        # builds none, and a report on freshly built modules is the same
        def report():
            return qgroup.report_to_json(
                qgroup.verification_report(RootContext(N), include_rmatrix=False))

        cache = qgroup.build_restricted
        cache.cache_clear()
        shared = report()
        assert cache.cache_info().misses == 8 * N - 4
        assert report() == shared
        assert cache.cache_info().misses == 8 * N - 4
        cache.cache_clear()
        assert report() == shared


class TestDenseOracles:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_sparse_residuals_equal_dense(self, N):
        # the sparse product and residual reproduce the dense residuals bit
        # for bit: every iso map is monomial, so each fsum has one nonzero
        # term, and both products skip zeros and sum over ascending k
        ctx = RootContext(N)
        for s in range(1, N + 1):
            for kind in ("U+", "U-", "V+", "V-"):
                mod = build_restricted(kind, s, ctx)
                assert relations_residual(mod, ctx) == dense_relations_residual(mod, ctx)
        for s in range(1, N):
            for kind in ("P+", "P-", "Y+", "Y-"):
                mod = build_restricted(kind, s, ctx)
                assert relations_residual(mod, ctx) == dense_relations_residual(mod, ctx)
            kill = frozenset(y1_basis_indices(s, N))
            for build, verify, skip in ((iso_f_matrix, verify_iso_f, frozenset()),
                                        (iso_g_matrix, verify_iso_g, frozenset()),
                                        (iso_h_matrix, verify_iso_h, kill)):
                mat, p, y = build(s, ctx)
                assert verify(s, ctx) == dense_intertwiner_residual(mat, p, y, ctx, skip)
        endo = {params: residual for check, params, residual in center_action_check(ctx)
                if check == "endomorphism"}
        mods = [build_restricted(kind, s, ctx) for s in range(1, N + 1) for kind in ("U+", "U-")]
        mods += [build_restricted(kind, s, ctx) for s in range(1, N) for kind in ("P+", "P-")]
        seen = 0
        for mod in mods:
            for name, mat in center_action_matrices(mod).items():
                assert endo[f"{mod.kind}{mod.index} {name}"] == dense_endo_residual(mat, mod, ctx)
                seen += 1
        assert seen == len(endo)
