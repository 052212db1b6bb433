import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from logjones import habiro, jones
from logjones.jones import (
    BraidWord,
    FeasibilityError,
    KNOT_CATALOG,
    LinkNotKnotError,
    braid_operator,
    braiding,
    build_Wm,
    colored_jones,
    colored_jones_zero_framed,
    framing_adjust,
    mat_mul,
    parse_braid,
    quantum_trace,
    rmatrix,
)
from logjones.qcalc import LaurentPoly, RootContext, brace, kron_unpack, qint
from logjones.qgroup import build_modified
from conftest import (colored_jones_numeric, decoded_wm_gates, dict_braid_operator, dict_partial_trace,
                      gate_loop, horner, is_palindromic, knotted_words, mirror, q_power, traced_block)


def decoded(op):
    """The entries of the packed operator of a whole word, on the columns
    (0, t), as term maps in its rescaled basis."""
    return {k: kron_unpack(v, *op.layout) for k, v in op.entries.items()}


def closed_form_operator(b, m):
    """The full operator of b on W_m^{(x) n}, every column, from the
    multiplied-out closed-form gates through the conftest gate loop, in
    the rescaled basis."""
    gates = {sign: decoded_wm_gates(m, sign) for sign in {1 if g > 0 else -1 for g in b.word}}
    return gate_loop(b, m, gates, LaurentPoly.const(1))


def oracle_partial_trace(b, V):
    """The dict oracle's partial trace of b over its right n-1 factors."""
    return dict_partial_trace(dict_braid_operator(b, V)[0], V, b.strands)

def dense_of(entries, d):
    return [[entries.get((i, j), LaurentPoly()) for j in range(d)] for i in range(d)]


def dense_K(w):
    return [[q_power(w.weights[i]) if i == j else LaurentPoly() for j in range(w.dim)]
            for i in range(w.dim)]


def add_maps(a, b):
    out = dict(a)
    for k, v in b.items():
        t = out.get(k, LaurentPoly()) + v
        if t:
            out[k] = t
        else:
            out.pop(k, None)
    return out


def scale_map(a, p):
    return {k: v * p for k, v in a.items()}


def poly_mat_mul(a, b, d):
    out = [[LaurentPoly() for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for k in range(d):
            if a[i][k]:
                for j in range(d):
                    if b[k][j]:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def series_rmatrix_inverse(V1, V2):
    """R^{-1} = Theta^{-1} D^{-1} by a nilpotent power series, the
    reference for the closed-form inverse.

    Theta = D^{-1} R takes the row factor q^{w1*w2/2} off R.  Theta_num =
    den*I + X with X nilpotent, so den^{L-1} Theta^{-1} is the polynomial
    sum of (-1)^k den^{L-1-k} X^k over k < L."""
    d2 = V2.dim
    dim = V1.dim * d2
    r, den = rmatrix(V1, V2)
    x = {(row, c): v.shift(-V1.weights[row // d2] * V2.weights[row % d2])
         for (row, c), v in r.items()}
    x = add_maps(x, {(i, i): -den for i in range(dim)})
    powers = [{(i, i): LaurentPoly.const(1) for i in range(dim)}]
    power = powers[0]
    while x:
        power = mat_mul(power, x)
        if not power:
            break
        powers.append(power)
    L = len(powers)
    inv = {}
    den_pow = [LaurentPoly.const(1)]
    for _ in range(L - 1):
        den_pow.append(den_pow[-1] * den)
    for k, pk in enumerate(powers):
        coeff = den_pow[L - 1 - k] * (1 if k % 2 == 0 else -1)
        inv = add_maps(inv, scale_map(pk, coeff))
    # right-multiply by D^{-1}: scale columns by q^{-w1*w2/2}
    entries = {}
    for (r, c), v in inv.items():
        j1, j2 = divmod(c, d2)
        entries[(r, c)] = v.shift(-V1.weights[j1] * V2.weights[j2])
    return entries, den_pow[-1]


def modified_reps(max_N):
    return [pytest.param(build_modified(sign, m, N)[0], id=f"Y{m}{'+' if sign > 0 else '-'}_N{N}")
            for N in range(2, max_N + 1) for m in range(1, N) for sign in (1, -1)]


class TestBraidWord:
    def test_parse(self):
        b = parse_braid("3: 1 -2 1 -2")
        assert b.strands == 3 and b.word == (1, -2, 1, -2)
        assert parse_braid("4_1") == KNOT_CATALOG["4_1"]
        with pytest.raises(ValueError):
            parse_braid("nonsense")
        with pytest.raises(ValueError):
            BraidWord(2, (2,))

    def test_writhe_and_components(self):
        assert KNOT_CATALOG["3_1"].writhe == 3
        assert KNOT_CATALOG["4_1"].writhe == 0
        assert KNOT_CATALOG["3_1"].is_knot()
        assert not BraidWord(2, (1, 1)).is_knot()  # Hopf link, 2 components
        assert BraidWord(3, ()).closure_components() == 3


class TestWeightRep:
    def test_W1_trivial(self):
        w = build_Wm(1)
        assert w.dim == 1
        assert w.E == {} and w.F == {}
        assert w.weights == (0,)

    def test_W2_literal(self):
        w = build_Wm(2)
        assert w.E == {(0, 1): qint(1)}
        assert w.F == {(1, 0): qint(1)}
        assert w.weights == (1, -1)
        # and the displayed E f_i = [i] f_{i-1}, F f_i = [m-1-i] f_{i+1} of
        # every W_m up to m = 12, in insertion order
        for m in range(1, 13):
            w = build_Wm(m)
            assert list(w.E.items()) == [((i - 1, i), qint(i)) for i in range(1, m)]
            assert list(w.F.items()) == [((i + 1, i), qint(m - 1 - i)) for i in range(m - 1)]
            assert w.weights == tuple(m - 1 - 2 * i for i in range(m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_commutator_is_cartan(self, m):
        # (EF - FE) f_i = [m-1-2i] f_i as an exact matrix identity
        w = build_Wm(m)
        E, F = dense_of(w.E, m), dense_of(w.F, m)
        ef = poly_mat_mul(E, F, m)
        fe = poly_mat_mul(F, E, m)
        for i in range(m):
            for j in range(m):
                want = qint(m - 1 - 2 * i) if i == j else LaurentPoly()
                assert ef[i][j] - fe[i][j] == want

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_KEK_relations_exact(self, m):
        # K E K^{-1} = q^2 E since E raises the weight by 2, exactly
        w = build_Wm(m)
        for (i, j), v in w.E.items():
            assert w.weights[i] - w.weights[j] == 2
            lhs = v.shift(2 * (w.weights[i] - w.weights[j]))
            assert lhs == v * q_power(2)
        for (i, j), v in w.F.items():
            assert w.weights[i] - w.weights[j] == -2

    def test_bad_m(self):
        with pytest.raises(ValueError):
            build_Wm(0)

    @pytest.mark.parametrize("rep", [pytest.param(build_Wm(m), id=f"W{m}") for m in range(1, 9)]
                             + modified_reps(5))
    def test_sparse_maps_hold_no_zero(self, rep):
        # _mat_powers stops at the first empty power, so a stored zero entry
        # would keep a nilpotent E or F from ending
        for mat in (rep.E, rep.F):
            assert all(mat.values())
            assert all(0 <= i < rep.dim and 0 <= j < rep.dim for i, j in mat)


class TestRMatrix:
    def test_W1_identity(self):
        w1 = build_Wm(1)
        r, den = rmatrix(w1, w1)
        assert den == LaurentPoly.const(1)
        assert r == {(0, 0): LaurentPoly.const(1)}

    def test_W2_literal(self):
        # q^{1/2}, q^{-1/2} diagonal blocks and one off-diagonal q^{-1/2}{1}
        w2 = build_Wm(2)
        r, den = rmatrix(w2, w2)
        assert den == LaurentPoly.const(1)
        half = q_power(1, 2)
        mhalf = q_power(-1, 2)
        assert r == {
            (0, 0): half,
            (1, 1): mhalf,
            (2, 2): mhalf,
            (3, 3): half,
            (1, 2): mhalf * brace(1),
        }

    @pytest.mark.parametrize("m", [2, 3])
    def test_inverse(self, m):
        w = build_Wm(m)
        r, dr = rmatrix(w, w)
        ri, dri = rmatrix(w, w, inverse=True)
        scale = dr * dri
        assert mat_mul(r, ri) == {(i, i): scale for i in range(m * m)}

    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_form_inverse_matches_series(self, m):
        w = build_Wm(m)
        op, den = rmatrix(w, w, inverse=True)
        ref, ref_den = series_rmatrix_inverse(w, w)
        assert den == ref_den == LaurentPoly.const(1)
        assert op == ref

    @pytest.mark.parametrize("rep", modified_reps(3))
    def test_closed_form_inverse_matches_series_modified(self, rep):
        # the two inverses may carry different denominators, so compare
        # op/den against ref/ref_den crosswise
        op, den = rmatrix(rep, rep, inverse=True)
        ref, ref_den = series_rmatrix_inverse(rep, rep)
        assert scale_map(op, ref_den) == scale_map(ref, den)

    @pytest.mark.parametrize("rep", modified_reps(4))
    def test_braiding_inverse_pair_modified(self, rep):
        plus, den_plus = braiding(rep, 1)
        minus, den_minus = braiding(rep, -1)
        scale = den_plus * den_minus
        assert mat_mul(plus, minus) == {(i, i): scale for i in range(rep.dim ** 2)}

    def test_powers_built_once_per_representation(self, monkeypatch):
        # E^n and F^n of each representation are built once, not per pair
        calls = []
        real = jones._mat_powers

        def counted(mat, dim):
            calls.append(dim)
            return real(mat, dim)

        monkeypatch.setattr(jones, "_mat_powers", counted)
        reps = [build_Wm(2), build_Wm(3), build_modified(-1, 1, 2)[0]]
        for v1 in reps:
            for v2 in reps:
                list(jones.rmatrix_terms(v1, v2))
                rmatrix(v1, v2, inverse=True)
        assert sorted(calls) == [2, 2, 3, 3, 8, 8]

    # the braid relations on the full operators of the closed-form gates,
    # every column, and on the packed operators of braid_operator, on the
    # columns (0, t)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_yang_baxter(self, m):
        b1, b2 = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
        assert closed_form_operator(b1, m) == closed_form_operator(b2, m)
        w = build_Wm(m)
        assert decoded(braid_operator(b1, w)) == decoded(braid_operator(b2, w))

    def test_far_commutation(self):
        b1, b2 = BraidWord(4, (1, 3)), BraidWord(4, (3, 1))
        assert closed_form_operator(b1, 2) == closed_form_operator(b2, 2)
        w = build_Wm(2)
        assert decoded(braid_operator(b1, w)) == decoded(braid_operator(b2, w))

    def test_braiding_inverse_pair(self):
        # the rescaling leaves diagonal entries alone
        b = BraidWord(2, (1, -1))
        one = LaurentPoly.const(1)
        assert closed_form_operator(b, 3) == {(i, i): one for i in range(9)}
        assert decoded(braid_operator(b, build_Wm(3))) == {(t, t): one.terms for t in range(3)}


class TestColoredJones:
    def test_unknot(self):
        for m in (1, 2, 3, 6):
            assert colored_jones(KNOT_CATALOG["unknot"], m) == qint(m)

    def test_trivial_color_every_knot(self):
        for name, b in KNOT_CATALOG.items():
            assert colored_jones_zero_framed(b, 1) == LaurentPoly.const(1)

    def test_link_rejected(self):
        with pytest.raises(LinkNotKnotError):
            colored_jones(BraidWord(2, (1, 1)), 2)

    def test_framing_factor_of_raw_trace(self):
        # writhe-3 trace = q^{3(m^2-1)/2} times the 0-framed invariant
        b = KNOT_CATALOG["3_1"]
        for m in (2, 3):
            raw = colored_jones(b, m)
            adj = colored_jones_zero_framed(b, m)
            assert raw == adj.shift(3 * (m * m - 1))

    def test_framing_adjust_roundtrip(self):
        p = qint(5) + brace(2)
        assert framing_adjust(framing_adjust(p, 4, 3), -4, 3) == p

    def test_figure_eight_amphichiral(self):
        # the 0-framed invariant of 4_1 is palindromic (q <-> 1/q)
        for m in (2, 3, 4):
            v = colored_jones_zero_framed(KNOT_CATALOG["4_1"], m)
            assert is_palindromic(v)

    def test_figure_eight_m2_value(self):
        # [2] + {3}{2}{1}/{1} telescopes to q^5 + q^-5
        assert colored_jones_zero_framed(KNOT_CATALOG["4_1"], 2) == \
            LaurentPoly({10: 1, -10: 1})

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_markov_stabilization(self, m):
        a = colored_jones_zero_framed(BraidWord(2, (1, 1, 1)), m)
        b = colored_jones_zero_framed(BraidWord(3, (1, 1, 1, 2)), m)
        assert a == b

    def test_trefoil_matches_habiro_reconstruction(self):
        h = habiro.catalog_coeffs("3_1")
        for m in (2, 3, 5):
            assert colored_jones_zero_framed(KNOT_CATALOG["3_1"], m) == \
                habiro.reconstruct_Vm(h, m)

    def test_feasibility_cap(self):
        with pytest.raises(FeasibilityError):
            braid_operator(BraidWord(4, (1, 2, 3)), build_Wm(40))

    def test_numeric_path_matches_exact(self):
        ctx = RootContext(3)
        with ctx.workprec():
            q_half = mp.expj(mp.mpf("0.37")) * mp.mpf("0.93")
            for name in ("3_1", "4_1"):
                b = KNOT_CATALOG[name]
                exact = horner(colored_jones(b, 3), q_half)
                numeric = colored_jones_numeric(b, 3, q_half)
                assert abs(exact - numeric) < mp.mpf(10) ** -50


class TestPartialTrace:
    def test_identity_operator(self):
        w = build_Wm(3)
        ident = BraidWord(2, ())
        traced = oracle_partial_trace(ident, w)
        for i in range(3):
            for j in range(3):
                assert traced[i][j] == (qint(3) if i == j else LaurentPoly())
        assert traced_block(braid_operator(ident, w)) == qint(3)

    @pytest.mark.parametrize("name,m", [("3_1", 2), ("3_1", 3), ("4_1", 2)])
    def test_scalar_on_irreducible(self, name, m):
        # the partial trace of a braid operator on W_m is scalar: the
        # packed engine's one block, and the scalar times [m] recovers the
        # quantum trace
        b = KNOT_CATALOG[name]
        w = build_Wm(m)
        traced = oracle_partial_trace(b, w)
        scalar = traced[0][0]
        for i in range(m):
            for j in range(m):
                assert traced[i][j] == (scalar if i == j else LaurentPoly())
        op = braid_operator(b, w)
        assert traced_block(op) == scalar
        assert scalar * qint(m) == quantum_trace(op)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_intertwiner_property(self, m, n):
        # partial traces of braid operators commute with E, F, K
        word = tuple(1 + (i % (n - 1)) for i in range(3)) if n > 1 else ()
        b = BraidWord(n, word)
        w = build_Wm(m)
        traced = oracle_partial_trace(b, w)
        for mat in (dense_of(w.E, m), dense_of(w.F, m), dense_K(w)):
            lhs = poly_mat_mul(traced, mat, m)
            rhs = poly_mat_mul(mat, traced, m)
            for i in range(m):
                for j in range(m):
                    assert lhs[i][j] == rhs[i][j]


class TestBraidInvariance:
    """The 0-framed colored Jones polynomial of a closure depends only on
    the knot: Markov's theorem, and the mirror reverses q."""

    @settings(max_examples=40, deadline=None)
    @given(knotted_words(), st.integers(1, 3), st.data())
    def test_conjugation(self, b, m, data):
        k = data.draw(st.integers(1, b.strands - 1)) * data.draw(st.sampled_from((1, -1)))
        conj = BraidWord(b.strands, (k,) + b.word + (-k,))
        assert colored_jones_zero_framed(conj, m) == colored_jones_zero_framed(b, m)

    @settings(max_examples=40, deadline=None)
    @given(knotted_words(), st.integers(1, 3), st.sampled_from((1, -1)))
    def test_markov_stabilization(self, b, m, sign):
        n = b.strands
        stab = BraidWord(n + 1, b.word + (sign * n,))
        assert colored_jones_zero_framed(stab, m) == colored_jones_zero_framed(b, m)

    @settings(max_examples=40, deadline=None)
    @given(knotted_words(), st.integers(1, 3))
    def test_mirror(self, b, m):
        mirrored = BraidWord(b.strands, tuple(-g for g in b.word))
        assert colored_jones_zero_framed(mirrored, m) == mirror(colored_jones_zero_framed(b, m))
