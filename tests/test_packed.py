"""The packed-int braid engine against the dict-polynomial gate loop, and
the dict-polynomial route of qgroup on the Y_m^+- against the same
oracle."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from logjones import cli, jones, qgroup
from logjones.jones import BraidWord, braid_operator, build_Wm, colored_jones, parse_braid, quantum_trace
from logjones.qcalc import _KRON_LEAF, LaurentPoly, RootContext, kron_pack, kron_unpack, qint
from logjones.qgroup import build_modified
from conftest import (basis_rescaled, dict_braid_operator, dict_eta_partial_trace, dict_partial_trace,
                      dict_quantum_trace, knotted_words, traced_block)


def dict_trace(b, m):
    V = build_Wm(m)
    entries, den = dict_braid_operator(b, V)
    return dict_quantum_trace(entries, V, b.strands) / den


def assert_same(packed, reference):
    assert packed.terms == reference.terms
    assert all(type(c) is int for c in packed.terms.values())


@pytest.mark.parametrize("word, m_max", [
    ("2: 1 1 1", 8),
    ("2: -1 -1 -1", 8),
    ("2: 1 1 1 1 1 1 1", 8),
    ("2: -1 -1 -1 -1 -1", 8),
    ("2: 1 -1 1", 8),
    ("2: 1 1 -1 1 1", 8),
    ("3: 1 -2 1 -2", 6),
    ("3: 1 1 1 2", 6),
    ("3: 1 1 1 -2", 6),
])
def test_packed_matches_dict_path(word, m_max):
    b = parse_braid(word)
    for m in range(1, m_max + 1):
        assert_same(colored_jones(b, m), dict_trace(b, m))


def test_negative_packed_total():
    # the mirror trefoil's trace has a negative top coefficient, so the
    # packed total is negative and its top digit is below zero
    b = parse_braid("2: -1 -1 -1")
    v = colored_jones(b, 2)
    assert v.terms[v.degree2()] < 0
    assert_same(v, dict_trace(b, 2))


@pytest.mark.parametrize("m", range(1, 7))
def test_unknot(m):
    assert_same(colored_jones(BraidWord(1, ()), m), qint(m))


@settings(max_examples=30, deadline=None)
@given(knotted_words(), st.integers(1, 4))
def test_packed_matches_dict_path_random(b, m):
    assert_same(colored_jones(b, m), dict_trace(b, m))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-40, 40), st.integers(-10**6, 10**6).filter(bool), max_size=12),
       st.integers(-9, 9))
def test_pack_unpack_round_trip(coeffs, lo):
    # digits sit at doubled exponents lo + 4k; W leaves one bit of sign room
    p = LaurentPoly({lo + 4 * (e + 40): c for e, c in coeffs.items()})
    width = 21
    assert kron_unpack(kron_pack(p.terms, lo, 4, width), lo, 4, width) == p.terms


def test_trace_unpack_splits_its_digits():
    # the one block of T(2,7) at m = 8 that colored_jones decodes holds more
    # digits than one leaf of the unpack, which splits it and must still
    # give the dict path's poly
    b = parse_braid("2: 1 1 1 1 1 1 1")
    block, (_, _, width) = jones._traced_block(braid_operator(b, build_Wm(8)))
    assert block.bit_length() > 2 * _KRON_LEAF * width
    assert_same(colored_jones(b, 8), dict_trace(b, 8))


@pytest.mark.parametrize("word, m", [("3: 1 -2 1 -2", 4), ("3: 1 1 1 2", 5), ("3: -1 -1 2 -1 2", 3),
                                     ("4: 1 -2 3 1 -2", 3)])
def test_digit_width_bounds_the_block_of_every_prefix(word, m):
    # the width of each prefix's operator bounds the one block it decodes,
    # block (0, 0) of the dict oracle's partial trace, which is that block
    b = parse_braid(word)
    V = build_Wm(m)
    widest = 0
    for k in range(len(b.word) + 1):
        prefix = BraidWord(b.strands, b.word[:k])
        op = braid_operator(prefix, V)
        entries, _ = dict_braid_operator(prefix, V)
        block = dict_partial_trace(entries, V, b.strands)[0][0]
        assert traced_block(op) == block
        seen = max(abs(c) for c in block.terms.values())
        assert seen.bit_length() < op.layout[2], k
        widest = max(widest, seen)
    assert widest > 1


def oracle_rep(label):
    """W3, W4 or Y<m><sign>_N<N> as a WeightRep."""
    if label[0] == "W":
        return build_Wm(int(label[1:]))
    return build_modified(1 if label[2] == "+" else -1, int(label[1]), int(label[-1]))[0]


# 3-strand words only where the tensor cube stays small enough for the dict
# loop; words of length 1, 3 and 5, of one sign and of both
ORACLE_CASES = [
    (rep, word)
    for rep in ("Y1+_N2", "Y1-_N2", "Y1+_N3", "Y2+_N3", "Y1-_N3", "Y2-_N3", "W3", "W4")
    for word in ("2: 1 1 1", "2: -1 -1 -1", "3: 1 -2 1 -2", "3: -1 2",
                 "3: 1", "3: 1 -2 1", "2: 1 1 1 1 1")
    if "-" not in rep or rep.endswith("N2") or word.startswith("2")
]


@pytest.mark.parametrize("rep, word", ORACLE_CASES)
def test_packed_traces_equal_dict_oracle(rep, word):
    # the partial trace of qgroup's dict route, on every column, and its
    # denominator, term for term (Y2-_N3 has a {n}! denominator); on W_m
    # also the packed block (0, 0) and trace, while the packed engine
    # refuses every Y_m^+-
    V = oracle_rep(rep)
    b = parse_braid(word)
    entries, dict_den = dict_braid_operator(b, V)
    reference = dict_partial_trace(entries, V, b.strands)
    traced, den = qgroup._partial_trace_over_den(b, V)
    assert den == dict_den
    for i in range(V.dim):
        for j in range(V.dim):
            assert traced[i][j].terms == reference[i][j].terms
    if rep[0] == "W":
        op = braid_operator(b, V)
        assert traced_block(op) == reference[0][0]
        assert_same(quantum_trace(op), dict_quantum_trace(entries, V, b.strands))
    else:
        with pytest.raises(ValueError):
            braid_operator(b, V)


@settings(max_examples=30, deadline=None)
@given(knotted_words(), st.integers(2, 3))
def test_partial_trace_matches_dict_oracle_random(b, m):
    # on W_m the oracle's partial trace is the scalar block (0, 0) that
    # the packed engine decodes
    V = build_Wm(m)
    entries, _ = dict_braid_operator(b, V)
    reference = dict_partial_trace(entries, V, b.strands)
    block = traced_block(braid_operator(b, V))
    for i in range(m):
        for j in range(m):
            assert reference[i][j].terms == (block.terms if i == j else {})


@settings(max_examples=30, deadline=None)
@given(knotted_words(max_strands=4), st.integers(1, 4))
def test_one_column_trace_equals_every_column_trace(b, m):
    # W_m is irreducible, so by Schur's lemma [m] times the one block that
    # colored_jones decodes is the trace sum_a K_a block(a, a) of the dict
    # oracle's operator on every column
    V = build_Wm(m)
    one_column = colored_jones(b, m)
    assert_same(one_column, quantum_trace(braid_operator(b, V)))
    entries, _ = dict_braid_operator(b, V)
    assert_same(one_column, dict_quantum_trace(entries, V, b.strands))


def test_partial_trace_on_y_is_not_scalar():
    # the negative control: Y_1^- at N = 3 is indecomposable, not
    # irreducible, so its partial trace is no multiple of the identity and
    # its trace is not its quantum dimension times one block, although the
    # trefoil's den is 1 there; so the packed engine, which decodes block
    # (0, 0) alone, braids only the W_m that build_Wm marks
    V = build_modified(-1, 1, 3)[0]
    b = parse_braid("2: 1 1 1")
    traced, den = qgroup._partial_trace_over_den(b, V)
    assert den == LaurentPoly.const(1)
    off_diagonal = [(i, j) for i in range(V.dim) for j in range(V.dim) if i != j and traced[i][j]]
    assert off_diagonal or len({tuple(sorted(traced[i][i].terms.items())) for i in range(V.dim)}) > 1
    qdim = sum((LaurentPoly({2 * w: 1}) for w in V.weights), LaurentPoly())
    entries, _ = dict_braid_operator(b, V)
    assert dict_quantum_trace(entries, V, b.strands) != traced[0][0] * qdim
    with pytest.raises(ValueError):
        braid_operator(b, V)


def test_braid_operator_refuses_unmarked_reps():
    # Y_1^- at N = 3, and a W_2 built by ladder_rep without the mark of
    # build_Wm: equal as a WeightRep, still refused
    for V in (build_modified(-1, 1, 3)[0], jones.ladder_rep([("f", 1, 2)])[0]):
        with pytest.raises(ValueError):
            braid_operator(parse_braid("3: 1 -2 1 -2"), V)
    assert jones.ladder_rep([("f", 1, 2)])[0] == build_Wm(2)


def test_non_integral_braiding_is_refused(monkeypatch):
    # a braiding over a den other than 1 never reaches the packed ints:
    # braid_operator refuses the Y_m^+-, and the dict route of qgroup
    # carries the product of the braidings' dens beside its numerators.
    # The halved braiding is that of Y_1^- at N = 3, whose own den is 1
    real = jones.braiding

    def halved(V, sign):
        op, den = real(V, sign)
        return op, den * 2

    V = build_modified(-1, 1, 3)[0]
    b = parse_braid("2: 1 1 1")
    traced, den = qgroup._partial_trace_over_den(b, V)
    assert den == LaurentPoly.const(1)
    monkeypatch.setattr(jones, "braiding", halved)
    assert qgroup._partial_trace_over_den(b, V) == (traced, LaurentPoly.const(8))
    with pytest.raises(ValueError):
        braid_operator(b, V)


@pytest.mark.parametrize("knot, m, sign, N", [("3_1", 1, 1, 3), ("3_1", 1, -1, 3), ("3_1", 2, 1, 5)])
def test_eta_partial_trace_equals_dict_oracle(knot, m, sign, N):
    # bit for bit: the dict route on one open index at a time, through
    # _apply_local, against the full operator of the conftest gate loop
    ctx = RootContext(N)
    b = jones.KNOT_CATALOG[knot]
    at_xi = qgroup.eta_partial_trace(b, m, sign, ctx)[0]
    reference = dict_eta_partial_trace(b, m, sign, ctx)
    assert [[(v.real._mpf_, v.imag._mpf_) for v in row] for row in at_xi] == \
        [[(v.real._mpf_, v.imag._mpf_) for v in row] for row in reference]


def closed_form_gate_mismatches(m, sign):
    """The keys where the packed closed-form gate of sign on W_m, decoded
    by kron_unpack under its layout, differs from the entry of the
    dict-polynomial braiding after basis_rescaled, or where only one of
    the two has an entry."""
    V = build_Wm(m)
    op, den = jones.braiding(V, sign)
    reference = basis_rescaled(op, V)
    assert den == LaurentPoly.const(1)
    gates = jones._wm_gates(m, sign)
    # a width one bit above every entry's L1 norm decodes it, whatever the
    # trace bound of a word would be
    width = max(sum(map(abs, v.terms.values())) for v in reference.values()).bit_length() + 1
    packed, lo, step = jones._packed_gates({sign: gates}, width)
    decoded = {k: kron_unpack(v, lo[sign], step, width) for k, v in packed[sign].items()}
    return sorted(k for k in decoded.keys() | reference.keys()
                  if k not in decoded or k not in reference or decoded[k] != reference[k].terms)


@pytest.mark.parametrize("sign", [1, -1])
def test_closed_form_gates_equal_dict_braiding(sign):
    for m in range(1, 11):
        assert not closed_form_gate_mismatches(m, sign), m


def test_moved_qbinom_monomial_fails_the_gate_oracle(monkeypatch):
    # the negative control: [4 over 2] with its top monomial moved one
    # step up must show in some gate of W_5, and only there
    real = jones._qbinom_factor
    closed_form_gate_mismatches(5, 1)  # fill the tables from the real rule
    entry = real(4, 2).poly
    top = entry.degree2()
    moved = LaurentPoly({**{e: c for e, c in entry.terms.items() if e != top},
                         top + 4: entry.terms[top]})
    monkeypatch.setattr(jones, "_qbinom_factor",
                        lambda i, n: jones._Factor(moved) if (i, n) == (4, 2) else real(i, n))
    for sign in (1, -1):
        mismatches = closed_form_gate_mismatches(5, sign)
        assert mismatches
        assert all(divmod(c, 5)[0 if sign > 0 else 1] == 4 for _, c in mismatches)


def test_colored_jones_builds_no_dict_braiding(monkeypatch):
    # the guard: with the dict-polynomial braiding gone, colored_jones and
    # the CLI runs that trace braid words still succeed, so the W_m path
    # cannot fall back to it unseen
    def forbidden(*args, **kwargs):
        raise AssertionError("a W_m braiding went through the dict-polynomial path")

    b = parse_braid("3: 1 -2 1 -2")
    expected = dict_trace(b, 3)
    monkeypatch.setattr(jones, "braiding", forbidden)
    monkeypatch.setattr(jones, "rmatrix_terms", forbidden)
    assert_same(colored_jones(b, 3), expected)
    for argv in (["loginv", "--braid", "2: 1 1 1", "--N", "3"],
                 ["jones", "--braid", "2: 1 1 1 1 1", "--max-m", "8"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
