"""The packed-int colored Jones path against the dict-polynomial path."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from logjones import jones
from logjones.jones import BraidWord, braid_operator, build_Wm, colored_jones, parse_braid, quantum_trace
from logjones.qcalc import LaurentPoly, kron_pack, kron_unpack, qint


def dict_trace(b, m):
    V = build_Wm(m)
    op, den = braid_operator(b, V)
    return quantum_trace(op, V) / den


def assert_same(packed, reference):
    assert packed.terms == reference.terms
    assert all(type(c) is int for c in packed.terms.values())


@pytest.mark.parametrize("word, m_max", [
    ("2: 1 1 1", 8),
    ("2: -1 -1 -1", 8),
    ("2: 1 1 1 1 1 1 1", 8),
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
    # packed total is negative and the unpack has to borrow
    b = parse_braid("2: -1 -1 -1")
    v = colored_jones(b, 2)
    assert v.terms[v.degree2()] < 0
    assert_same(v, dict_trace(b, 2))


@pytest.mark.parametrize("m", range(1, 7))
def test_unknot(m):
    assert_same(colored_jones(BraidWord(1, ()), m), qint(m))


@st.composite
def knotted_words(draw):
    strands = draw(st.integers(2, 3))
    gens = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    word = tuple(draw(st.lists(gens, min_size=1, max_size=5)))
    b = BraidWord(strands, word)
    assume(b.is_knot())
    return b


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


def test_digit_width_bounds_every_intermediate_entry():
    b = parse_braid("3: 1 -2 1 -2")
    m = 4
    V = build_Wm(m)
    width = jones._digit_width(b, V.dim, jones._integral_braidings(b, V))
    seen = 0
    for k in range(len(b.word) + 1):
        op, _ = braid_operator(BraidWord(b.strands, b.word[:k]), V)
        for v in op.entries.values():
            seen = max(seen, max(abs(c) for c in v.terms.values()))
    trace = dict_trace(b, m)
    seen = max(seen, max(abs(c) for c in trace.terms.values()))
    assert seen > 1
    assert seen.bit_length() < width


def test_non_integral_braiding_is_refused(monkeypatch):
    real = jones.braiding

    def halved(V, sign):
        op, den = real(V, sign)
        return op, den * 2

    monkeypatch.setattr(jones, "braiding", halved)
    with pytest.raises(ArithmeticError):
        colored_jones(parse_braid("2: 1 1 1"), 3)
