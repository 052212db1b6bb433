"""Colored Jones invariants of braid-closure knots.

Builds every weight representation, W_m and the modules of qgroup, by
one rule (ladder_rep): ladders with K f_n = q^{t-2n} f_n and
EF = [n][t+1-n] on their rungs, the factor [t+1-n] on F for W_m and
Y_m^+- and on E for U, V and P, plus links between ladders.  Over exact
Laurent polynomials it builds the universal R-matrix action on them and
the braid group representation on tensor powers.  The braiding at a
positive crossing is P (factor swap) composed after R; a negative
crossing uses the inverse braiding.  On W_m each braiding entry has a
closed form, a monomial times the q-binomial [i over n] and the falling
product {a}{a-1}...{a-n+1}, read from two tables that every color shares
and formed as one product of Kronecker-packed ints.  W_m is irreducible,
so by Schur's lemma the partial trace over the closed factors is a
scalar: braid_operator, which braids W_m alone, applies the word to the
columns (0, t) of the open factor's highest-weight vector, and V_m is [m]
times that one block, the (1,1)-tangle form of the invariant.  The
indecomposable Y_m^+- break Schur's lemma: qgroup.eta_partial_trace runs
their dict-polynomial braiding through the same gate step, _apply_local,
on every column.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from .qcalc import (InexactDivisionError, LaurentPoly, brace, brace_fact, brace_falling, kron_pack,
                    kron_unpack, qbinom, qfact, qint)


class FeasibilityError(RuntimeError):
    """Requested computation exceeds one of the documented size bounds: a
    tensor dimension above EXACT_DIM_CAP, a qgroup verification at N above
    qgroup.MAX_VERIFY_N, loginv at N above loginv.MAX_N, a volume scan
    above the bound of volume.check_scan, or habiro --imax above
    cli.MAX_IMAX."""


class LinkNotKnotError(ValueError):
    """Braid closure has more than one component."""


# Tensor dimension cap for braid_operator on W_m and for the dict route
# of qgroup.eta_partial_trace on Y_m^+-.  On a shared 2-vCPU Xeon the
# latter takes 10-14 s and 76 MB for 4_1 on the 1728-dim cube of Y_1^- at
# N = 3, every column, and colored_jones of 4_1 at m = 12 (1728 dims),
# one open column, 0.13 s and 28 MB.  loginv traces colors 1..N, so the
# cap reaches
# N = 12 on 3-strand words: a whole loginv --braid "3: 1 -2 1 -2"
# process takes 0.14 s and 22 MB at N = 6, 0.16 s and 22 MB at N = 8,
# 0.22 s and 24 MB at N = 10 and 0.40 s and 30 MB at N = 12 (1728 dims),
# and refuses N = 13 (2197 dims); "3: 1 1 1 2 -1 2" takes 2.7 s and
# 57 MB at N = 12.  A word above the cap is refused with
# FeasibilityError before any trace.
EXACT_DIM_CAP = 1800


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A braid given by strand count and a word in signed Artin generators.

    word entries are +/-k for sigma_k^{+/-1}, 1 <= k < strands.  The
    writhe (sum of signs) is the framing of the closure.
    """

    strands: int
    word: tuple
    name: str = ""

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strands must be >= 1")
        for g in self.word:
            if g == 0 or abs(g) >= self.strands:
                raise ValueError(f"generator {g} out of range for {self.strands} strands")

    @property
    def writhe(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.word)

    def permutation(self):
        """Underlying permutation of strand endpoints (as a tuple image)."""
        perm = list(range(self.strands))
        for g in self.word:
            k = abs(g) - 1
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
        return tuple(perm)

    def closure_components(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for i in range(self.strands):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return cycles

    def is_knot(self) -> bool:
        return self.closure_components() == 1


KNOT_CATALOG = {
    "unknot": BraidWord(1, (), name="unknot"),
    "3_1": BraidWord(2, (1, 1, 1), name="3_1"),
    "4_1": BraidWord(3, (1, -2, 1, -2), name="4_1"),
}


def parse_braid(text: str) -> BraidWord:
    """Parse 'n: i1 i2 ...' braid notation, e.g. '3: 1 -2 1 -2' for 4_1."""
    if text in KNOT_CATALOG:
        return KNOT_CATALOG[text]
    head, _, tail = text.partition(":")
    try:
        strands = int(head.strip())
        word = tuple(int(t) for t in tail.split())
    except ValueError as exc:
        raise ValueError(f"cannot parse braid {text!r}; expected 'n: i1 i2 ...'") from exc
    return BraidWord(strands, word, name=text)


@dataclasses.dataclass(frozen=True)
class WeightRep:
    """A weight representation by its E and F actions over LaurentPoly.

    E and F are sparse maps {(row, col): entry} holding only nonzero
    entries; entry (i, j) is the coefficient of basis vector i in the image
    of basis vector j.  K is diagonal with entries q^{weights[j]}.
    """

    dim: int
    E: dict
    F: dict
    weights: tuple
    # built once and shared, never mutated: E^n and {1}^n F^n (_rep_powers),
    # E^n / qcalc.qfact(n) (_divided_powers), the least orders at xi per
    # context (qgroup._vanishing_profile); and build_Wm's mark "Wm"
    _memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)


def ladder_rep(ladders, e_links=(), f_links=(), split=True):
    """The ladders (c, t, d) laid end to end as a WeightRep, and its labels.

    Ladder c of top weight t and length d has the basis c0..c{d-1} = f_n
    with K f_n = q^{t-2n} f_n, and E F f_n = [n][t+1-n] f_n on its own
    rungs.  With split, as on W_m and Y_m^+-, E f_n = [n] f_{n-1} and
    F f_n = [t-n] f_{n+1}; without, as on the displays of U, V and P,
    E f_n = [n][t+1-n] f_{n-1} and F f_n = f_{n+1}.  An entry that is 0
    is left out.  A link (src, dst, p) of e_links (f_links) adds p dst
    to the image of src under E (F); it is entered right after src's own
    rung, so E and F hold each column's entries together, in basis order.
    """
    one = LaurentPoly.const(1)
    labels, weights, rungs = [], [], []
    for c, t, d in ladders:
        labels += [f"{c}{n}" for n in range(d)]
        weights += [t - 2 * n for n in range(d)]
        rungs += [(t, n, d) for n in range(d)]
    pos = {lab: i for i, lab in enumerate(labels)}

    def by_src(links):
        out = {}
        for src, dst, p in links:
            out.setdefault(pos[src], []).append(((pos[dst], pos[src]), p))
        return out

    e_by_src, f_by_src = by_src(e_links), by_src(f_links)
    E, F = {}, {}
    for j, (t, n, d) in enumerate(rungs):
        e = (qint(n) if split else qint(n) * qint(t + 1 - n)) if n else None
        f = (qint(t - n) if split else one) if n + 1 < d else None
        if e:
            E[(j - 1, j)] = e
        E.update(e_by_src.get(j, ()))
        if f:
            F[(j + 1, j)] = f
        F.update(f_by_src.get(j, ()))
    return WeightRep(len(labels), E, F, tuple(weights)), labels


def build_Wm(m: int) -> WeightRep:
    """The irreducible W_m, one ladder: E f_i = [i] f_{i-1},
    F f_i = [m-1-i] f_{i+1}, K f_i = q^{m-1-2i} f_i."""
    if m < 1:
        raise ValueError("m must be >= 1")
    V = ladder_rep([("f", m - 1, m)])[0]
    # the one mark of W_m: braid_operator braids only a rep that carries
    # it, from the closed form of _wm_gates, not from E and F
    V._memo["Wm"] = m
    return V


# -- sparse operators on tensor powers ---------------------------------


def mat_mul(a: dict, b: dict) -> dict:
    """The product of two matrices given as sparse maps {(row, col): entry}.

    Entries only meet ``*``, ``+`` and truthiness, so LaurentPoly and mpc
    entries both work.  Each entry is summed over increasing inner index,
    and entries that come out zero are dropped."""
    b_rows = {}
    for (k, j), y in b.items():
        b_rows.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in sorted(a.items()):
        for j, y in b_rows.get(k, ()):
            s = out.get((i, j))
            out[(i, j)] = x * y if s is None else s + x * y
    return {key: v for key, v in out.items() if v}


@dataclasses.dataclass
class TensorOperator:
    """The operator of a braid word on rep^{(x) strands}, on the columns
    its gate loop started from: a sparse map {(row, col): entry} keyed by
    flat indices, factor 0 the most significant base-dim digit.  In
    braid_operator the columns are (0, t) and each entry, in the basis of
    _wm_gates, is packed under layout = (lo, step, width) as the int sum
    of c_k 2^(width*k) over its coefficients c_k at doubled exponents
    lo + step*k; width bounds the digits of the traced block alone.  The
    L1-norm operators of _digit_width have width 0, and the LaurentPoly
    operators of qgroup.eta_partial_trace layout None."""

    rep: WeightRep
    strands: int
    entries: dict
    layout: tuple | None


def tensor_of(a: dict, b: dict, d2: int) -> dict:
    """Kronecker product of two sparse maps, the second of dimension d2."""
    return {(i1 * d2 + i2, j1 * d2 + j2): x * y
            for (i1, j1), x in a.items() for (i2, j2), y in b.items()}


def _mat_powers(mat: dict, dim) -> list:
    """mat^0, mat^1, ... up to the last nonzero power of a sparse map;
    dim+1 of them when mat is not nilpotent."""
    power = mat
    powers = [{(i, i): LaurentPoly.const(1) for i in range(dim)}]
    while len(powers) <= dim and power:
        powers.append(power)
        power = mat_mul(power, mat)
    return powers


def _rep_powers(V: WeightRep):
    """(E^n, {1}^n F^n) of V, built on first use and kept in V._memo.

    Each is a tuple over n below the nilpotency order of E (of F for the
    second) of sparse maps."""
    powers = V._memo.get("rmatrix")
    if powers is None:
        e_pow = tuple(_mat_powers(V.E, V.dim))
        brace1 = brace(1)
        scale = LaurentPoly.const(1)
        f_scaled = []
        for n, fn in enumerate(_mat_powers(V.F, V.dim)):
            scale = scale * brace1 if n else scale
            f_scaled.append({k: v * scale for k, v in fn.items()})
        powers = V._memo["rmatrix"] = (e_pow, tuple(f_scaled))
    return powers


def _divided_powers(V: WeightRep):
    """The divided powers E^(n) = E^n/[n]! of V over the E^n of
    _rep_powers, built on the first rmatrix_terms call and kept in V._memo;
    None where some entry of E^n does not divide exactly by [n]!, as at
    some n on Y_m^+-."""
    e_div = V._memo.get("divided")
    if e_div is None:
        e_div = []
        for n, en in enumerate(_rep_powers(V)[0]):
            fact = qfact(n)
            try:
                e_div.append({k: v / fact for k, v in en.items()})
            except InexactDivisionError:
                e_div.append(None)
        e_div = V._memo["divided"] = tuple(e_div)
    return e_div


def rmatrix_terms(V1: WeightRep, V2: WeightRep, inverse: bool = False):
    """Summands of R = q^{H(x)H/2} Theta, or of R^{-1} = Theta^{-1} q^{-H(x)H/2}
    when inverse=True, truncated at the joint nilpotency order, where

        Theta      = sum_n q^{n(n-1)/2} ({1}^{2n}/{n}!) E^n (x) F^n,
        Theta^{-1} = sum_n (-1)^n q^{-n(n-1)/2} ({1}^{2n}/{n}!) E^n (x) F^n

    (Kirby-Melvin, Invent. Math. 105 (1991); Kassel, Quantum Groups,
    GTM 155).  The diagonal Cartan factor scales rows of R (each summand is
    shifted by w1*w2 of its row) and columns of R^{-1} (by -w1*w2 of its
    column).

    Yields (n, term, den), term a sparse map on V1 (x) V2.  As
    {n}! = {1}^n [n]!, summand n is the tensor product of the divided
    power E^(n) on V1 and {1}^n F^n on V2, both built once per
    representation, times q^{+-n(n-1)/2}; den is 1.
    Where E^(n) is not exact on V1 the entries of E^n (x) {1}^n F^n are
    divided by [n]!, and when one of them does not divide (some
    modified-representation pairs) the term is the raw numerator
    {1}^{2n} E^n (x) F^n times the monomial and den = {n}!, whose q -> xi
    limits exist by the specialization property.
    """
    e_pow, e_div = _rep_powers(V1)[0], _divided_powers(V1)
    f_scaled = _rep_powers(V2)[1]
    d2 = V2.dim
    w1, w2 = V1.weights, V2.weights
    one = LaurentPoly.const(1)
    for n in range(min(len(e_pow), len(f_scaled))):
        den = one
        if e_div[n] is not None:
            body = tensor_of(e_div[n], f_scaled[n], d2)
        else:
            body = tensor_of(e_pow[n], f_scaled[n], d2)
            fact = qfact(n)
            try:
                body = {k: v / fact for k, v in body.items()}
            except InexactDivisionError:
                scale = brace(1) ** n
                body = {k: v * scale for k, v in body.items()}
                den = brace_fact(n)
        negate = inverse and n % 2
        sign = -1 if inverse else 1
        entries = {}
        for (r, c), v in body.items():
            k = c if inverse else r  # the Cartan factor's row or column
            entries[(r, c)] = (-v if negate else v).shift(
                sign * (n * (n - 1) + w1[k // d2] * w2[k % d2]))
        yield n, entries, den


def rmatrix(V1: WeightRep, V2: WeightRep, inverse: bool = False):
    """The action of R, or of R^{-1} when inverse=True, as (sparse map,
    scalar denominator): the summands of rmatrix_terms over their least
    common {K}! denominator."""
    terms = list(rmatrix_terms(V1, V2, inverse))
    one = LaurentPoly.const(1)
    common = max((den for _, _, den in terms), key=lambda p: len(p.terms) + (p.degree2() or 0))
    out = {}
    for _, term, den in terms:
        factor = common / den  # {K}!/{n}! is a polynomial
        scaled = factor != one
        for k, v in term.items():
            v = v * factor if scaled else v
            s = out.get(k)
            out[k] = v if s is None else s + v
    return {k: v for k, v in out.items() if v}, common


def braiding(V: WeightRep, sign: int):
    """P o R (sign=+1) or its inverse (sign=-1) on V (x) V as (sparse map,
    denominator)."""
    d = V.dim
    r, den = rmatrix(V, V, inverse=sign < 0)
    if sign > 0:
        # P o R: swap the factors of each row
        return {((row % d) * d + row // d, c): v for (row, c), v in r.items()}, den
    # (P o R)^{-1} = R^{-1} o P: swap the factors of each column
    return {(row, (c % d) * d + c // d): v for (row, c), v in r.items()}, den


def _check_dim(total: int):
    if total > EXACT_DIM_CAP:
        raise FeasibilityError(f"tensor dimension {total} exceeds the exact-path bound {EXACT_DIM_CAP}")


def _by_col(entries: dict) -> dict:
    """Local gate entries {(r, c): v} grouped as {c: [(r, v), ...]}."""
    by_col = {}
    for (r, c), v in entries.items():
        by_col.setdefault(c, []).append((r, v))
    return by_col


# -- braid operators on Kronecker-packed integers ---------------------------
# Each gate entry is a sign, a monomial and a product of factors; each factor
# is packed once (qcalc.kron_pack), and the entry is their int product,
# shifted into place.  The exponent offsets add along the word, and one
# kron_unpack decodes the traced block.


class _Factor:
    """A factor of gate entries: its polynomial, its lowest doubled
    exponent lo, the gcd step of its exponents above lo (0 for a
    monomial) and its L1 norm.  Hashed by identity, so a factor that many
    entries share is packed once per braid operator."""

    __slots__ = ("poly", "lo", "step", "l1")

    def __init__(self, p: LaurentPoly):
        lo = min(p.terms)
        self.poly, self.lo = p, lo
        self.step = math.gcd(*(e - lo for e in p.terms))
        self.l1 = sum(map(abs, p.terms.values()))


@functools.cache
def _qbinom_factor(i: int, n: int) -> _Factor:
    """[i over n] (qcalc.qbinom) for 0 <= n <= i, the entry of the divided
    power E^(n) of W_m on f_i.  It does not depend on m, so every color
    shares it."""
    return _Factor(qbinom(i, n))


@functools.cache
def _falling_factor(a: int, n: int) -> _Factor:
    """{a, n} = {a}{a-1}...{a-n+1} = {1}^n [a][a-1]...[a-n+1] for
    0 <= n <= a, the entry of {1}^n F^n on f_j of W_m with a = m-1-j.  It
    does not depend on m, so every color shares it."""
    return _Factor(brace_falling(a, n))


def _wm_gates(m: int, sign: int) -> dict:
    """The braiding of sign on W_m (x) W_m, from its closed form, in a
    rescaled basis, as {(r, c): (coef, shift, factors)}: the entry
    coef q^{shift/2} [i over n] {a}{a-1}...{a-n+1}.

    Summand n of rmatrix_terms sends f_i (x) f_j to f_{i-n} (x) f_{j+n}
    times E^(n) f_i = [i over n] f_{i-n}, {1}^n F^n f_j =
    {a}...{a-n+1} f_{j+n} with a = m-1-j, and the monomials of
    rmatrix_terms: q^{n(n-1)/2} and the Cartan factor of its row for R,
    (-1)^n q^{-n(n-1)/2} and the Cartan factor of its column for R^-1.
    Each pair (i, j), n lands in its own entry, so no entry is a sum.
    braiding then swaps the factors of each row of R, or of each column
    of R^-1.

    The basis is f_i -> q^{psi_p(i)/2} f_i in tensor factor p, with
    psi_p(i) = (i mod 2) + (2p*i if m is even), which commutes with K
    and is the same at every pair of factors, as k + l = i + j.  It puts
    all exponents in one class mod 4, which halves the packed width."""
    w = [m - 1 - 2 * x for x in range(m)]
    odd = 2 if m % 2 == 0 else 0  # the weights are odd when m is even
    gates = {}
    for i in range(m):
        for j in range(m):
            a = m - 1 - j
            for n in range(min(i, a) + 1):
                k, l = i - n, j + n
                factors = (_qbinom_factor(i, n), _falling_factor(a, n))
                parity = (k & 1) + (l & 1) - (i & 1) - (j & 1)
                if sign > 0:
                    gates[(l * m + k, i * m + j)] = (
                        1, n * (n - 1) + w[k] * w[l] + parity + odd * (k - j), factors)
                else:
                    gates[(k * m + l, j * m + i)] = (
                        -1 if n % 2 else 1, parity + odd * (l - i) - n * (n - 1) - w[i] * w[j], factors)
    return gates


def _word_product(b: BraidWord, V: WeightRep, local_by_sign: dict, layout) -> TensorOperator:
    """The gate loop of the packed engine: the local gates
    local_by_sign[sign] (grouped by column) of the whole word b on
    V^{(x) n}, applied to the d^{n-1} columns (0, t) of the identity, flat
    index t.  Its entries are packed ints, or the L1 norms of
    _digit_width."""
    d, n = V.dim, b.strands
    op = TensorOperator(V, n, {(t, t): 1 for t in range(d ** (n - 1))}, layout)
    for g in b.word:
        op = _apply_local(op, local_by_sign[1 if g > 0 else -1], abs(g) - 1, d, n)
    return op


def _apply_local(op: TensorOperator, local_by_col, pos, d, n) -> TensorOperator:
    """Left-multiply op by (1 x ... x B x ... x 1) with B at factors pos, pos+1."""
    hi = d ** (n - pos - 2)  # stride of factor pos+1
    out = {}
    for (r, c), v in op.entries.items():
        rest, lowblock = divmod(r, hi * d * d)
        pair, low = divmod(lowblock, hi)
        for (r2, lv) in local_by_col.get(pair, ()):
            key = ((rest * d * d + r2) * hi + low, c)
            prod = lv * v
            s = out.get(key)
            out[key] = prod if s is None else s + prod
    return dataclasses.replace(op, entries={k: v for k, v in out.items() if v})


def _digit_width(b: BraidWord, V: WeightRep, norms: dict) -> int:
    """Digit width W from a proved coefficient bound.

    Kronecker substitution (x -> 2^W) is a ring homomorphism, so every
    packed int of the gate loop is the exact image of its polynomial,
    whatever its digits; an int that cancels to 0 is dropped without
    changing any later product.  Only the one decoded int, the traced
    block (0, 0), needs its coefficients below 2^{W-1}.  The L1 norm is
    subadditive and submultiplicative, so the gate loop run on norms, the
    bounds on the L1 norms of the local entries grouped by column, over
    the same columns, bounds the L1 norm of that block; W is one bit
    above the bound."""
    return _traced_block(_word_product(b, V, norms, (0, 1, 0)))[0].bit_length() + 1


def braid_operator(b: BraidWord, V: WeightRep) -> TensorOperator:
    """The TensorOperator of the braid word b on W_m^{(x) strands}, V the
    W_m of build_Wm, on the columns (0, t), the open factor at its
    highest-weight vector, its entries packed ints from the closed-form
    gates of _wm_gates; the products of the factors' L1 norms bound the
    entries' for _digit_width.  ValueError on any other rep: the Y_m^+-
    have their own route, qgroup.eta_partial_trace."""
    m = V._memo.get("Wm")
    if m is None:
        raise ValueError("braid_operator braids only the W_m of build_Wm")
    _check_dim(V.dim ** b.strands)
    signs = [1 if g > 0 else -1 for g in b.word]
    gates = {sign: _wm_gates(m, sign) for sign in sorted(set(signs))}
    norms = {sign: _by_col({k: math.prod((f.l1 for f in fs), start=abs(coef))
                            for k, (coef, _, fs) in ents.items()})
             for sign, ents in gates.items()}
    width = _digit_width(b, V, norms)
    packed, lo, step = _packed_gates(gates, width)
    local = {sign: _by_col(ents) for sign, ents in packed.items()}
    return _word_product(b, V, local, (sum(lo[s] for s in signs), step, width))


def _packed_gates(gates: dict, width: int):
    """(packed, lo, step): each entry (coef, shift, factors) of gates[sign]
    as one int, packed under the layout (lo[sign], step, width).

    The ends of a product never cancel, so the entry starts at shift plus
    its factors' lo, and lo[sign] is the least start.  Its exponents lie
    on the step of each factor from that start, so the step is the gcd of
    4, the factors' steps and the starts above lo.  It divides 4 because
    the trace weights 2*(weight sum - lowest weight sum) are multiples of
    4.  Each factor is packed once, at its own lo, and the entry is coef
    times the factors' int product, shifted up by its start."""
    starts = {sign: {k: shift + sum(f.lo for f in fs) for k, (_, shift, fs) in ents.items()}
              for sign, ents in gates.items()}
    lo = {sign: min(ends.values()) for sign, ends in starts.items()}
    step = math.gcd(4, *{f.step for ents in gates.values() for _, _, fs in ents.values() for f in fs},
                    *(e - lo[sign] for sign, ends in starts.items() for e in ends.values()))
    ints = {}

    def pack(f: _Factor) -> int:
        if f not in ints:
            ints[f] = kron_pack(f.poly.terms, f.lo, step, width)
        return ints[f]

    packed = {sign: {k: coef * math.prod(map(pack, fs)) << width * ((starts[sign][k] - lo[sign]) // step)
                     for k, (coef, _, fs) in ents.items()}
              for sign, ents in gates.items()}
    return packed, lo, step


def _weight_sums(k: int, V: WeightRep) -> list:
    """The weight of every basis vector of V^{(x) k} by flat index: basis
    vector idx has K-eigenvalue q^{_weight_sums(k, V)[idx]}."""
    sums = [0]
    for _ in range(k):
        sums = [s + w for s in sums for w in V.weights]
    return sums


def _traced_block(op: TensorOperator):
    """(block, layout): block (0, 0) = sum_t K_t op[(0, t), (0, t)] of the
    partial quantum trace of the operator of braid_operator over its
    closed factors t, the diagonal entries of its columns (0, t), K_t the
    packed shift by t's weight above the lowest weight sum."""
    V = op.rep
    lo, step, width = op.layout
    k = op.strands - 1
    low = k * min(V.weights)
    shifts = [width * (2 * (w - low) // step) for w in _weight_sums(k, V)]
    block = sum(v << shifts[r] for (r, c), v in op.entries.items() if r == c)
    return block, (lo + 2 * low, step, width)


def quantum_trace(op: TensorOperator) -> LaurentPoly:
    """tr(K^{(x)n} . op) of the operator of braid_operator: by Schur's
    lemma [m] times its one block (0, 0), unpacked once."""
    block, layout = _traced_block(op)
    return LaurentPoly(kron_unpack(block, *layout)) * qint(op.rep.dim)


def check_knot(b: BraidWord):
    """LinkNotKnotError unless the closure of b is a knot."""
    if not b.is_knot():
        raise LinkNotKnotError(f"closure of {b} has {b.closure_components()} components")


def check_trace(b: BraidWord, m: int):
    """Refuse V_m of b before any work: LinkNotKnotError for a link
    closure, FeasibilityError when W_m^{(x) strands} is above
    EXACT_DIM_CAP.  Checking the top color refuses a whole run of colors."""
    check_knot(b)
    _check_dim(m ** b.strands)


def colored_jones(b: BraidWord, m: int) -> LaurentPoly:
    """V_m of the braid closure, carrying framing = writhe: the quantum
    trace of the packed braid operator on W_m.

    Use framing_adjust to pass to the 0-framed invariant.  Raises
    LinkNotKnotError when the closure has more than one component.
    """
    check_trace(b, m)
    return quantum_trace(braid_operator(b, build_Wm(m)))


def framing_adjust(p: LaurentPoly, w: int, m: int) -> LaurentPoly:
    """Convert a framing-w invariant to framing 0: multiply by q^{-(m^2-1)w/2}."""
    return p.shift(-(m * m - 1) * w)


def colored_jones_zero_framed(b: BraidWord, m: int) -> LaurentPoly:
    return framing_adjust(colored_jones(b, m), b.writhe, m)
