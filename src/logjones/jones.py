"""Colored Jones invariants of braid-closure knots.

Builds the m-dimensional highest weight representation and the universal
R-matrix action over exact Laurent polynomials, and the braid group
representation on tensor powers with its quantum and partial traces on
Kronecker-packed ints.  The braiding at a positive crossing is P (factor
swap) composed after R; a negative crossing uses the inverse braiding.
A braid word w = w1 w2 is kept as the operators of its two halves, and
the traces contract them without forming the operator of w.
"""

from __future__ import annotations

import dataclasses
import math

from .qcalc import (InexactDivisionError, LaurentPoly, brace, brace_fact, kron_pack, kron_unpack,
                    qfact, qint)


class FeasibilityError(RuntimeError):
    """Requested exact computation exceeds the documented size bound: a
    tensor dimension above EXACT_DIM_CAP, or a qgroup verification at N
    above qgroup.MAX_VERIFY_N."""


class LinkNotKnotError(ValueError):
    """Braid closure has more than one component."""


# Tensor dimension cap for the packed braid operators, on W_m and on the
# modified representations alike.  On a shared 2-vCPU Xeon, with the two
# half-word operators contracted, the partial trace of 4_1 on the
# 1728-dim cube of Y_1^- at N = 3 takes 0.3 s (1.9 s with the whole word's
# operator), and colored_jones of 4_1 at m = 12 (1728 dims) 1.4 s and
# 93 MB (18.6 s and 317 MB).  loginv traces colors 1..N, so the cap
# reaches N = 12 on 3-strand words: a whole loginv --braid "3: 1 -2 1 -2"
# process takes 0.21 s and 22 MB at N = 6, 0.30 s and 27 MB at N = 8,
# 0.74 s and 42 MB at N = 10 and 2.9 s and 93 MB at N = 12 (1728 dims),
# and refuses N = 13 (2197 dims); "3: 1 1 1 2 -1 2" takes 17 s and 220 MB
# at N = 12.  A word above the cap is refused with FeasibilityError
# before any trace.
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
    # the powers of E and F that rmatrix_terms reads, built once by
    # _rep_powers; shared between callers, which never mutate them
    _memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)


def build_Wm(m: int) -> WeightRep:
    """The irreducible W_m: E f_i = [i] f_{i-1}, F f_i = [m-1-i] f_{i+1},
    K f_i = q^{m-1-2i} f_i."""
    if m < 1:
        raise ValueError("m must be >= 1")
    E = {(i - 1, i): qint(i) for i in range(1, m)}
    F = {(i + 1, i): qint(m - 1 - i) for i in range(m - 1)}
    return WeightRep(m, E, F, tuple(m - 1 - 2 * i for i in range(m)))


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
    """The operator of a braid word (in braid_operator, one half of it) on
    rep^{(x) strands}: a sparse map {(row, col): int} keyed by flat
    indices, factor 0 the most significant base-dim digit.  Each entry is
    its integer Laurent polynomial in the basis of _basis_rescaled, packed
    under layout = (lo, step, width) as the sum of c_k 2^(width*k) over
    its coefficients c_k at doubled exponents lo + step*k.  Only the
    traces are decoded, so width bounds their digits, not the entries'.
    The L1-norm halves of _digit_width have width 0."""

    rep: WeightRep
    strands: int
    entries: dict
    layout: tuple


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
    """(E^n, E^(n), {1}^n F^n) of V, built on first use and kept in V._memo.

    Each is a tuple over n below the nilpotency order of E (of F for the
    last) of sparse maps.
    The divided power E^(n) = E^n/[n]! is None where some entry of E^n
    does not divide exactly by [n]!, as at some n on Y_m^+-."""
    powers = V._memo.get("rmatrix")
    if powers is None:
        e_pow = tuple(_mat_powers(V.E, V.dim))
        e_div = []
        fact = LaurentPoly.const(1)
        for n, en in enumerate(e_pow):
            fact = fact * qint(n) if n else fact
            try:
                e_div.append({k: v / fact for k, v in en.items()})
            except InexactDivisionError:
                e_div.append(None)
        brace1 = brace(1)
        scale = LaurentPoly.const(1)
        f_scaled = []
        for n, fn in enumerate(_mat_powers(V.F, V.dim)):
            scale = scale * brace1 if n else scale
            f_scaled.append({k: v * scale for k, v in fn.items()})
        powers = V._memo["rmatrix"] = (e_pow, tuple(e_div), tuple(f_scaled))
    return powers


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
    e_pow, e_div, _ = _rep_powers(V1)
    f_scaled = _rep_powers(V2)[2]
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
# Each braiding entry is packed once (qcalc.kron_pack); the exponent offsets
# add along the word, and one kron_unpack decodes each trace entry.


def _basis_rescaled(op: dict, V: WeightRep) -> dict:
    """A braiding after the change of basis f_i -> q^{psi_p(t_i)/2} f_i
    in tensor factor p, where t_i = (max weight - weight of f_i)/2 is the
    weight index (i itself on W_m), psi_p(t) = (t mod 2) + 2p*t when the
    weights are odd and psi_p(t) = (t mod 2) when they are even.

    The rescaling is diagonal, so it commutes with K and leaves every
    trace alone, the partial trace too (see partial_trace).  A gate at
    factors p, p+1 keeps the weight, so t_k + t_l = t_i + t_j, and it
    shifts entry ((k, l), (i, j)) by the same amount for every p (the
    basis index sum k + l is not kept on Y_m^+-).  On W_m all exponents
    of the braiding then lie in one class mod 4 instead of mod 2, which
    halves the packed width; the step itself is read off the data."""
    d = V.dim
    t = [(max(V.weights) - w) // 2 for w in V.weights]
    odd = 2 if max(V.weights) % 2 else 0
    out = {}
    for (r, c), v in op.items():
        k, l = divmod(r, d)
        i, j = divmod(c, d)
        out[(r, c)] = v.shift((t[k] & 1) + (t[l] & 1) - (t[i] & 1) - (t[j] & 1) + odd * (t[l] - t[j]))
    return out


def _packing_layout(local: dict):
    """(lo, step): the lowest doubled exponent of each sign's entries and
    the common exponent step.  The step divides 4 because the trace
    weights 2*(weight sum - lowest weight sum) are multiples of 4."""
    lo = {sign: min(e for v in ents.values() for e in v.terms) for sign, ents in local.items()}
    return lo, math.gcd(4, *(e - lo[sign] for sign, ents in local.items()
                             for v in ents.values() for e in v.terms))


def _word_product(n: int, word: tuple, V: WeightRep, local_by_sign: dict, layout) -> TensorOperator:
    """The one gate loop: the product of the local gates local_by_sign[sign]
    (grouped by column) over word on V^{(x) n}, applied to the identity.
    Its entries are packed ints, or the L1 norms of _digit_width."""
    d = V.dim
    op = TensorOperator(V, n, {(i, i): 1 for i in range(d ** n)}, layout)
    for g in word:
        op = _apply_local(op, local_by_sign[1 if g > 0 else -1], abs(g) - 1, d, n)
    return op


def _halves(b: BraidWord, V: WeightRep, local_by_sign: dict, lo: dict, step: int, width: int):
    """(F, S): the products of w1 = w[:h] and w2 = w[h:], h = len(w) // 2,
    so that the word's operator is S F, which is never formed.  Each half
    starts from the identity; its layout's lo is the sum of lo[sign] over
    its own gates."""
    h = len(b.word) // 2
    return tuple(_word_product(b.strands, word, V, local_by_sign,
                               (sum(lo[1 if g > 0 else -1] for g in word), step, width))
                 for word in (b.word[:h], b.word[h:]))


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
    return TensorOperator(op.rep, n, {k: v for k, v in out.items() if v}, op.layout)


def _digit_width(b: BraidWord, V: WeightRep, local: dict) -> int:
    """Digit width W from a proved coefficient bound.

    Kronecker substitution (x -> 2^W) is a ring homomorphism, so every
    packed int of the halves and of their contraction is the exact image
    of its polynomial, whatever its digits; an int that cancels to 0 is
    dropped without changing any later product.  Only the decoded ints,
    the blocks of the partial trace and the trace, need their coefficients
    below 2^{W-1}.  The L1 norm is subadditive and submultiplicative, so
    the halves and the contraction run on the L1 norms of the local
    entries bound the L1 norm of every block, and the sum of the diagonal
    blocks bounds the trace; W is one bit above the largest bound."""
    norms = {sign: _by_col({k: sum(abs(c) for c in v.terms.values()) for k, v in ents.items()})
             for sign, ents in local.items()}
    blocks, _ = _traced_blocks(_halves(b, V, norms, dict.fromkeys(norms, 0), 1, 0), b.strands - 1)
    diag = sum(v for (a, b_), v in blocks.items() if a == b_)  # bounds the trace
    return max(diag, *blocks.values()).bit_length() + 1


def braid_operator(b: BraidWord, V: WeightRep):
    """Representation of the braid word w = w1 w2 on V^{(x) strands},
    returned as ((F, S), den): the TensorOperators of the halves
    w1 = w[:h] and w2 = w[h:], h = len(w) // 2, with packed int entries.
    The operator of w is S F; the traces contract the halves instead of
    forming it.  den is the product of the braidings' {n}! denominators,
    kept outside the ints: 1 on W_m, {2}! or {3}! per crossing on some
    modified representations.  Every division that builds a braiding has
    a divisor with top coefficient +-1, so its entries are ints."""
    _check_dim(V.dim ** b.strands)
    signs = [1 if g > 0 else -1 for g in b.word]
    local, dens = {}, {}
    for sign in sorted(set(signs)):
        op, dens[sign] = braiding(V, sign)
        local[sign] = _basis_rescaled(op, V)
    one = LaurentPoly.const(1)
    den = math.prod((dens[sign] for sign in signs if dens[sign] != one), start=one)
    lo, step = _packing_layout(local)
    width = _digit_width(b, V, local)
    packed = {sign: _by_col({k: kron_pack(v.terms, lo[sign], step, width) for k, v in ents.items()})
              for sign, ents in local.items()}
    return _halves(b, V, packed, lo, step, width), den


def _weight_sums(k: int, V: WeightRep) -> list:
    """The weight of every basis vector of V^{(x) k} by flat index: basis
    vector idx has K-eigenvalue q^{_weight_sums(k, V)[idx]}."""
    sums = [0]
    for _ in range(k):
        sums = [s + w for s in sums for w in V.weights]
    return sums


def _traced_blocks(halves, k: int):
    """The partial quantum trace of S F over its k lowest factors,
    contracted from the halves (F, S) without forming S F:

        block (a, b) = sum_t K_t sum_j S[(a, t), j] F[j, (b, t)]

    over the indices a, b of the other factors and t of the closed ones,
    K_t the packed shift by t's weight above the lowest weight sum.  F's
    entries are grouped by (j, t), one pass over S's entries accumulates
    per (a, b, t), and each key is shifted once.  Returns {(a, b): int}
    and the layout (lo, step, width) of the blocks.  S F keeps weight, so
    a block of unequal weights a, b sums to 0."""
    F, S = halves
    V = F.rep
    lo, step, width = F.layout
    rest = V.dim ** k
    low = k * min(V.weights)
    f_by_jt = {}
    for (j, c), v in F.entries.items():
        b_, t = divmod(c, rest)
        f_by_jt.setdefault((j, t), []).append((b_, v))
    acc = {}
    for (r, j), sv in S.entries.items():
        a, t = divmod(r, rest)
        for b_, fv in f_by_jt.get((j, t), ()):
            key = (a, b_, t)
            s = acc.get(key)
            acc[key] = sv * fv if s is None else s + sv * fv
    shifts = [width * (2 * (w - low) // step) for w in _weight_sums(k, V)]
    blocks = {}
    for (a, b_, t), v in acc.items():
        blocks[(a, b_)] = blocks.get((a, b_), 0) + (v << shifts[t])
    return blocks, (lo + S.layout[0] + 2 * low, step, width)


def quantum_trace(halves, den) -> LaurentPoly:
    """tr(K^{(x)n} . S F) of the halves (F, S) of braid_operator: every
    factor closed by _traced_blocks, unpacked once.  The trace is only
    taken over den = 1, as on W_m; ArithmeticError otherwise."""
    if den != LaurentPoly.const(1):
        raise ArithmeticError(f"braid operator over the denominator {den}: no packed trace")
    blocks, layout = _traced_blocks(halves, halves[0].strands)
    return LaurentPoly(kron_unpack(blocks.get((0, 0), 0), *layout))


def partial_trace(halves):
    """Partial quantum trace over the right n-1 factors of the halves
    (F, S) of braid_operator: (1 x K^{(x)(n-1)}) . S F contracted by
    _traced_blocks into a dense dim x dim matrix of LaurentPoly, the
    numerator over the operator's den, each entry unpacked once.

    The rescaling of _basis_rescaled would move entry (a, b) by
    (t_b mod 2) - (t_a mod 2) doubled exponents on the open factor, but
    the operator keeps weight and the closed factors match, so every
    entry kept has t_a = t_b and the shift is 0."""
    d = halves[0].rep.dim
    blocks, layout = _traced_blocks(halves, halves[0].strands - 1)
    out = [[LaurentPoly() for _ in range(d)] for _ in range(d)]
    for (a, b_), v in blocks.items():
        out[a][b_] = LaurentPoly(kron_unpack(v, *layout))
    return out


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
    trace of the packed braid operator on W_m, whose denominator is 1.

    Use framing_adjust to pass to the 0-framed invariant.  Raises
    LinkNotKnotError when the closure has more than one component.
    """
    check_trace(b, m)
    return quantum_trace(*braid_operator(b, build_Wm(m)))


def framing_adjust(p: LaurentPoly, w: int, m: int) -> LaurentPoly:
    """Convert a framing-w invariant to framing 0: multiply by q^{-(m^2-1)w/2}."""
    return p.shift(-(m * m - 1) * w)


def colored_jones_zero_framed(b: BraidWord, m: int) -> LaurentPoly:
    return framing_adjust(colored_jones(b, m), b.writhe, m)
