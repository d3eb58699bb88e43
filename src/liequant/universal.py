"""Universal spaces for CYBE solutions: normal ordering, coboundaries,
cohomology, and the unique solution of the universal Lie QYB equations.

Elements live in the multi-slot word calculus of unitensor: each formal
pair contributes an "a" atom in one slot and a "b" atom in a later slot.
Inner slots multiply associatively under instantiation, so words there
can be reordered at the cost of commutators; the mixed commutator
[b, a] rewrites through the universal CYBE identity, moving the two
atoms onto their partners.  Normal-ordered terms have every inner slot
of the shape a...a b...b, which spans the direct sum of the F-spaces;
normal_order is the one class map of those spaces, their bases
included.
The coboundaries delta3 and delta4 sum liealg's tables DELTA3 and
DELTA4 over the commutators of a fresh formal pair with the placed
argument, each product a concatenation of the pair's atoms with the
placed slot words, then normal-order.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import linalg
from .bfamily import Obstructed, _live, positive_compositions
from .freealg import LiePoly, leftnormed_basis, leftnormed_words, substitute_letters
from .liealg import DELTA3, DELTA4, coboundary
from .rmatrix import (NonUnique, independent_subset, lambda_table, pair_elem,
                      _relabel_in_order, _shift_pids)
from .scalars import add_term, distribute, pr_legs
from .unitensor import (UElem, a_atom, b_atom, pr_word_product, instantiate_tensor,
                        substitute_pairs)
# not called here: the shuffle-leg class map stays reachable as this alias,
# which bench/tests/check_bench.py expects the tracer to patch
from .unitensor import canonical


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def normal_order(elem):
    """Rewrite so every inner slot is a-atoms then b-atoms; the class.

    Input letters may be Lie monomials; every pair's a-atom must sit in
    an earlier slot than its b-atom.  The output is the class coordinate
    in word form.  The mixed commutator move is the universal three-term
    identity; its instantiation is the CYBE.

    Inside the loop a key is one flat `bytes`: the atom of pair rank n
    and side s is the byte 2n + s, and the byte _SEP ends every slot but
    the last.  Pairs are ranked in the order of their a-atoms; by the
    precondition that is the order of first appearance, so the keys of
    one class meet in one work item, and the rewrite commutes with
    renaming.  One byte per atom caps a term at _MAX_PAIRS pairs (more
    raise ValueError).  Items are taken in decreasing grade (Phi, inv):
    Phi is the sum of the a-atoms' slots minus that of the b-atoms',
    inv the number of b-before-a pairs within slots.  So each class is
    rewritten once, with its full coefficient, and a class whose
    coefficient cancels is never expanded.

    Each input term is read in one pass (`_flat_key`) that checks the
    precondition (AssertionError naming the key), grades and renames;
    the word keys of a term with multi-atom letters are built from that
    flat key (`_expansions`), with no second pass over each.  The
    first mixed pair b_j a_p of a key is one `find` on the kinds of its
    bytes (it cannot sit in the first or last slot), and each child's
    grade is the parent's plus the change of the move, counted on those
    kinds, not a rescan:
      - the swap a_p b_j lowers inv by one;
      - moving a_p next to a_j, in an earlier slot, lowers Phi by the
        slots crossed and inv by the b-atoms before a_p in its slot
        (the slot of a_j is ordered, so no b-atom precedes a_j there);
      - moving b_j next to b_p, in a later slot, lowers Phi by the slots
        crossed; inv loses the a-atoms after b_j in its slot and gains
        those after b_p in its.
    The swap and the move of b_j keep the order of the a-atoms, so those
    children are class keys as they stand.  Moving a_p next to a_j
    rotates the ranks between the two, one `bytes.translate`.

    The rewrite only adds and negates coefficients, and letter expansion
    signs are +-1, so it runs on ints: the input scaled once by D, the
    lcm of its denominators, and the output divided by D.  This function
    is the input pass; `_rewrite` is the loop, which delta3 and delta4
    feed directly with keys they build flat.
    """
    work = {}       # grade -> {flat class key: int coeff, scaled by D}
    D = math.lcm(*(c.denominator for c in elem.terms.values()))

    for k, c in elem.terms.items():
        c = c.numerator * (D // c.denominator)
        for key, grade, sign in _word_keys(k):
            add_term(work.setdefault(grade, {}), key, c * sign)
    return _rewrite(work, elem.legs, D)


def _rewrite(work, legs, D):
    """normal_order's rewrite loop: work maps each grade (Phi, inv) to
    {flat word key: int coeff scaled by D}, the keys renamed in order of
    first appearance; the class, with coefficients divided by D."""
    done = {}
    while work:
        grade = max(work)
        phi, inv = grade
        for k, c in work.pop(grade).items():
            kinds = k.translate(_KIND)
            i = kinds.find(_MIXED)  # b_j at i, a_p at i + 1
            if i < 0:
                add_term(done, k, c)
                continue
            bj, ap = k[i], k[i + 1]
            aj, bp = bj - 1, ap + 1
            add_term(work.setdefault((phi, inv - 1), {}),
                     k[:i] + bytes((ap, bj)) + k[i + 2:], c)
            # [b_j, a_p] in an inner slot rewrites to
            #   - (a_j -> [a_j, a_p] at its slot) x (b_j stays)
            #   - (a_p stays) x (b_p -> [b_j, b_p] at its slot),
            # instantiating to the CYBE for the formal pairs j, p.  The
            # b-atoms before a_p in its slot reach back to the last a-atom
            # or _SEP.
            q = k.index(aj)
            bucket = work.setdefault(
                (phi - k.count(_SEP, q, i),
                 inv - i + max(kinds.rfind(0, 0, i), kinds.rfind(2, 0, i))), {})
            head, tail = k[:q], k[q + 1:i + 1] + k[i + 2:]
            rj, rp = aj >> 1, ap >> 1
            add_term(bucket, (head + bytes((aj, ap)) + tail).translate(
                _rotation(rj + 1, rp)), -c)
            add_term(bucket, (head + bytes((ap, aj)) + tail).translate(
                _rotation(rj, rp)), c)
            q = k.index(bp)
            end = k.find(_SEP, q)
            bucket = work.setdefault(
                (phi - k.count(_SEP, i, q),
                 inv - kinds.count(0, i + 1, k.index(_SEP, i))
                 + kinds.count(0, q + 1, end if end >= 0 else len(k))), {})
            head, tail = k[:i] + k[i + 1:q], k[q + 1:]
            add_term(bucket, head + bytes((bj, bp)) + tail, -c)
            add_term(bucket, head + bytes((bp, bj)) + tail, c)
    return UElem(legs, {
        tuple(tuple(map(_LETTER.__getitem__, w)) for w in k.split(_SEP_BYTES)):
        Fraction(c, D) for k, c in done.items()})


_UNPAIRED = "normal_order needs each pair's a-atom in an earlier slot than its b-atom: %r"
_MAX_PAIRS = 127                # atoms 0..253 stay clear of _SEP
_TOO_MANY = "normal_order handles at most %d pairs per term, not %d"
_SEP = 255
_SEP_BYTES = bytes((_SEP,))
# the kind of each byte: 0 for an a-atom, 1 for a b-atom, 2 for _SEP
_KIND = bytes([x & 1 for x in range(_SEP)] + [2])
_MIXED = bytes((1, 0))          # a b-atom, then an a-atom
_LETTER = tuple(((x >> 1, x & 1),) for x in range(256))
_BYTE = tuple(bytes((x,)) for x in range(256))


@functools.lru_cache(maxsize=None)
def _rotation(lo, hi):
    """The translate table of the renaming that gives rank hi to lo and
    moves the ranks lo..hi-1 up by one."""
    table = bytearray(range(256))
    table[2 * lo:2 * hi + 2] = bytes([*range(2 * lo + 2, 2 * hi + 2), 2 * lo, 2 * lo + 1])
    return bytes(table)


@functools.lru_cache(maxsize=None)
def _shift(rank):
    """The translate table that moves the ranks from `rank` up by one,
    making room for a fresh pair of that rank in a key of at most
    _MAX_PAIRS - 1 pairs."""
    return bytes(x + 2 if 2 * rank <= x < 2 * _MAX_PAIRS - 2 else x for x in range(256))


def _flat_key(k):
    """(flat key, (Phi, inv)) of an input key, its letters read as words,
    in one pass that checks normal_order's precondition, grades and
    renames."""
    names = {}      # pid -> 2 * rank of its a-atom
    out = []
    phi = inv = nbs = 0
    for s, w in enumerate(k):
        if s:
            out.append(_SEP)
        first = 2 * len(names)      # the a-atoms of earlier slots are below it
        nb = 0
        for letter in w:
            for p, side in letter:
                if side:
                    x = names.get(p, first)
                    if x >= first:
                        raise AssertionError(_UNPAIRED % (k,))
                    out.append(x + 1)
                    nb += 1
                else:
                    x = names[p] = 2 * len(names)
                    out.append(x)
                    inv += nb
        phi += s * (len(names) - first // 2 - nb)
        nbs += nb
    if nbs != len(names):
        raise AssertionError(_UNPAIRED % (k,))
    if len(names) > _MAX_PAIRS:
        raise ValueError(_TOO_MANY % (_MAX_PAIRS, len(names)))
    return bytes(out), (phi, inv)


def _word_keys(k):
    """(flat key, (Phi, inv), sign) of every word key of an input key:
    the key itself when its letters are single atoms, else `_expansions`."""
    flat, grade = _flat_key(k)
    if len(flat) + 1 - len(k) == sum(map(len, k)):
        return ((flat, grade, 1),)
    return [(key, (grade[0], inv), sign) for key, inv, sign in _expansions(flat, k)]


def _expansions(flat, k):
    """(flat key, inv, sign) of every word key of expand_letters(k), in
    its order; flat is the flat key of k itself.

    Expanding letters reorders atoms within their slot only, so the
    a-atoms of each slot keep the block of ranks they hold in flat: a
    slot's word choice renames its own block (one slice of a translate
    table) and brings its own count of b-before-a pairs.  Each choice is
    worked out once; the word keys are built slot by slot from them, and
    each is renamed by one translate."""
    choices = []
    first = 0       # 2 * the lowest a-rank of the slot
    for seg, w in zip(flat.split(_SEP_BYTES), k):
        letters, i = [], 0
        for letter in w:
            letters.append(seg[i:i + len(letter)])
            i += len(letter)
        size = 2 * seg.translate(_KIND).count(0)
        slot = []
        for words, sign in distribute(map(leftnormed_words, letters)):
            word = bytes(itertools.chain.from_iterable(words))
            block = bytearray(size)
            n, inv, nb = first, 0, 0
            for x in word:
                if x & 1:
                    nb += 1
                else:
                    block[x - first:x - first + 2] = bytes((n, n + 1))
                    n += 2
                    inv += nb
            slot.append((word, bytes(block), inv, sign))
        choices.append(slot)
        first += size
    keys = [(b"", b"", 0, 1)]
    for s, slot in enumerate(choices):
        glue = _SEP_BYTES if s else b""
        keys = [(key + glue + word, table + block, inv + i, sign * sg)
                for key, table, inv, sign in keys for word, block, i, sg in slot]
    tail = bytes(range(first, 256))
    return [(key.translate(table + tail), inv, sign) for key, table, inv, sign in keys]


# ---------------------------------------------------------------------------
# r-insertions and coboundaries
# ---------------------------------------------------------------------------

def _coboundary(table, x, legs):
    """The class of a liealg coboundary table summed over the commutators
    [r^(s), x^(t)] in `legs` slots, r one formal pair on a fresh pid.

    Slots concatenate, so r^(s) x^(t) is each word key of x with its slot
    segments placed in the slots t and the pair's atoms put in front of
    the segments in the slots s; x^(t) r^(s) puts them behind.  The keys
    are built as flat class keys of normal_order's loop, which takes the
    sum directly (`_rewrite`).  Each term of x is read once by
    `_flat_key` (its precondition and pair cap checked there) and its
    letters expanded once by `_expansions`.  Placing keeps the order of
    the a-atoms; the fresh a-atom takes the rank of the a-atoms before
    it, and the ranks from there up move by one (a cached translate).
    The grade follows by counting: the pair adds s_a - s_b to Phi, the
    b-atoms of its slot to inv when the a-atom goes behind, the a-atoms
    of its slot when the b-atom goes in front.  The table is read in
    order, fronts before backs, and x's word keys in their order, so the
    result is, term for term and in order, that of the same commutators
    placed on tuple keys and normal-ordered."""
    D = math.lcm(*(c.denominator for c in x.terms.values()))
    terms = []      # (a- and b-atom count of each slot of x, its word keys)
    for k, c in x.terms.items():
        c = c.numerator * (D // c.denominator)
        words = _word_keys(k)
        # every word key of k has the slot counts of the first
        segs = words[0][0].split(_SEP_BYTES)
        pairs = (len(words[0][0]) + 1 - len(segs)) // 2
        if pairs >= _MAX_PAIRS:
            raise ValueError(_TOO_MANY % (_MAX_PAIRS, pairs + 1))
        counts = [(na, len(seg) - na) for seg in segs
                  for na in (seg.translate(_KIND).count(0),)]
        terms.append((counts, [(key, inv, c * sign) for key, (_, inv), sign in words]))

    def bracket(s, t):
        sa, sb = s[0] - 1, s[1] - 1
        out = {}
        for behind in (False, True):
            for counts, words in terms:
                na, nb = [0] * legs, [0] * legs
                phi = sa - sb
                for spot, (a, b) in zip(t, counts):
                    na[spot - 1], nb[spot - 1] = a, b
                    phi += (spot - 1) * (a - b)
                rank = sum(na[:sa + behind])
                table = _shift(rank)
                atoms = _BYTE[2 * rank], _BYTE[2 * rank + 1]
                gain = nb[sa] if behind else na[sb]
                for key, inv, c in words:
                    slots = [b""] * legs
                    for spot, seg in zip(t, key.translate(table).split(_SEP_BYTES)):
                        slots[spot - 1] = seg
                    for spot, atom in zip((sa, sb), atoms):
                        slots[spot] = slots[spot] + atom if behind else atom + slots[spot]
                    add_term(out, (phi, inv + gain, _SEP_BYTES.join(slots)),
                             -c if behind else c)
        return out
    work = {}
    for (phi, inv, key), c in coboundary(table, bracket).items():
        work.setdefault((phi, inv), {})[key] = c
    return _rewrite(work, legs, D)


def delta3(x):
    """Coboundary F_n -> F^{Lie,(3)}_{n+1}: the table DELTA3, then normal
    ordering.  x: 2-slot element; output: a 3-slot class."""
    return _coboundary(DELTA3, x, 3)


def delta4(x):
    """Coboundary on 3-slot classes: the table DELTA4, then normal
    ordering.  On the 2-dim degree-2 Lie space, spanned by [r13,r23] and
    [r12,r13], delta4 is injective, so H^3_2 = 0."""
    return _coboundary(DELTA4, x, 4)


# ---------------------------------------------------------------------------
# bases of the Lie coinvariant spaces
# ---------------------------------------------------------------------------

def basis_F(n):
    """Basis of F_n: generators P0 x Q, independent modulo relabeling,
    with P0 = (a0, a1, ..., a(n-1)) and Q over the left-normed b-basis.

    F_n is spanned by every P x Q, P over the left-normed a-basis, and
    the P0 x Q alone span it: P starts with a0, and the relabeling pi
    that fixes pair 0 and sorts the other pairs of P sends P x Q to
    P0 x pi(Q), where pi(Q) still starts with b0, a basis monomial
    again.  The P0 block is the first of the products in the order
    P-major, and the rank filter is greedy in input order, so the kept
    list is the one of all the products.  The class map is normal_order;
    no slot of a generator mixes a- and b-atoms, so it only expands the
    letters and renames."""
    p0 = tuple(a_atom(i) for i in range(n))
    return independent_subset([UElem(2, {((p0,), (mb,)): Fraction(1)})
                               for mb in leftnormed_basis([b_atom(i) for i in range(n)])],
                              normal_order)


def basis_F3lie(N):
    """Basis of the degree-N three-slot Lie space (aab and abb pieces),
    filtered by rank on the normal_order classes of the generators; as in
    basis_F, no slot mixes a- and b-atoms, so no rewrite is needed."""
    gens = []
    for p in range(1, N):
        # aab: p pairs (slot1, slot3), N - p pairs (slot2, slot3)
        for m1 in leftnormed_basis([a_atom(i) for i in range(p)]):
            for m2 in leftnormed_basis([a_atom(i) for i in range(p, N)]):
                for m3 in leftnormed_basis([b_atom(i) for i in range(N)]):
                    gens.append(UElem(3, {((m1,), (m2,), (m3,)): Fraction(1)}))
        # abb: p pairs (slot1, slot2), N - p pairs (slot1, slot3)
        for m1 in leftnormed_basis([a_atom(i) for i in range(N)]):
            for m2 in leftnormed_basis([b_atom(i) for i in range(p)]):
                for m3 in leftnormed_basis([b_atom(i) for i in range(p, N)]):
                    gens.append(UElem(3, {((m1,), (m2,), (m3,)): Fraction(1)}))
    return independent_subset(gens, normal_order)


def cohomology_dims(N_max):
    """Table {N: (dim H^2_N, dim H^3_N or None)} for N = 1..N_max.

    H^3_N = dim ker(delta4 on the degree-N Lie space) - rank delta3(F_{N-1});
    the delta3 images lie in that space and in the kernel of delta4.  For
    N = 1..4 it gives H^2 = (1, 0, 0, 0) and H^3 = 0 from N = 2 on; in
    degree 2 delta4 is injective and delta3(F_1) = 0.
    """
    table = {}
    rank3 = 0    # rank of delta3 on F_{N-1}
    for N in range(1, N_max + 1):
        imgs = [delta3(e).terms for e in basis_F(N)]
        ech = linalg.rref(imgs, len(imgs))
        h3 = None
        if N >= 2:
            imgs = [delta4(e).terms for e in basis_F3lie(N)]
            h3 = len(linalg.nullspace(imgs, len(imgs))) - rank3
        table[N] = (len(ech.kernel), h3)
        rank3 = len(ech.kept)
    return table


# ---------------------------------------------------------------------------
# the universal Lie QYBE residual, Phi_N and the solution
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _monomial(n):
    """The left-normed Lie monomial on the generators 0..n-1."""
    return LiePoly({tuple(range(n)): Fraction(1)})


def _substitute_pairs(elem, pair_map):
    """Replace each formal pair by a 2-slot pair element (fresh pids).

    pair_map: pid -> UElem with 2 slots, each a single letter (the a- and
    b-sides of the replacement).  Letters of elem may be Lie monomials;
    each letter's monomial takes its atoms' sides through the order-type
    memo of `freealg.substitute_letters`.
    """
    memo = {}

    def letter(letter, sides):
        n = len(letter)
        return substitute_letters(_monomial(n), tuple(sides[p][s][0] for (p, s) in letter),
                                  memo, n).terms.items()
    return UElem(elem.legs, substitute_pairs(elem, lambda p: pair_map[p].terms.items(),
                                             letter))


def insert_pairs(elem, varrho, total_degree):
    """Insertion of a family into the pair slots of a universal element.

    Replaces every formal pair of elem by entries of varrho (a dict
    degree -> 2-slot element), summing over all ways the degrees add up
    to total_degree.  Multilinear in the varrho entries; the result is
    a raw element, not a class.  The k-th pair gets pids from 1000 on,
    after those of the pairs before it.  When every pair gets degree 1
    and varrho_1 is varrho_one(), that substitution is the relabeling
    of the k-th pid to 1000 + k, which keeps the atom order, and is
    done as one, with no renormalizing of letters.
    """
    pids = sorted(elem.pids())
    if total_degree == len(pids) and varrho.get(1) == varrho_one():
        return _relabel_in_order(elem, {p: 1000 + k for k, p in enumerate(pids)})
    out = UElem.zero(elem.legs)
    for degs in positive_compositions(total_degree, len(pids)):
        if any(m not in varrho or not varrho[m] for m in degs):
            continue
        pair_map = {}
        off = 1000
        for pid, m in zip(pids, degs):
            pair_map[pid] = _shift_pids(varrho[m], off)
            off += m
        out = out + _substitute_pairs(elem, pair_map)
    return out


def r_terms_with_rho(table, varrho, N):
    """Terms of R(rho) of total pair-degree d for d = 0..N.

    table: the family's lambda table; varrho: dict m -> F_m element
    (2-slot, single Lie letters); rho is the formal sum of their
    kappa-insertions.  Returns a list indexed by degree; each entry is a
    UElem whose pids are fresh per degree.
    """
    rs = [table.rmatrix(n) for n in range(N + 1)]
    out = [rs[0]]
    for d in range(1, N + 1):
        acc = UElem.zero(2)
        for n in range(1, d + 1):
            acc = acc + insert_pairs(rs[n], varrho, d)
        out.append(acc)
    return out


def univ_qybe_residual(bfam, varrho, N):
    """Degree-N component of pr^(x3)(R12 R13 R23 - R23 R13 R12) with
    rho = sum of the varrho insertions, as a canonical 3-slot class.

    Each slot of pr^(x3) is pr(u v) = B_{|u|,|v|}(u, v), zero by
    definition when (|u|, |v|) is not `_live`.  The R-terms of each
    degree are grouped by (|u|, |v|), and a triple of groups is visited
    only when all three slots of the LHS ordering are live; the RHS
    ordering's slots are the same pairs swapped, so it is live with it.
    Entries missing from a family that is too short are no such zero and
    are evaluated.

    A factor of degree N forces the other two to R_0 = 1, whose empty
    words meet in one slot as B_00 = 0, so no live triple reads R_N: the
    lambda table is grown and R(rho) built only to degree N - 1, and
    degree N gets an empty group.  Each slot product pr(u v) is computed
    once per call: the same (u, v) recurs across the triples.
    """
    rterms = r_terms_with_rho(lambda_table(bfam, N - 1), varrho, N - 1)
    rterms.append(UElem.zero(2))
    # the R13 and R23 factors on pids of their own
    g12 = [_by_lengths(t) for t in rterms]
    g13 = [_by_lengths(_shift_pids(t, 2000)) for t in rterms]
    g23 = [_by_lengths(_shift_pids(t, 4000)) for t in rterms]
    pr = functools.cache(lambda u, v: tuple(pr_word_product(bfam, u, v).terms.items()))
    acc = {}
    for d12 in range(0, N + 1):
        for d13 in range(0, N + 1 - d12):
            groups = itertools.product(g12[d12].items(), g13[d13].items(),
                                       g23[N - d12 - d13].items())
            for ((a12, b12), t12), ((a13, b13), t13), ((a23, b23), t23) in groups:
                if not (_live(a12, a13) and _live(b12, a23) and _live(b13, b23)):
                    continue
                for (u12, v12, c1), (u13, v13, c2), (u23, v23, c3) in \
                        itertools.product(t12, t13, t23):
                    c = c1 * c2 * c3
                    # LHS ordering R12 R13 R23
                    _triple(acc, pr, ((u12, u13), (v12, u23), (v13, v23)), c)
                    # RHS ordering R23 R13 R12
                    _triple(acc, pr, ((u13, u12), (u23, v12), (v23, v13)), -c)
    return normal_order(UElem(3, acc))


def _by_lengths(elem):
    """The terms of a 2-slot element as {(|u|, |v|): [(u, v, coeff)]}."""
    groups = {}
    for (u, v), c in elem.terms.items():
        groups.setdefault((len(u), len(v)), []).append((u, v, c))
    return groups


def _triple(acc, pr, slots, c):
    """acc += c * pr(u1 v1) x pr(u2 v2) x pr(u3 v3) for slots ((u_i, v_i)),
    pr(u, v) the terms of a slot product; a zero slot leaves the later
    slots' products unread."""
    prs = (pr(u, v) for u, v in slots)
    for (m1, m2, m3), cm in distribute(prs, c):
        add_term(acc, ((tuple(m1),), (tuple(m2),), (tuple(m3),)), cm)


def varrho_one():
    """The first entry: the class of x (x) x in F_1."""
    return pair_elem(0)


def phi_N(bfam, varrho, N):
    """Phi_N: the degree-N residual with varrho_{N-1} set to zero."""
    reduced = {m: v for m, v in varrho.items() if m <= N - 2}
    reduced[1] = varrho_one()
    return univ_qybe_residual(bfam, reduced, N)


def solve_varrho(bfam, N):
    """The unique solution (varrho_n) of the universal equations, n <= N.

    Degree by degree: solves delta3(x) = -Phi exactly and asserts the
    kernel is trivial.  A solution makes Phi = -delta3(x) exactly, and
    delta4 delta3 = 0, so it certifies the cocycle condition
    delta4(Phi) = 0 as well; delta4(Phi) is computed only after a failed
    solve, to name the failure.  It raises Obstructed(M + 1) with reason
    "cocycle" and as witness the first (key, c) term of delta4(Phi) when
    that is nonzero, and otherwise reason "image" and one term of the part
    of Phi that delta3's image does not reach.
    """
    varrho = {1: varrho_one()}
    for M in range(2, N + 1):
        phi = phi_N(bfam, varrho, M + 1)
        fb = basis_F(M)
        ech = linalg.rref([delta3(e).terms for e in fb], len(fb))
        try:
            x = ech.solve({k: -c for k, c in phi.terms.items()})
        except linalg.InconsistentSystem as e:
            obstruction = delta4(phi)
            if obstruction:
                raise Obstructed(M + 1, "cocycle",
                                 next(iter(obstruction.terms.items()))) from e
            key, c = next(iter(e.residual.items()))
            raise Obstructed(M + 1, "image", (key, -c)) from e
        if ech.kernel:
            raise NonUnique(M)
        sol = UElem.zero(2)
        for i, c in x.items():
            sol = sol + c * fb[i]
        varrho[M] = sol
    return varrho


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

def instantiate(elem, alg, r):
    """kappa on a class of tensors of Lie letters, one letter per slot: an
    exact tensor over the algebra basis (degree = number of slots).  A
    key with any other number of letters in a slot raises ValueError."""
    for k in elem.terms:
        if any(len(w) != 1 for w in k):
            raise ValueError("instantiate needs one Lie letter per slot, not %r" % (k,))
    return pr_legs(instantiate_tensor(elem, alg, r))
