"""Universal spaces for CYBE solutions: normal ordering, coboundaries,
cohomology, and the unique solution of the universal Lie QYB equations.

Elements live in the multi-slot word calculus of unitensor: each formal
pair contributes an "a" atom in one slot and a "b" atom in a later slot.
Inner slots multiply associatively under instantiation, so words there
can be reordered at the cost of commutators; the mixed commutator
[b, a] rewrites through the universal CYBE identity, moving the two
atoms onto their partners.  Normal-ordered terms have every inner slot
of the shape a...a b...b, which spans the direct sum of the F-spaces.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .bfamily import Obstructed, positive_compositions
from .freealg import LiePoly, leftnormed_basis, substitute, FreeLieCarrier
from .rmatrix import (NonUnique, independent_subset, lambda_table, pair_elem,
                      _shift_pids)
from .scalars import add_term, distribute, pr_legs
from .unitensor import (UElem, a_atom, b_atom, canonical,
                        expand_letters, normalize_letters, u_mul, pr_word_product,
                        instantiate_tensor)


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def expand_to_words(elem):
    """Expand every multi-atom letter into plain single-atom words."""
    out = {}
    for k, c in elem.terms.items():
        for key, cw in expand_letters(k):
            add_term(out, tuple(tuple((a,) for word in leg for a in word)
                                for leg in key), c * cw)
    return UElem(elem.legs, out)


def normal_order(elem):
    """Rewrite so every inner slot is a-atoms then b-atoms; the class.

    Input letters may be Lie monomials; every pair's a-atom must sit in
    an earlier slot than its b-atom.  The output is the class coordinate
    in word form.  The mixed commutator move is the universal three-term
    identity; its instantiation is the CYBE.

    Inside the loop a key is a tuple of slots of int atoms 2*pid + side,
    renamed in order of first appearance, so the keys of one class meet
    in one work item; the rewrite commutes with renaming.  Items are
    taken in decreasing grade (Phi, inv): Phi is the sum of the a-atoms'
    slots minus that of the b-atoms', inv the number of b-before-a pairs
    within slots.  A swap lowers inv by one and a commutator move carries
    a_p to an earlier slot or b_j to a later one, lowering Phi, so each
    class is rewritten once, with its full coefficient, and a class whose
    coefficient cancels is never expanded.
    """
    work = {}       # grade -> {class key: coeff}
    done = {}

    def push(k, c):
        names = {}      # atom -> renamed atom, both sides of a pid at once
        phi = inv = 0
        for s, w in enumerate(k):
            nb = 0
            for x in w:
                if x not in names:
                    n = len(names) + (x & 1)
                    names[x] = n
                    names[x ^ 1] = n ^ 1
                if x & 1:
                    phi -= s
                    nb += 1
                else:
                    phi += s
                    inv += nb
        k = tuple(tuple(map(names.__getitem__, w)) for w in k)
        add_term(work.setdefault((phi, inv), {}), k, c)

    for k, c in elem.terms.items():
        for key, cw in expand_letters(k):
            push(tuple(tuple(2 * p + s for word in w for (p, s) in word)
                       for w in key), c * cw)
    middles = range(1, elem.legs - 1)
    while work:
        for k, c in work.pop(max(work)).items():
            hit = next(((s, i) for s in middles for i in range(len(k[s]) - 1)
                        if k[s][i] & 1 and not k[s][i + 1] & 1), None)
            if hit is None:
                add_term(done, tuple(tuple(((x >> 1, x & 1),) for x in w) for w in k), c)
                continue
            s, i = hit
            w = k[s]
            bj, ap = w[i], w[i + 1]
            aj, bp = bj - 1, ap + 1
            push(k[:s] + (w[:i] + (ap, bj) + w[i + 2:],) + k[s + 1:], c)
            # [b_j, a_p] in an inner slot rewrites to
            #   - (a_j -> [a_j, a_p] at its slot) x (b_j stays)
            #   - (a_p stays) x (b_p -> [b_j, b_p] at its slot),
            # instantiating to the CYBE for the formal pairs j, p.
            for rest, stay, pair in ((w[:i + 1] + w[i + 2:], aj, (aj, ap)),
                                     (w[:i] + w[i + 1:], bp, (bj, bp))):
                mid = k[:s] + (rest,) + k[s + 1:]
                t = next(t for t, v in enumerate(mid) if stay in v)
                assert t != s, "a pair's atoms share a slot"
                v = mid[t]
                pos = v.index(stay)
                for word, sign in ((pair, -c), (pair[::-1], c)):
                    push(mid[:t] + (v[:pos] + word + v[pos + 1:],) + mid[t + 1:], sign)
    return UElem(elem.legs, done)


# ---------------------------------------------------------------------------
# gradings and class utilities
# ---------------------------------------------------------------------------

def pid_types(k):
    """dict pid -> (slot of a, slot of b), 0-based slots."""
    t = {}
    for slot, leg in enumerate(k):
        for letter in leg:
            for (p, s) in letter:
                cur = t.setdefault(p, [None, None])
                cur[s] = slot
    return {p: tuple(v) for p, v in t.items()}


def canonical_classes(elem):
    """Class coordinate of the plain word form: slots multiply
    associatively, so letter boundaries are dropped before comparing."""
    return canonical(expand_to_words(elem))


def lie_form(elem):
    """Read a word-form class as a tensor of Lie letters, with proof.

    Each slot word w is read as (1/|w|) [..[w1,w2],..,wk]
    (Dynkin-Specht-Wever), which fixes Lie polynomials and commutes with
    relabeling, so the class of a tensor of Lie polynomials maps to a
    tensor of Lie letters in the same class.  The classes are compared
    (raises AssertionError otherwise).  Multi-atom Lie letters are first
    expanded into plain words.
    """
    elem = expand_to_words(elem)
    out = {}
    for k, c in elem.terms.items():
        if all(k):
            key = tuple((tuple(letter[0] for letter in leg),) for leg in k)
            add_term(out, key, c / math.prod(len(leg) for leg in k))
    out = normalize_letters(UElem(elem.legs, out))
    assert canonical_classes(out) == canonical_classes(elem), \
        "element is not a tensor of Lie polynomials"
    return out


# ---------------------------------------------------------------------------
# r-insertions and coboundaries
# ---------------------------------------------------------------------------

def r_pair(pid, spots, legs):
    """r^(spots) for one formal pair: a in spots[0], b in spots[1]."""
    return pair_elem(pid).place(spots, legs)


CONC3 = ("conc", "conc", "conc")
CONC4 = ("conc", "conc", "conc", "conc")


def _comm(x, y, modes):
    return u_mul(x, y, modes) - u_mul(y, x, modes)


def delta3(x):
    """Coboundary F_n -> F^{Lie,(3)}_{n+1}: six commutators with r, then
    normal ordering.  x: 2-slot element; output: a 3-slot class."""
    legs = 3
    pids = x.pids()
    fresh = max(pids, default=-1) + 1
    acc = UElem.zero(legs)
    for (spots_x, spots_r, sign) in (((1, 3), (1, 2), -1), ((2, 3), (1, 2), -1),
                                     ((2, 3), (1, 3), -1),
                                     ((1, 2), (1, 3), 1), ((1, 2), (2, 3), 1),
                                     ((1, 3), (2, 3), 1)):
        xe = x.place(spots_x, legs)
        re = r_pair(fresh, spots_r, legs)
        term = _comm(xe, re, CONC3)
        acc = acc + (Fraction(sign) * term)
    return normal_order(acc)


def delta4(x):
    """Coboundary on 3-slot classes: commutators with r in four slots.

    The sign table is the linear term of the tetrahedron identity
    (deform.delta_p(., ., 3)) and, up to scale, the only combination of
    the twelve placed brackets [r^(ij), x^(klm)] that kills CYB(r).  On
    the 2-dim degree-2 Lie space, spanned by [r13,r23] and [r12,r13],
    delta4 is injective, so H^3_2 = 0.
    """
    legs = 4
    pids = x.pids()
    fresh = max(pids, default=-1) + 1
    groups = (
        ((2, 3, 4), (((1, 2), 1), ((1, 3), 1), ((1, 4), 1))),
        ((1, 3, 4), (((1, 2), 1), ((2, 3), -1), ((2, 4), -1))),
        ((1, 2, 4), (((1, 3), -1), ((2, 3), -1), ((3, 4), 1))),
        ((1, 2, 3), (((1, 4), 1), ((2, 4), 1), ((3, 4), 1))),
    )
    acc = UElem.zero(legs)
    for spots_x, rs in groups:
        xe = x.place(spots_x, legs)
        for spots_r, sign in rs:
            re = r_pair(fresh, spots_r, legs)
            acc = acc + Fraction(sign) * _comm(re, xe, CONC4)
    return normal_order(acc)


# ---------------------------------------------------------------------------
# bases of the Lie coinvariant spaces
# ---------------------------------------------------------------------------

def basis_F(n):
    """Basis of F_n: generators P x Q, both slots on the same n pairs,
    independent modulo relabeling."""
    a_monos = leftnormed_basis([a_atom(i) for i in range(n)])
    b_monos = leftnormed_basis([b_atom(i) for i in range(n)])
    return independent_subset([UElem(2, {((ma,), (mb,)): Fraction(1)})
                               for ma in a_monos for mb in b_monos],
                              canonical_classes)


def basis_F3lie(N):
    """Basis of the degree-N three-slot Lie space (aab and abb pieces)."""
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
    return independent_subset(gens, canonical_classes)


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

def _substitute_pairs(elem, pair_map):
    """Replace each formal pair by a 2-slot pair element (fresh pids).

    pair_map: pid -> UElem with 2 slots, each a single letter (the a- and
    b-sides of the replacement).  Letters of elem may be Lie monomials;
    substitution happens inside letters via the free Lie algebra.
    """
    out = UElem(elem.legs, {})
    memo = {}
    for k, c in elem.terms.items():
        pids = sorted(pid_types(k))
        reps = (pair_map[pid].terms.items() for pid in pids)
        for choice, cc in distribute(reps, c):
            # each replacement is one letter per side
            amap = {pid: (a, b) for pid, ((a,), (b,)) in zip(pids, choice)}
            legs = (distribute(_substitute_letter(letter, amap, memo)
                               for letter in leg) for leg in k)
            for key, cr in distribute(legs, cc):
                add_term(out.terms, key, cr)
    return out


def _substitute_letter(letter, amap, memo):
    """The letter's monomial with each atom (p, s) replaced by side s of
    amap[p], as (monomial, coeff) pairs; memo is keyed on those sides."""
    reps = tuple(amap[p][s] for (p, s) in letter)
    out = memo.get(reps)
    if out is None:
        args = [LiePoly({rep: Fraction(1)}) for rep in reps]
        lp = LiePoly({tuple(range(len(reps))): Fraction(1)})
        out = memo[reps] = tuple(substitute(lp, args, FreeLieCarrier).terms.items())
    return out


def insert_pairs(elem, varrho, total_degree):
    """Insertion of a family into the pair slots of a universal element.

    Replaces every formal pair of elem by entries of varrho (a dict
    degree -> 2-slot element), summing over all ways the degrees add up
    to total_degree.  Multilinear in the varrho entries; the result is
    a raw element, not a class.
    """
    pids = sorted(elem.pids())
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


def ins(elem, varrho, total_degree):
    """The class of insert_pairs(elem, varrho, total_degree); the identity
    family {1: varrho_one()} acts as a relabeling."""
    return canonical_classes(insert_pairs(elem, varrho, total_degree))


def r_terms_with_rho(table, varrho, N):
    """Terms of R(rho) of total pair-degree d for d = 0..N.

    table: the family's lambda table; varrho: dict m -> F_m element
    (2-slot, single Lie letters); rho is the formal sum of their
    kappa-insertions.  Returns a list indexed by degree; each entry is a
    UElem whose pids are fresh per degree.
    """
    out = [UElem.unit(2)]
    for d in range(1, N + 1):
        acc = UElem.zero(2)
        for n in range(1, d + 1):
            acc = acc + insert_pairs(table.rmatrix(n), varrho, d)
        out.append(acc)
    return out


def univ_qybe_residual(bfam, varrho, N, max_table=None):
    """Degree-N component of pr^(x3)(R12 R13 R23 - R23 R13 R12) with
    rho = sum of the varrho insertions, as a canonical 3-slot class."""
    rterms = r_terms_with_rho(lambda_table(bfam, max_table or N), varrho, N)
    # the R13 and R23 factors on pids of their own
    rterms13 = [_shift_pids(t, 2000) for t in rterms]
    rterms23 = [_shift_pids(t, 4000) for t in rterms]
    acc = {}
    for d12 in range(0, N + 1):
        for d13 in range(0, N + 1 - d12):
            d23 = N - d12 - d13
            t12 = rterms[d12]
            t13 = rterms13[d13]
            t23 = rterms23[d23]
            for (u12, v12), c1 in t12.terms.items():
                for (u13, v13), c2 in t13.terms.items():
                    for (u23, v23), c3 in t23.terms.items():
                        c = c1 * c2 * c3
                        # LHS ordering R12 R13 R23
                        _triple(acc, bfam, ((u12, u13), (v12, u23), (v13, v23)), c)
                        # RHS ordering R23 R13 R12
                        _triple(acc, bfam, ((u13, u12), (u23, v12), (v23, v13)), -c)
    return normal_order(UElem(3, acc))


def _triple(acc, bfam, slots, c):
    """acc += c * pr(u1 v1) x pr(u2 v2) x pr(u3 v3) for slots ((u_i, v_i));
    a zero slot leaves the later slots' products uncomputed."""
    prs = (pr_word_product(bfam, u, v).terms.items() for u, v in slots)
    for (m1, m2, m3), cm in distribute(prs, c):
        add_term(acc, ((tuple(m1),), (tuple(m2),), (tuple(m3),)), cm)


def varrho_one():
    """The first entry: the class of x (x) x in F_1."""
    return pair_elem(0)


def phi_N(bfam, varrho, N, check_delta3=False):
    """Phi_N: the degree-N residual with varrho_{N-1} set to zero.

    With check_delta3, also asserts that restoring varrho_{N-1} changes
    the residual by exactly delta3(varrho_{N-1}).
    """
    reduced = {m: v for m, v in varrho.items() if m <= N - 2}
    reduced[1] = varrho_one()
    phi = univ_qybe_residual(bfam, reduced, N)
    if check_delta3 and (N - 1) in varrho and varrho[N - 1]:
        full = dict(reduced)
        full[N - 1] = varrho[N - 1]
        total = univ_qybe_residual(bfam, full, N)
        diff = canonical_classes(total - phi)
        assert diff == canonical_classes(delta3(varrho[N - 1])), \
            "residual difference is not delta3(varrho_{N-1})"
    return phi


def solve_varrho(bfam, N):
    """The unique solution (varrho_n) of the universal equations, n <= N.

    Degree by degree: checks the obstruction delta4(Phi) = 0, solves
    delta3(x) = -Phi exactly and asserts the kernel is trivial.  A failed
    check raises Obstructed(M + 1) with reason "cocycle" or "image".
    """
    varrho = {1: varrho_one()}
    for M in range(2, N + 1):
        phi = phi_N(bfam, varrho, M + 1)
        obstruction = delta4(phi)
        if obstruction:
            raise Obstructed(M + 1, "cocycle", next(iter(obstruction.terms.items())))
        fb = basis_F(M)
        ech = linalg.rref([delta3(e).terms for e in fb], len(fb))
        try:
            x = ech.solve({k: -c for k, c in phi.terms.items()})
        except linalg.InconsistentSystem as e:
            raise Obstructed(M + 1, "image", next(iter(e.residual))) from e
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

def instantiate(elem, alg, r, order=None):
    """kappa on a class of tensors of Lie polynomials: an exact tensor
    over the algebra basis (degree = number of slots).  Word-form input
    is first rewritten through lie_form (which proves the class is a
    tensor of Lie polynomials)."""
    if any(len(w) != 1 for k in elem.terms for w in k):
        elem = lie_form(elem)
    # one letter per leg, so every instantiated word has one index
    return pr_legs(instantiate_tensor(elem, alg, r, order))
