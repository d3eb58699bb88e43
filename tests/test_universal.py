import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from liequant import linalg
from liequant.deform import matrix_algebra, cybe as am_cybe
from liequant.liealg import (DELTA3, DELTA4, coboundary, tensor_add, tensor_smul,
                             sl2, cybe_residual, placed_bracket)
from liequant import freealg, universal
from liequant.bfamily import Obstructed, bfamily_from_json
from liequant.freealg import LiePoly, leftnormed_basis, substitute
from liequant.rmatrix import _shift_pids, independent_subset, lambda_table
from liequant.scalars import add_term
from liequant.universal import (normal_order, delta3, delta4, basis_F, basis_F3lie,
                                cohomology_dims, phi_N, solve_varrho,
                                univ_qybe_residual, varrho_one, insert_pairs)
from liequant.unitensor import UElem, a_atom, b_atom, u_mul, canonical, expand_letters
from class_oracle import canonical_classes, expand_to_words, instantiate, lie_form
from f3_algebra import CONC3, _comm, entretien_cybe, f3_mul, mu_lie, r_pair
from lie_oracle import delta3_r, delta4_r
from qybe_oracle import full_qybe_residual, tuple_key_coboundary, tuple_key_commutators

DATA = Path(__file__).resolve().parent / "data"


def _lie3(s1, s2, s3, c=1):
    key = (tuple(tuple(l) for l in s1), tuple(tuple(l) for l in s2),
           tuple(tuple(l) for l in s3))
    return UElem(3, {key: Fraction(c)})


def _ordered_term(n):
    """n pairs on three slots, already in normal order: a_0..a_{n/2-1} |
    a_{n/2}..a_{n-1} b_0..b_{n/2-1} | b_{n/2}..b_{n-1}."""
    h = n // 2
    slots = ([a_atom(p) for p in range(h)],
             [a_atom(p) for p in range(h, n)] + [b_atom(p) for p in range(h)],
             [b_atom(p) for p in range(h, n)])
    return tuple(tuple((atom,) for atom in slot) for slot in slots)


def test_normal_order_fixed_point():
    # already ordered input is unchanged: a0 | a1 b0 | b1
    key = (((a_atom(0),),), ((a_atom(1),), (b_atom(0),)), ((b_atom(1),),))
    e = UElem(3, {key: Fraction(1)})
    assert normal_order(e).terms == e.terms
    # one byte per atom: 127 pairs are a term, 128 are refused, not wrapped
    e = UElem(3, {_ordered_term(127): Fraction(1, 3)})
    assert normal_order(e).terms == e.terms
    with pytest.raises(ValueError):
        normal_order(UElem(3, {_ordered_term(128): Fraction(1)}))


def _cybe_sum(j, p):
    """mixed + both moved terms: the universal three-term identity."""
    mixed = _lie3([[a_atom(j)]], [[b_atom(j), a_atom(p)]], [[b_atom(p)]])
    t1 = _lie3([[a_atom(j), a_atom(p)]], [[b_atom(j)]], [[b_atom(p)]])
    t2 = _lie3([[a_atom(j)]], [[a_atom(p)]], [[b_atom(j), b_atom(p)]])
    return mixed + t1 + t2


def test_universal_cybe_identity():
    assert not canonical_classes(normal_order(_cybe_sum(0, 1)))


def test_lemma_cybe_univ_random():
    # conc-sandwiches of the identity stay zero after normal ordering
    base = _cybe_sum(0, 1)
    for trial in range(3):
        extra = r_pair(2 + trial, (1, 3), 3)
        assert not canonical_classes(normal_order(u_mul(extra, base, CONC3)))
        assert not canonical_classes(normal_order(u_mul(base, extra, CONC3)))


def test_f3_mul_unit_and_associativity():
    unit = UElem.unit(3)
    x = _lie3([[a_atom(0)]], [[b_atom(0), a_atom(1)]], [[b_atom(1)]])
    assert f3_mul(unit, x) == canonical_classes(normal_order(x))
    y = _lie3([[a_atom(0), a_atom(1)]], [[b_atom(0)]], [[b_atom(1)]])
    z = _lie3([[a_atom(0)]], [[a_atom(1)]], [[b_atom(0), b_atom(1)]])
    assert f3_mul(f3_mul(x, y), z) == f3_mul(x, f3_mul(y, z))


def test_f3_kappa_is_algebra_morphism():
    """kappa o m = mult o (kappa x kappa) on a matrix-algebra CYBE pair."""
    m2 = matrix_algebra(2)
    r = {(1, 1): Fraction(1)}          # e12 x e12 solves CYBE in M2
    assert am_cybe(m2, r) == {}

    def kappa3(elem):
        out = {}
        rt = list(r.items())
        import itertools as it
        for k, c in elem.terms.items():
            pids = sorted({pp for leg in k for letter in leg for (pp, _s) in letter})
            for choice in it.product(range(len(rt)), repeat=len(pids)):
                coeff = c
                amap = {}
                for pid, ci in zip(pids, choice):
                    (i, jj), rc = rt[ci]
                    amap[pid] = (i, jj)
                    coeff = coeff * rc
                legs_val = []
                dead = False
                for leg in k:
                    cur = dict(m2.unit)
                    for letter in leg:
                        # expand the left-normed letter in the algebra
                        vals = [({amap[pp][0] if s == 0 else amap[pp][1]:
                                  Fraction(1)}) for (pp, s) in letter]
                        acc = vals[0]
                        for vv in vals[1:]:
                            acc = tensor_add(m2.mul(acc, vv),
                                             tensor_smul(Fraction(-1), m2.mul(vv, acc)))
                        cur = m2.mul(cur, acc)
                        if not cur:
                            dead = True
                            break
                    if dead:
                        break
                    legs_val.append(cur)
                if dead:
                    continue
                combos = [((), coeff)]
                for v in legs_val:
                    combos = [(idx + (ii,), cc * cv) for idx, cc in combos
                              for ii, cv in v.items()]
                for idx, cc in combos:
                    s = out.get(idx, 0) + cc
                    if s:
                        out[idx] = s
                    else:
                        out.pop(idx, None)
        return out

    x = _lie3([[a_atom(0)]], [[b_atom(0), a_atom(1)]], [[b_atom(1)]])
    y = _lie3([[a_atom(0)]], [[a_atom(1)]], [[b_atom(0), b_atom(1)]])
    lhs = kappa3(f3_mul(x, y))
    rhs = {}
    kx, ky = kappa3(canonical_classes(x)), kappa3(canonical_classes(y))
    for i1, c1 in kx.items():
        for i2, c2 in ky.items():
            pieces = [((), c1 * c2)]
            for a, b in zip(i1, i2):
                m = m2.mul_basis(a, b)
                pieces = [(idx + (kk,), cc * cm) for idx, cc in pieces
                          for kk, cm in m.items()]
            for idx, cc in pieces:
                s = rhs.get(idx, 0) + cc
                if s:
                    rhs[idx] = s
                else:
                    rhs.pop(idx, None)
    assert lhs == rhs


def test_entretien_identities():
    for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        assert not entretien_cybe(*t)


def test_mu_lie_examples(dbl):
    # (p,q,r) = (1,1,0)-type element: normal ordering has two terms and
    # instantiates to the same tensor as the raw slotwise product
    elem = UElem(3, {(((a_atom(0),),), ((b_atom(0), a_atom(1)),),
                     ((b_atom(1),),)): Fraction(1)})
    m = mu_lie(elem)
    # kappa-instantiation oracle: both must give the same concrete tensor
    img_m = instantiate(m, dbl.algebra, dbl.r)
    # direct: sum a_j x [b_j, a_p] x b_p over the double
    direct = {}
    rt = list(dbl.r.items())
    for (i1, j1), c1 in rt:
        for (i2, j2), c2 in rt:
            br = dbl.algebra.bracket(dbl.algebra.basis(j1), dbl.algebra.basis(i2))
            for kk, cb in br.items():
                key = (i1, kk, j2)
                s = direct.get(key, 0) + c1 * c2 * cb
                if s:
                    direct[key] = s
                else:
                    direct.pop(key, None)
    assert img_m == direct
    # already normal ordered input: identity action (in word form)
    ordered = UElem(3, {(((a_atom(0),),), ((a_atom(1),),),
                        ((b_atom(0), b_atom(1)),)): Fraction(1)})
    assert mu_lie(ordered) == canonical_classes(expand_to_words(ordered))


def test_delta3_examples(B4, dbl):
    # delta3 of the canonical generator vanishes (H^2_1 is everything)
    assert not delta3(varrho_one())
    assert not delta3(UElem.zero(2))
    # commuting square on the F_1, F_2 and F_3 bases
    for n in (1, 2, 3):
        for e in basis_F(n):
            lhs = instantiate(delta3(e), dbl.algebra, dbl.r)
            rhs = delta3_r(dbl.algebra, dbl.r, instantiate(e, dbl.algebra, dbl.r))
            assert tensor_add(lhs, tensor_smul(Fraction(-1), rhs)) == {}


def test_basis_F_matches_all_products():
    """basis_F(n), built on the first a-monomial alone, keeps the same
    list, element for element and in order, as the rank filter over
    every product P x Q of the left-normed a- and b-bases."""
    for n in range(1, 5):
        a_monos = leftnormed_basis([a_atom(i) for i in range(n)])
        b_monos = leftnormed_basis([b_atom(i) for i in range(n)])
        full = independent_subset([UElem(2, {((ma,), (mb,)): Fraction(1)})
                                   for ma in a_monos for mb in b_monos],
                                  canonical_classes)
        assert basis_F(n) == full


@pytest.mark.parametrize("basis, n", [(basis_F, n) for n in range(1, 6)]
                         + [(basis_F3lie, n) for n in range(2, 5)])
def test_bases_match_the_word_form_rank_filter(basis, n, monkeypatch):
    """basis_F(n) for n <= 5 and basis_F3lie(n) for n <= 4 rank-filter
    their generators on normal_order's classes; on every generator that
    class equals the word-form class of the oracle, and the kept list is
    the oracle's rank filter, element for element and in order."""
    seen = []

    def spy(gens, cls):
        seen.append(gens)
        return independent_subset(gens, cls)
    monkeypatch.setattr(universal, "independent_subset", spy)
    got = basis(n)
    (gens,) = seen
    assert all(normal_order(e) == canonical_classes(e) for e in gens)
    assert got == independent_subset(gens, canonical_classes)


def test_instantiate_takes_one_lie_letter_per_slot(dbl):
    """A delta3 image is a class in word form: the library's instantiate
    refuses it, naming a key, and the oracle's reads it through lie_form
    onto the concrete coboundary of the instantiated argument."""
    e = basis_F(2)[0]
    img = delta3(e)
    assert any(len(w) != 1 for k in img.terms for w in k)
    with pytest.raises(ValueError, match="one Lie letter per slot, not"):
        universal.instantiate(img, dbl.algebra, dbl.r)
    rhs = delta3_r(dbl.algebra, dbl.r, universal.instantiate(e, dbl.algebra, dbl.r))
    assert rhs and instantiate(img, dbl.algebra, dbl.r) == rhs


def test_delta4_examples(dbl):
    """delta4 delta3 = 0 on every basis element of F_M, M = 1..4: the
    identity by which solve_varrho's exact solve certifies the cocycle
    condition, at every degree that `qybe solve --max-degree 4` solves.
    M = 5 takes seconds and is left out."""
    assert not delta4(UElem.zero(3))
    for M in range(1, 5):
        for e in basis_F(M):
            assert not delta4(delta3(e))
    for e in basis_F3lie(2) + basis_F3lie(3):
        lhs = instantiate(delta4(e), dbl.algebra, dbl.r)
        rhs = delta4_r(dbl.algebra, dbl.r, instantiate(e, dbl.algebra, dbl.r))
        assert tensor_add(lhs, tensor_smul(Fraction(-1), rhs)) == {}


def _rank(tensors):
    return len(linalg.rref(tensors, len(tensors)).kept)


def test_F3lie_degree_2_domain_is_complete(dbl):
    """basis_F3lie(2) instantiates onto the span of [r13,r23] and [r12,r13];
    [r12,r23] lies in it by CYBE, so the degree-2 Lie space is 2-dim."""
    alg, r = dbl.algebra, dbl.r
    basis = [instantiate(e, alg, r) for e in basis_F3lie(2)]
    brackets = [placed_bracket(alg, r, (1, 3), r, (2, 3), 3),
                placed_bracket(alg, r, (1, 2), r, (1, 3), 3),
                placed_bracket(alg, r, (1, 2), r, (2, 3), 3)]
    assert len(basis) == 2 and _rank(basis) == 2
    assert _rank(brackets[:2]) == 2 and _rank(basis + brackets) == 2


def test_delta4_injective_in_degree_2(dbl):
    """ker delta4 on the degree-2 Lie space is 0, hence H^3_2 = 0 (delta3
    vanishes on F_1).  Instantiation sends a zero universal class to zero,
    so independent instantiated images prove universal injectivity."""
    f3b = basis_F3lie(2)
    assert _rank([instantiate(delta4(e), dbl.algebra, dbl.r)
                  for e in f3b]) == 2
    # the concrete coboundary on sl2 with the triangular r = h^e
    alg = sl2()
    r = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert cybe_residual(alg, r) == {}
    xs = [placed_bracket(alg, r, (1, 3), r, (2, 3), 3),
          placed_bracket(alg, r, (1, 2), r, (1, 3), 3)]
    assert _rank([delta4_r(alg, r, x) for x in xs]) == 2


def ins(elem, varrho, total_degree):
    """The class of insert_pairs(elem, varrho, total_degree); the identity
    family {1: varrho_one()} acts as a relabeling."""
    return canonical_classes(insert_pairs(elem, varrho, total_degree))


def test_ins():
    one = {1: varrho_one()}
    lam = varrho_one()
    # identity family relabels
    assert ins(lam, one, 1) == canonical_classes(lam)
    # inserting the degree-2 entry doubles the slot degree
    rho2 = UElem(2, {(((a_atom(0), a_atom(1)),),
                      ((b_atom(0), b_atom(1)),)): Fraction(1, 8)})
    out = ins(lam, {2: rho2}, 2)
    assert out == canonical_classes(rho2)
    # multilinearity in the entries
    out2 = ins(lam, {2: Fraction(3) * rho2}, 2)
    assert out2 == canonical_classes(Fraction(3) * rho2)


def test_phi3_proportional_to_mu_lie(B4):
    """Phi_3 is proportional to mu_Lie([w,v] x [w',u] x [v',u']); the
    equation delta3(rho_2) + Phi_3 = 0 then pins rho_2 = 1/8 [x,x] x [y,y]."""
    u, v, w = 0, 1, 2
    elem = UElem(3, {(
        ((a_atom(w), a_atom(v)),),
        ((b_atom(w), a_atom(u)),),
        ((b_atom(v), b_atom(u)),),
    ): Fraction(1)})
    m = mu_lie(elem)
    p3 = phi_N(B4, {1: varrho_one()}, 3)
    assert canonical_classes(p3) == canonical_classes(Fraction(1, 4) * m)
    rho2 = canonical_classes(UElem(2, {(((a_atom(0), a_atom(1)),),
                                        ((b_atom(0), b_atom(1)),)): Fraction(1, 8)}))
    assert not canonical_classes(delta3(rho2) + p3)


def test_phi_is_cubic(B4):
    """Scaling the inserted family by t grades Phi_N's terms by t-powers
    up to 3 (here: Phi_4 on a scaled rho_2 scales quadratically in the
    rho_2-dependent part)."""
    rho = solve_varrho(B4, 2)
    p4 = phi_N(B4, rho, 4)
    scaled = dict(rho)
    scaled[2] = Fraction(2) * rho[2]
    p4s = phi_N(B4, scaled, 4)
    # decompose: p4 = A + B with A independent of rho_2 and B linear+quadratic;
    # at degree 4 the rho_2-part enters linearly and quadratically; verify
    # p4s - p4 is consistent with polynomial (non-linear) dependence
    assert canonical_classes(p4s - p4)
    third = dict(rho)
    third[2] = Fraction(3) * rho[2]
    p4t = phi_N(B4, third, 4)
    # quadratic fit: values at t = 1, 2, 3 of a polynomial of degree <= 2
    # must satisfy p(3) - 3 p(2) + 3 p(1) - p(0) = 0 only for cubics; use
    # the finite-difference test for degree <= 2 in the rho_2 slot:
    zero = dict(rho)
    zero[2] = UElem.zero(2)
    p40 = phi_N(B4, zero, 4)
    diff3 = canonical_classes(p4t + Fraction(-3) * p4s + Fraction(3) * p4
                              + Fraction(-1) * p40)
    assert not diff3


def test_obstruction_and_unique_solution(B4):
    rho = solve_varrho(B4, 3)
    assert rho[1] == varrho_one()
    expected2 = canonical_classes(UElem(2, {(((a_atom(0), a_atom(1)),),
                                             ((b_atom(0), b_atom(1)),)):
                                            Fraction(1, 8)}))
    assert canonical_classes(rho[2]) == expected2
    assert not delta4(phi_N(B4, rho, 3))
    phi4 = phi_N(B4, rho, 4)
    assert not delta4(phi4)
    # restoring varrho_3 changes the residual by exactly delta3(varrho_3)
    full = univ_qybe_residual(B4, rho, 4)
    assert rho[3] and canonical_classes(full - phi4) == canonical_classes(delta3(rho[3]))
    assert not full


def test_obstruction_names_a_failed_cocycle_check(B4, monkeypatch):
    """A non-cocycle of degree 3 in place of Phi_3: no solve of
    delta3(x) = -Phi exists, and the witness is the first term of
    delta4(Phi)."""
    phi = basis_F3lie(3)[0]
    assert delta4(phi)
    monkeypatch.setattr(universal, "phi_N", lambda bfam, varrho, N: phi)
    with pytest.raises(Obstructed) as info:
        solve_varrho(B4, 2)
    e = info.value
    assert str(e) == "3" and e.degree == 3
    assert e.reason == "cocycle"
    assert e.witness == next(iter(delta4(phi).terms.items()))


def test_degree_5_solve_fails_the_cocycle_check():
    """solve_bfamily(1/2, 5) leaves its top degree's free part zero, and
    that family does not extend to degree 6: rho to degree 4 stops at the
    cocycle check of Phi_5, and the witness is the first term of
    delta4(Phi_5).  The stored family, solved to degree 6, has rho_4."""
    fam = bfamily_from_json(json.loads((DATA / "bfamily_n5_paper3.json").read_text()))
    with pytest.raises(Obstructed) as info:
        solve_varrho(fam, 4)
    e = info.value
    assert e.degree == 5 and e.reason == "cocycle"
    assert e.witness == (
        ((((0, 0),),), (((1, 0),), ((2, 0),), ((3, 0),), ((4, 0),), ((5, 0),)),
         (((0, 1),), ((2, 1),), ((1, 1),), ((3, 1),)), (((4, 1),), ((5, 1),))),
        Fraction(-1, 576))


def test_solved_varrho_never_reads_delta4(B4, monkeypatch):
    """A successful solve certifies delta4(Phi) = 0 by delta4 delta3 = 0,
    so it gives the same rho without calling delta4."""
    expected = solve_varrho(B4, 3)

    def refuse(phi):
        raise AssertionError("delta4 called on a solvable Phi")
    monkeypatch.setattr(universal, "delta4", refuse)
    assert solve_varrho(B4, 3) == expected


def test_obstruction_names_a_phi_outside_the_image(B4, monkeypatch):
    """A coboundary of degree 4 in place of Phi_3: delta4 kills it, but no
    key of it is a key of delta3(F_2), so the whole of it is the residual."""
    phi = delta3(basis_F(3)[0])
    assert phi and not delta4(phi)
    monkeypatch.setattr(universal, "phi_N", lambda bfam, varrho, N: phi)
    with pytest.raises(Obstructed) as info:
        solve_varrho(B4, 2)
    e = info.value
    assert str(e) == "3" and e.reason == "image"
    assert e.witness == next(iter(phi.terms.items()))


def test_instantiate_examples(B4, dbl):
    rho = solve_varrho(B4, 2)
    assert instantiate(rho[1], dbl.algebra, dbl.r) == dbl.r
    img2 = instantiate(rho[2], dbl.algebra, dbl.r)
    # 1/8 sum [a_i,a_j] x [b_i,b_j]
    direct = {}
    rt = list(dbl.r.items())
    for (i1, j1), c1 in rt:
        for (i2, j2), c2 in rt:
            bra = dbl.algebra.bracket(dbl.algebra.basis(i1), dbl.algebra.basis(i2))
            brb = dbl.algebra.bracket(dbl.algebra.basis(j1), dbl.algebra.basis(j2))
            for ka, ca in bra.items():
                for kb, cb in brb.items():
                    key = (ka, kb)
                    s = direct.get(key, 0) + Fraction(1, 8) * c1 * c2 * ca * cb
                    if s:
                        direct[key] = s
                    else:
                        direct.pop(key, None)
    assert img2 == direct


def test_mu_lie_outputs_are_lie(B4):
    rho = solve_varrho(B4, 2)
    p = phi_N(B4, rho, 4)
    lie_form(p)   # raises if a slot fails to assemble into Lie polynomials


def test_cohomology_dims_H2():
    dims = cohomology_dims(3)
    assert dims[1][0] == 1 and dims[2][0] == 0 and dims[3][0] == 0
    # H^3 vanishes in degrees 2 and 3
    assert dims[2][1] == 0 and dims[3][1] == 0


# ---------------------------------------------------------------------------
# the class map: first-appearance orbit representatives
# ---------------------------------------------------------------------------

def _random_element(rng, legs):
    """A few multilinear terms on up to three pairs drawn from pids 0..9,
    each cut into Lie letters of one to three atoms spread over the legs."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        pids = rng.sample(range(10), rng.randint(1, 3))
        atoms = [a_atom(p) for p in pids] + [b_atom(p) for p in pids]
        rng.shuffle(atoms)
        key = [[] for _ in range(legs)]
        while atoms:
            size = rng.randint(1, min(3, len(atoms)))
            key[rng.randrange(legs)].append(tuple(atoms[:size]))
            atoms = atoms[size:]
        terms[tuple(tuple(leg) for leg in key)] = Fraction(rng.randint(-3, 3),
                                                           rng.randint(1, 4))
    return UElem(legs, terms)


def test_class_maps_are_relabeling_invariant():
    rng = random.Random(20)
    for _ in range(60):
        e = _random_element(rng, rng.randint(1, 3))
        pids = sorted(e.pids())
        moved = e.relabel(dict(zip(pids, rng.sample(range(20), len(pids)))))
        assert canonical(moved) == canonical(e)
        assert canonical_classes(moved) == canonical_classes(e)
        assert canonical_classes(canonical_classes(e)) == canonical_classes(e)


def _rename_only(elem):
    """First-appearance renaming of the keys, without expanding letters."""
    out = UElem.zero(elem.legs)
    for k, c in elem.terms.items():
        names = {}
        key = tuple(tuple(tuple((names.setdefault(p, len(names)), s)
                                for (p, s) in letter) for letter in leg)
                    for leg in k)
        out = out + UElem(elem.legs, {key: c})
    return out


def test_single_lie_letter_has_zero_class():
    e = UElem(1, {(((a_atom(0), a_atom(1), a_atom(2)),),): Fraction(1)})
    assert not canonical(e) and not canonical_classes(e)
    # relabeling mixes the Lie-letter basis: [x1,x0,x2] = -[x0,x1,x2], so
    # renaming the letter keys alone sees neither invariance nor zero
    swapped = e.relabel({0: 1, 1: 0})
    assert _rename_only(e) and _rename_only(swapped) == -_rename_only(e)


def test_letter_boundaries_separate_shuffle_leg_words():
    a0, a1, b0, b1 = a_atom(0), a_atom(1), b_atom(0), b_atom(1)
    bracket = UElem(2, {(((a0, a1),), ((b0,), (b1,))): Fraction(1)})
    words = UElem(2, {(((a0,), (a1,)), ((b0,), (b1,))): Fraction(1),
                      (((a1,), (a0,)), ((b0,), (b1,))): Fraction(-1)})
    assert canonical(bracket) != canonical(words)
    assert canonical_classes(bracket) == canonical_classes(words)


def test_rho3_class_matches_printed_representative(B4):
    a = [a_atom(i) for i in range(3)]
    b = [b_atom(i) for i in range(3)]
    printed = UElem(2, {
        (((a[0], a[1], a[2]),), ((b[0], b[1], b[2]),)): Fraction(1, 54),
        (((a[0], a[1], a[2]),), ((b[0], b[2], b[1]),)): Fraction(-1, 108),
        (((a[0], a[2], a[1]),), ((b[0], b[1], b[2]),)): Fraction(-1, 108),
        (((a[0], a[2], a[1]),), ((b[0], b[2], b[1]),)): Fraction(1, 54)})
    rho = solve_varrho(B4, 3)
    assert canonical_classes(rho[3]) == canonical_classes(printed)


def test_lie_form_reads_multi_atom_letters(B4):
    """The solved varrho_3 holds multi-atom Lie letters; lie_form must
    read every atom of them, not only the first."""
    rho3 = solve_varrho(B4, 3)[3]
    assert any(len(letter) > 1 for k in rho3.terms for leg in k for letter in leg)
    assert canonical_classes(lie_form(rho3)) == canonical_classes(rho3)


def _random_paired_element(rng, legs, pairs=3, crowded=False):
    """A few terms on up to `pairs` pairs, each pair's a-atom in an
    earlier slot than its b-atom, every slot cut into Lie letters of one
    to three atoms in random order: the input shape of normal_order.  A
    crowded element is one term of exactly `pairs` pairs, and about half
    of its slots hold all their b-atoms ahead of all their a-atoms."""
    terms = {}
    for _ in range(1 if crowded else rng.randint(1, 4)):
        slots = [[] for _ in range(legs)]
        for p in rng.sample(range(10), pairs if crowded else rng.randint(1, pairs)):
            sa, sb = sorted(rng.sample(range(legs), 2))
            slots[sa].append(a_atom(p))
            slots[sb].append(b_atom(p))
        key = []
        for atoms in slots:
            rng.shuffle(atoms)
            if crowded and rng.random() < 0.5:
                atoms.sort(key=lambda atom: -atom[1])
            leg = []
            while atoms:
                size = rng.randint(1, min(3, len(atoms)))
                leg.append(tuple(atoms[:size]))
                atoms = atoms[size:]
            key.append(tuple(leg))
        terms[tuple(key)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
    return UElem(legs, terms)


def test_normal_order_emits_single_atom_letters():
    """normal_order's surviving keys hold single-atom letters only, so the
    word expansion of canonical is the identity there and normal_order
    takes the class by renaming alone (class_key); canonical and
    canonical_classes then agree on its output."""
    rng = random.Random(8)
    nonzero = 0
    for _ in range(40):
        out = normal_order(_random_paired_element(rng, rng.randint(3, 4)))
        assert all(len(letter) == 1 for k in out.terms for leg in k for letter in leg)
        assert canonical(out) == canonical_classes(out)
        nonzero += bool(canonical(out))
    assert nonzero > 20


def _raw_normal_order(elem):
    """Oracle: the word-form normal order with no class map, rewriting the
    last mixed pair b_j a_p of the last inner slot first.  Each rewrite is
    b_j a_p = a_p b_j + [b_j, a_p], with the commutator moved onto the
    partners: -b_j (a_j -> [a_j, a_p]) - a_p (b_p -> [b_j, b_p])."""
    def put(k, atom, letters):
        return tuple(tuple(x for letter in leg
                           for x in (letters if letter == (atom,) else (letter,)))
                     for leg in k)

    out = {}
    stack = list(expand_to_words(elem).terms.items())
    while stack:
        k, c = stack.pop()
        hit = next(((s, i) for s in reversed(range(1, len(k) - 1))
                    for i in reversed(range(len(k[s]) - 1))
                    if k[s][i][0][1] == 1 and k[s][i + 1][0][1] == 0), None)
        if hit is None:
            add_term(out, k, c)
            continue
        s, i = hit
        w = k[s]
        (bj,), (ap,) = w[i], w[i + 1]
        aj, bp = a_atom(bj[0]), b_atom(ap[0])
        stack.append((k[:s] + (w[:i] + (w[i + 1], w[i]) + w[i + 2:],) + k[s + 1:], c))
        only_b = k[:s] + (w[:i + 1] + w[i + 2:],) + k[s + 1:]
        only_a = k[:s] + (w[:i] + w[i + 1:],) + k[s + 1:]
        stack += [(put(only_b, aj, ((aj,), (ap,))), -c),
                  (put(only_b, aj, ((ap,), (aj,))), c),
                  (put(only_a, bp, ((bj,), (bp,))), -c),
                  (put(only_a, bp, ((bp,), (bj,))), c)]
    return UElem(elem.legs, out)


# b1 a2 is the first mixed pair, with b0 b1 ahead of a2 a3 in slot 1;
# b1 then joins b2 in slot 2, ahead of a4; six pairs on four legs
_CROWDED = (((a_atom(0),), (a_atom(1),), (a_atom(5),)),
            ((b_atom(0),), (b_atom(1),), (a_atom(2),), (a_atom(3),)),
            ((b_atom(2),), (a_atom(4),), (b_atom(5),)),
            ((b_atom(3),), (b_atom(4),)))
# the same atoms in Lie-monomial letters
_CROWDED_LIE = (((a_atom(0), a_atom(1)), (a_atom(5),)),
                ((b_atom(0),), (b_atom(1),), (a_atom(2), a_atom(3))),
                ((b_atom(2), a_atom(4)), (b_atom(5),)),
                ((b_atom(3),), (b_atom(4),)))


def _crowded_elements(rng, count):
    """_CROWDED, _CROWDED_LIE, and `count` seeded crowded elements on
    four or five legs and six pairs (see _random_paired_element): inputs
    that reach every grade update and renaming of normal_order."""
    yield UElem(4, {_CROWDED: Fraction(1)})
    yield UElem(4, {_CROWDED_LIE: Fraction(-2, 3)})
    for _ in range(count):
        yield _random_paired_element(rng, rng.randint(4, 5), 6, crowded=True)


def _with_crowded(rng, count):
    """Forty seeded elements as _random_paired_element makes them on three
    or four legs, then _crowded_elements(rng, count); lazily, so the
    first forty take the same draws as they would alone."""
    return itertools.chain((_random_paired_element(rng, rng.randint(3, 4))
                            for _ in range(40)), _crowded_elements(rng, count))


def _rescanned_normal_order(elem):
    """Oracle for the key order of normal_order: the same graded,
    class-merged rewrite on tuple keys of int atoms 2*pid + side, every
    child renamed and graded by a rescan of its whole key."""
    work, done = {}, {}

    def push(k, c):
        names, phi, inv = {}, 0, 0
        for s, w in enumerate(k):
            nb = 0
            for x in w:
                if x & 1:
                    phi -= s
                    nb += 1
                else:
                    names[x] = 2 * len(names)
                    phi += s
                    inv += nb
        add_term(work.setdefault((phi, inv), {}),
                 tuple(tuple(names[x & -2] | x & 1 for x in w) for w in k), c)

    for k, c in elem.terms.items():
        for key, cw in expand_letters(k):
            push(tuple(tuple(2 * p + s for word in w for (p, s) in word) for w in key),
                 c * cw)
    while work:
        for k, c in work.pop(max(work)).items():
            hit = next(((s, i) for s in range(1, elem.legs - 1)
                        for i in range(len(k[s]) - 1)
                        if k[s][i] & 1 and not k[s][i + 1] & 1), None)
            if hit is None:
                add_term(done, tuple(tuple(((x >> 1, x & 1),) for x in w) for w in k), c)
                continue
            s, i = hit
            w = k[s]
            bj, ap = w[i], w[i + 1]
            push(k[:s] + (w[:i] + (ap, bj) + w[i + 2:],) + k[s + 1:], c)
            for rest, stay, pair in ((w[:i + 1] + w[i + 2:], bj - 1, (bj - 1, ap)),
                                     (w[:i] + w[i + 1:], ap + 1, (bj, ap + 1))):
                mid = k[:s] + (rest,) + k[s + 1:]
                t = next(t for t, v in enumerate(mid) if stay in v)
                pos = mid[t].index(stay)
                v = mid[t]
                for word, sign in ((pair, -c), (pair[::-1], c)):
                    push(mid[:t] + (v[:pos] + word + v[pos + 1:],) + mid[t + 1:], sign)
    return UElem(elem.legs, done)


def test_normal_order_returns_the_class():
    """normal_order is the class coordinate: invariant under relabeling,
    fixed by canonical, canonical of the raw normal order, and term for
    term, in order, the rescanning oracle's; also on crowded inputs of
    six pairs."""
    rng = random.Random(9)
    nonzero = 0
    for x in _with_crowded(rng, 6):
        out = normal_order(x)
        assert canonical(out) == out
        assert out == canonical(_raw_normal_order(x))
        # term for term, in the order of the rescanning oracle
        assert list(out.terms.items()) == list(_rescanned_normal_order(x).terms.items())
        sigma = dict(enumerate(rng.sample(range(20), 20)))
        assert normal_order(x.relabel(sigma)) == out
        nonzero += bool(out)
    assert nonzero > 20


def test_normal_order_merges_cancelling_classes():
    """Keys of one class merge before they are rewritten: x plus a
    relabeled -x leaves exactly the class of the third term, on 3- and
    4-leg inputs, and a scaled relabeled copy only scales the class."""
    rng = random.Random(12)
    nonzero = 0
    for _ in range(30):
        legs = rng.randint(3, 4)
        x = _random_paired_element(rng, legs)
        y = _random_paired_element(rng, legs)
        sigma = dict(enumerate(rng.sample(range(20), 20)))
        moved = x.relabel(sigma)
        z = x - moved + y
        ny = normal_order(y)
        assert normal_order(z) == canonical(_raw_normal_order(z)) == ny
        assert not normal_order(x - moved)
        w = x + Fraction(2) * moved
        assert normal_order(w) == canonical(_raw_normal_order(w)) \
            == Fraction(3) * normal_order(x)
        nonzero += bool(ny)
    assert nonzero > 15


def test_delta4_kills_delta3_on_relabeled_combinations():
    """delta4 o delta3 = 0 on seeded combinations of relabeled basis_F(2)
    and basis_F(3) elements, and delta3 is linear on classes."""
    rng = random.Random(13)
    for n in (2, 3):
        fb = basis_F(n)
        for _ in range(3):
            parts = [(Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)),
                      e.relabel(dict(enumerate(rng.sample(range(12), 12)))))
                     for e in fb]
            x = UElem.zero(2)
            expect = UElem.zero(3)
            for c, e in parts:
                x = x + c * e
                expect = expect + c * delta3(e)
            d3 = delta3(x)
            assert d3 and d3 == expect
            assert not delta4(d3)


def test_delta4_images_match_the_oracle():
    """delta4 over basis_F3lie(4), and delta3 over basis_F(3), equal the
    class of the raw LIFO oracle applied to the tuple-key commutator sum
    (tests/qybe_oracle.py), which is nonzero and has one slot more than
    its argument."""
    f3b, fb = basis_F3lie(4), basis_F(3)
    got4, got3 = [delta4(e) for e in f3b], [delta3(e) for e in fb]
    raw4 = [tuple_key_commutators(DELTA4, e, 4) for e in f3b]
    raw3 = [tuple_key_commutators(DELTA3, e, 3) for e in fb]
    assert got4 == [canonical(_raw_normal_order(e)) for e in raw4]
    assert [e.legs for e in raw4 if e] == [4] * len(f3b)
    assert got3 == [canonical(_raw_normal_order(e)) for e in raw3]
    assert [e.legs for e in raw3 if e] == [3] * len(fb)
    assert all(got4) and all(got3)


def test_coboundaries_equal_the_tuple_key_path_in_order(B4):
    """delta3 and delta4, which build the flat keys of normal_order's
    loop themselves, equal the tuple-key commutators normal-ordered
    (tests/qybe_oracle.py) as ordered item lists, so the first term of
    delta4(Phi), the obstruction witness, is the same: on basis_F(1..3),
    basis_F3lie(2..4), Phi_3 and Phi_4 of the CLI's family, seeded
    relabeled combinations of basis elements, and zero."""
    rng = random.Random(53)
    varrho = solve_varrho(B4, 2)
    cases = [(DELTA3, delta3, e) for n in (1, 2, 3) for e in basis_F(n)]
    cases += [(DELTA4, delta4, e) for n in (2, 3, 4) for e in basis_F3lie(n)]
    phis = [phi_N(B4, varrho, n) for n in (3, 4)]
    cases += [(DELTA4, delta4, phi) for phi in phis]
    for table, delta, basis, legs in ((DELTA3, delta3, basis_F(3), 2),
                                      (DELTA4, delta4, basis_F3lie(3), 3)):
        for _ in range(3):
            x = UElem.zero(legs)
            for e in basis:
                sigma = dict(enumerate(rng.sample(range(12), 12)))
                x = x + Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)) \
                    * e.relabel(sigma)
            cases.append((table, delta, x))
    cases += [(DELTA3, delta3, UElem.zero(2)), (DELTA4, delta4, UElem.zero(3))]
    zero = []
    for table, delta, x in cases:
        got = delta(x)
        want = tuple_key_coboundary(table, x, x.legs + 1)
        assert list(got.terms.items()) == list(want.terms.items())
        if not got:
            zero.append(x)
    # delta3(F_1) = 0, Phi_3 and Phi_4 are cocycles, and the zeros
    assert zero == basis_F(1) + phis + [UElem.zero(2), UElem.zero(3)]
    assert all(phis)


def test_coboundaries_check_the_pair_cap_and_the_precondition():
    """delta3 and delta4 on a term of 127 pairs raise ValueError, as the
    fresh pair makes 128; a term whose b-atom does not follow its a-atom
    raises AssertionError naming its key."""
    atoms = range(127)
    key2 = (tuple((a_atom(p),) for p in atoms), tuple((b_atom(p),) for p in atoms))
    key3 = (key2[0][:60], key2[0][60:], key2[1])
    for delta, key in ((delta3, key2), (delta4, key3)):
        with pytest.raises(ValueError, match="not 128"):
            delta(UElem(len(key), {key: Fraction(1)}))
    bad2 = (((b_atom(0),),), ((a_atom(0),),))
    bad3 = (((a_atom(0),),), ((b_atom(1),),), ((b_atom(0),),))
    for delta, key in ((delta3, bad2), (delta4, bad3)):
        with pytest.raises(AssertionError) as err:
            delta(UElem(len(key), {key: Fraction(1)}))
        assert repr(key) in str(err.value)


# ---------------------------------------------------------------------------
# pair substitution: one free-Lie substitution per replacement tuple
# ---------------------------------------------------------------------------

def _substitute_by_letters(elem, pair_map):
    """Reference for _substitute_pairs: every letter of every pair choice
    substituted on its own through freealg.substitute, with no memo."""
    out = {}
    for k, c in elem.terms.items():
        pids = sorted({p for leg in k for letter in leg for (p, _s) in letter})
        for choice in itertools.product(*(pair_map[p].terms.items() for p in pids)):
            amap = {p: (a, b) for p, (((a,), (b,)), _) in zip(pids, choice)}
            cc = c * math.prod(cp for _, cp in choice)
            legs = []
            for leg in k:
                words = [((), Fraction(1))]
                for letter in leg:
                    args = [LiePoly({amap[p][s]: Fraction(1)}) for (p, s) in letter]
                    img = substitute(LiePoly({tuple(range(len(letter))): Fraction(1)}),
                                     args)
                    words = [(w + (m,), cw * cm) for w, cw in words
                             for m, cm in img.terms.items()]
                legs.append(words)
            for combo in itertools.product(*legs):
                add_term(out, tuple(w for w, _ in combo),
                         cc * math.prod(cw for _, cw in combo))
    return out


def _replacement(rng, base):
    """A 2-slot pair element on pids base..base+2: one or two terms, each
    a letter of a-atoms x a letter of b-atoms on the same pids (minimal
    atom first, the rest in random order)."""
    def letter(side, pids):
        rest = pids[1:]
        rng.shuffle(rest)
        return tuple((p, side) for p in pids[:1] + rest)

    terms = {}
    for _ in range(rng.randint(1, 2)):
        pids = sorted(rng.sample(range(base, base + 3), rng.randint(1, 3)))
        terms[((letter(0, pids),), (letter(1, pids),))] = \
            Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
    return UElem(2, terms)


def _counting_substitute(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return substitute(*args)
    monkeypatch.setattr(freealg, "substitute", counted)
    return calls


def test_substitute_pairs_shares_equal_replacement_tuples(monkeypatch):
    """Letters of pids 0,1 and 4,5 get the same replacement tuple (A0, A1);
    pids 2,3 get it swapped, (A1, A0) = -(A0, A1) after substitution, so a
    key blind to the order would flip a sign.  The b-side tuples (B0, B1)
    and (B1, B0) have the order types of (A0, A1) and (A1, A0), and the
    memo is keyed on order type, so they share those substitutions."""
    a, b = a_atom, b_atom
    r0 = UElem(2, {(((a(100), a(101)),), ((b(100), b(101)),)): Fraction(1, 8)})
    r1 = UElem(2, {(((a(102),),), ((b(102),),)): Fraction(1)})
    pair_map = {0: r0, 1: r1, 2: r1, 3: r0, 4: r0, 5: r1}
    elem = UElem(2, {(((a(0), a(1)), (a(2), a(3)), (a(4), a(5))),
                      ((b(0), b(1)), (b(2), b(3)), (b(4), b(5)))): Fraction(3)})
    calls = _counting_substitute(monkeypatch)
    got = universal._substitute_pairs(elem, pair_map)
    assert got and got.terms == _substitute_by_letters(elem, pair_map)
    # one substitution per order type: (A0, A1) ~ (B0, B1), (A1, A0) ~ (B1, B0)
    assert len(calls) == 2


def test_substitute_pairs_matches_letterwise_reference(monkeypatch):
    """Seeded multi-atom letters and replacements on disjoint pids, as
    insert_pairs makes them; letters recur across terms and choices."""
    rng = random.Random(31)
    calls = _counting_substitute(monkeypatch)
    nonzero = letters = 0
    for _ in range(30):
        elem = _random_paired_element(rng, 2)
        pair_map = {p: _replacement(rng, 100 + 10 * p) for p in range(10)}
        got = universal._substitute_pairs(elem, pair_map)
        assert got.terms == _substitute_by_letters(elem, pair_map)
        letters += sum(math.prod(len(pair_map[p].terms) for p in {a[0] for leg in k
                                                                  for l in leg
                                                                  for a in l})
                       * sum(map(len, k)) for k in elem.terms)
        nonzero += bool(got)
    assert nonzero > 15 and 0 < len(calls) < letters


# ---------------------------------------------------------------------------
# the lean universal QYBE solve, each part against its oracle
# ---------------------------------------------------------------------------

def _random_rho2(rng):
    """A seeded combination of the basis of F_2 on pids of its own."""
    x = UElem.zero(2)
    for e in basis_F(2):
        x = x + Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)) * e
    return x


@pytest.mark.parametrize("N", [2, 3, 4])
def test_pruned_residual_matches_full_triple_loop(B4, B4_rref, N):
    """univ_qybe_residual, which visits only the word-length triples whose
    three slots are not zero by definition and builds no R_N, equals the
    full triple loop over R_0..R_N: on B4 with the solved rho and with
    rho_{N-1} dropped (Phi_N), on seeded random rho_2, and on the
    rref-zero family.  At N = 2 every case is the universal CYBE of
    varrho_1, or zero with no varrho_1, so every residual vanishes."""
    rng = random.Random(41)
    cases = []
    for fam in (B4, B4_rref):
        rho = solve_varrho(fam, 3)
        cases += [(fam, rho), (fam, {m: v for m, v in rho.items() if m < N - 1})]
        cases += [(fam, {1: varrho_one(), 2: _random_rho2(rng)}) for _ in range(2)]
    nonzero = 0
    for fam, varrho in cases:
        got = univ_qybe_residual(fam, varrho, N)
        assert got == full_qybe_residual(fam, varrho, N)
        nonzero += bool(got)
    assert nonzero >= 4 if N > 2 else nonzero == 0


@pytest.mark.parametrize("N", [3, 4])
def test_residual_builds_the_table_below_degree_n(B4, N):
    """On a family fresh from JSON, the degree-N residual grows the lambda
    table to degree N - 1 only, and still equals the full triple loop,
    which grows it to N."""
    rho = solve_varrho(B4, 3)
    varrho = {m: v for m, v in rho.items() if m < N - 1}
    fam = bfamily_from_json(json.loads((DATA / "bfamily_n4_paper3.json").read_text()))
    assert fam.lambdas is None
    got = univ_qybe_residual(fam, varrho, N)
    assert fam.lambdas.max_degree == N - 1
    assert got and got == full_qybe_residual(fam, varrho, N)
    assert fam.lambdas.max_degree == N


def test_identity_insertion_is_the_substitution(B4, monkeypatch):
    """With every pair of R_n at degree 1 and varrho_1 = varrho_one(),
    insert_pairs relabels instead of substituting; the result equals
    _substitute_pairs and the letterwise reference, for R_1..R_4.  A
    scaled varrho_1 takes the substitution path."""
    table = lambda_table(B4, 4)
    for n in range(1, 5):
        rn = table.rmatrix(n)
        pids = sorted(rn.pids())
        assert len(pids) == n
        pair_map = {p: _shift_pids(varrho_one(), 1000 + k) for k, p in enumerate(pids)}
        want = universal._substitute_pairs(rn, pair_map)
        assert want.terms == _substitute_by_letters(rn, pair_map)
        calls = _counting_substitute(monkeypatch)
        assert universal.insert_pairs(rn, {1: varrho_one()}, n) == want
        assert not calls
        two = {1: Fraction(2) * varrho_one()}
        assert universal.insert_pairs(rn, two, n) == Fraction(2 ** n) * want
        assert calls
        monkeypatch.undo()


def test_normal_order_on_mixed_denominators():
    """The integer rewrite (input scaled by the lcm of its denominators)
    matches the Fraction oracles on inputs with coefficients in 1/2, 1/3
    and 5/6, and returns Fraction coefficients."""
    rng = random.Random(43)
    nonzero = 0
    for x in _with_crowded(rng, 3):
        x = UElem(x.legs, {k: rng.choice((1, -1)) * rng.choice(
            (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6))) for k in x.terms})
        out = normal_order(x)
        assert out == canonical(_raw_normal_order(x))
        assert list(out.terms.items()) == list(_rescanned_normal_order(x).terms.items())
        assert all(type(c) is Fraction for c in out.terms.values())
        nonzero += bool(out)
    assert nonzero > 20


# ---------------------------------------------------------------------------
# the coboundaries' concatenation against the u_mul commutator
# ---------------------------------------------------------------------------

def _coboundary_by_u_mul(table, x, legs):
    """delta3/delta4 as the table sum over u_mul commutators of the
    placed fresh pair with the placed argument, then normal_order."""
    fresh = max(x.pids(), default=-1) + 1
    modes = ("conc",) * legs
    return normal_order(UElem(legs, coboundary(
        table,
        lambda s, t: _comm(r_pair(fresh, s, legs), x.place(t, legs), modes).terms)))


def _random_word_element(rng, legs):
    """A seeded word-form element (single-atom letters, each pair's a-atom
    in an earlier slot) with coefficients in 1/2, 1/3, 2/5 and 5/6."""
    x = expand_to_words(_random_paired_element(rng, legs))
    return UElem(legs, {k: rng.choice((1, -2)) * rng.choice(
        (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5, 6))) for k in x.terms})


def test_coboundaries_match_the_u_mul_commutator(B4):
    """delta3 and delta4, which concatenate the fresh pair's letters onto
    the placed slot words, equal the u_mul commutator oracle on the bases
    of F_N and of the three-slot Lie space for N <= 3 (Lie-monomial
    letters), on Phi_3 and Phi_4, on seeded word-form elements with
    mixed denominators, and on crowded elements in Lie-monomial letters:
    six pairs on two slots, four on three."""
    rng = random.Random(47)
    varrho = solve_varrho(B4, 2)
    cases = [(DELTA3, delta3, e) for n in (1, 2, 3) for e in basis_F(n)]
    cases += [(DELTA4, delta4, e) for n in (2, 3) for e in basis_F3lie(n)]
    cases += [(DELTA4, delta4, phi_N(B4, varrho, n)) for n in (3, 4)]
    cases += [(DELTA3, delta3, _random_word_element(rng, 2)) for _ in range(10)]
    cases += [(DELTA4, delta4, _random_word_element(rng, 3)) for _ in range(20)]
    cases += [(DELTA3, delta3, _random_paired_element(rng, 2, 6, crowded=True))
              for _ in range(2)]
    cases += [(DELTA4, delta4, _random_paired_element(rng, 3, 4, crowded=True))
              for _ in range(3)]
    nonzero = 0
    for table, delta, x in cases:
        got = delta(x)
        assert got == _coboundary_by_u_mul(table, x, x.legs + 1)
        nonzero += bool(got)
    assert nonzero > 30


@pytest.mark.parametrize("slots", [
    # b0 in a slot before a0
    ([b_atom(0)], [a_atom(0)], []),
    # b0 in the slot before a0, next to a correctly placed pair 1
    ([a_atom(1)], [b_atom(0), b_atom(1)], [a_atom(0)]),
    # b1 has no a-atom, next to the inner hit (b1, a2)
    ([a_atom(0)], [b_atom(1), a_atom(2)], [b_atom(0), b_atom(2)]),
    # a1 has no b-atom, next to the inner hit (b0, a1)
    ([a_atom(0)], [b_atom(0), a_atom(1)], []),
])
def test_normal_order_checks_its_precondition(slots):
    """An input term whose b-atom lacks an a-atom in an earlier slot, or
    whose a-atom lacks its b-atom, raises AssertionError naming the key."""
    key = tuple(tuple((atom,) for atom in slot) for slot in slots)
    with pytest.raises(AssertionError) as err:
        normal_order(UElem(3, {key: Fraction(1)}))
    assert repr(key) in str(err.value)
