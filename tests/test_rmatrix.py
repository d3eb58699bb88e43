import gc
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from liequant import rmatrix
from liequant.bfamily import BFamily, bfamily_from_json, positive_compositions
from liequant.freealg import LiePoly, lie_bracket
from liequant.rmatrix import (lambda_table, rmatrix_terms,
                              quasitri_residual, pair_elem,
                              uelem_to_json, uelem_from_json, pretty_rmatrix,
                              _shift_pids)
from liequant.scalars import pr_legs
from liequant.unitensor import (UElem, a_atom, b_atom, u_mul, canonical,
                                instantiate_tensor)
from class_oracle import relabel
from rmatrix_oracle import Ln, rmatrix_by_solving, rprime_by_compositions

DATA = Path(__file__).resolve().parent / "data"


def _term(legA, legB, c):
    key = (tuple(tuple(l) for l in legA), tuple(tuple(l) for l in legB))
    return UElem(2, {key: Fraction(c)})


def test_lambda_one_and_degree_two(B4):
    """lambda_1 is the elementary pair; lambda_2 is the one (1, 1) term."""
    tab = lambda_table(B4, 3)
    assert tab.entries[1] == pair_elem(0)
    expected = _term([[a_atom(0)], [a_atom(1)]], [[b_atom(0), b_atom(1)]],
                     Fraction(1, 2))
    assert tab.entries[2] == expected


def test_lambda_zero_family_vanishes():
    fam = BFamily(Fraction(0), 3, {(1, 1): LiePoly()})
    tab = lambda_table(fam, 3)
    assert set(tab.entries) == {1}
    # R_n reduces to the grouplike-free shuffle part
    r2 = tab.rmatrix(2)
    assert all(len(k[0]) == len(k[1]) == 2 for k in r2.terms)


def test_Ln_values(B4):
    assert Ln(B4, 1) == LiePoly.gen(0)
    assert Ln(B4, 2) == Fraction(1, 2) * LiePoly.leftnormed((0, 1))
    x, y, z = (LiePoly.gen(i) for i in range(3))
    expected = Fraction(1, 6) * (lie_bracket(x, lie_bracket(y, z))
                                 + lie_bracket(lie_bracket(x, y), z))
    assert Ln(B4, 3) == expected


def test_printed_r2_and_r3(B4):
    tab = lambda_table(B4, 3)
    sh = B4.letters
    one = lambda i: _term([[a_atom(i)]], [[b_atom(i)]], 1)
    # R2 = 1/2 (a_i a_j) x ([b_i,b_j]) + (a_i)(a_j) x (b_j b_i)
    printed2 = _term([[a_atom(0)], [a_atom(1)]], [[b_atom(0), b_atom(1)]],
                     Fraction(1, 2)) \
        + u_mul(one(0), one(1), (sh, "conc")).reverse_leg(1)
    assert canonical(printed2) == canonical(tab.rmatrix(2))
    # R3: (a_i)(a_j)(a_k) x (b_k b_j b_i) + 1/2 (a_i a_j)(a_k) x (b_k [b_i,b_j])
    #     + 1/2 (a_i)(a_j a_k) x ([b_j,b_k] b_i) + (a_i a_j a_k) x (L3(b))
    T1 = u_mul(u_mul(one(0), one(1), (sh, "conc")), one(2), (sh, "conc")) \
        .reverse_leg(1)
    T2 = u_mul(_term([[a_atom(0)], [a_atom(1)]], [[b_atom(0), b_atom(1)]],
                     Fraction(1, 2)), one(2), (sh, "conc")).reverse_leg(1)
    T3 = u_mul(one(0), _term([[a_atom(1)], [a_atom(2)]],
                             [[b_atom(1), b_atom(2)]], Fraction(1, 2)),
               (sh, "conc")).reverse_leg(1)
    T4 = UElem.zero(2)
    for mono, c in Ln(B4, 3).terms.items():
        T4 = T4 + _term([[a_atom(0)], [a_atom(1)], [a_atom(2)]],
                        [tuple(b_atom(i) for i in mono)], c)
    printed3 = T1 + T2 + T3 + T4
    assert canonical(printed3) == canonical(tab.rmatrix(3))


def test_quasitri_identities_symbolic(B4):
    rl = rmatrix_terms(B4, 3)
    for n in range(0, 4):
        res = quasitri_residual(B4, rl, n)
        assert not res["delta1"] and not res["delta2"] and not res["antipode"]


def letter_antipode_closed(x, leg, B):
    """Closed partition formula on one leg of Lie-letter words, with the
    products taken by u_mul (oracle for the recursion)."""
    out = UElem.zero(x.legs)
    for k, c in x.terms.items():
        w = k[leg]
        total = UElem.zero(1) if w else UElem.unit(1)
        for n in range(1, len(w) + 1):
            for pc in positive_compositions(len(w), n):
                prod, off = UElem.unit(1), 0
                for pb in pc:
                    prod = u_mul(prod, UElem.single(1, (w[off:off + pb],)),
                                 (B.letters,))
                    off += pb
                total = total + Fraction((-1) ** n) * prod
        for (ww,), cw in total.terms.items():
            out = out + UElem.single(x.legs, k[:leg] + (ww,) + k[leg + 1:], c * cw)
    return out


def test_letter_antipode_examples(B4):
    """The Lie-letter antipode on UElem legs: equal to the closed formula on
    every word of up to 4 letters, and S(S^-1(a)) = a."""
    words = [tuple((a_atom(p),) for p in perm)
             for n in range(5) for perm in itertools.permutations(range(n))]
    words += [((a_atom(0), a_atom(1)), (a_atom(2),)),
              ((a_atom(1),), (a_atom(0), a_atom(2)), (a_atom(3),))]
    S = B4.letters.antipode

    def S_inv(w):
        return B4.letters.antipode(w, inverse=True)

    other = ((b_atom(9),),)
    for w in words:
        for leg, key in ((0, (w, other)), (1, (other, w))):
            x = UElem.single(2, key)
            assert x.map_leg(leg, S) == letter_antipode_closed(x, leg, B4)
            assert x.map_leg(leg, S_inv).map_leg(leg, S) == x


def test_no_dead_family_cache_reuse():
    """Families built and freed in a loop each get products with their own
    lambda: no memo outlives its family (ids of dead families are reused)."""
    rng = random.Random(11)
    a, b = (a_atom(0),), (a_atom(1),)
    bracket = ((a_atom(0), a_atom(1)),)
    x, y = UElem.single(1, ((a,),)), UElem.single(1, ((b,),))
    specs = []
    for _ in range(200):
        lam = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        specs.append((lam, {(1, 1): lam * LiePoly.leftnormed((0, 1))}))
    got = []
    gc.freeze()     # full collections below skip the objects of other tests
    try:
        for lam, table in specs:
            fam = BFamily(lam, 2, table)
            got.append((lam, u_mul(x, y, (fam.letters,)),
                        fam.eval(1, 1, (a, b))))
            del fam
            gc.collect()
    finally:
        gc.unfreeze()
    wrong = [lam for lam, prod, pr in got
             if prod.terms.get((bracket,)) != lam or pr.terms.get(bracket[0]) != lam]
    assert not wrong, "%d of 200 families got another family's lambda" % len(wrong)


def test_quasitri_corrupted_negative_control(B4):
    rl = rmatrix_terms(B4, 2)
    # drop the bracket term of R2
    bad = UElem(2, {k: c for k, c in rl[2].terms.items()
                    if all(len(letter) == 1 for leg in k for letter in leg)})
    res = quasitri_residual(B4, [rl[0], rl[1], bad], 2)
    assert res["delta1"] or res["delta2"]


def test_quasitri_on_double(B4, dbl):
    """(Delta x id)(R_n) = sum R_k^13 R_{n-k}^23 instantiated exactly."""
    from liequant.shuffle import ShContext, ShTensor
    ctx = ShContext(dbl.algebra, B4, 0)
    tab = lambda_table(B4, 3)
    rl = [ShTensor(ctx, 2, instantiate_tensor(tab.rmatrix(n), dbl.algebra, dbl.r))
          for n in range(4)]
    for n in (2, 3):
        lhs = rl[n].comul_leg(0)
        rhs = ShTensor(ctx, 3, {})
        for k in range(n + 1):
            rhs = rhs + rl[k].place((1, 3), 3).mul(rl[n - k].place((2, 3), 3))
        assert lhs == rhs


def test_oracle_matches_terms(B4):
    tab = lambda_table(B4, 3)
    sols = rmatrix_by_solving(B4, 3)
    for n in (2, 3):
        assert canonical(sols[n]) == canonical(tab.rmatrix(n))


def test_rprime_recursion_matches_composition_sum(B4):
    """R'_j by the one-step recursion equals the sum over the compositions
    of j of the ordered products of the table's entries, on B4 to degree
    4 and on the degree-5 paper3 family's table to degree 4."""
    n5 = bfamily_from_json(json.loads((DATA / "bfamily_n5_paper3.json").read_text()))
    for fam in (BFamily(B4.lam, B4.max_degree, B4.table), n5):
        tab = lambda_table(fam, 4)
        assert set(tab.entries) == {1, 2, 3, 4}
        for j in range(5):
            assert tab.rprime(j) == rprime_by_compositions(tab, j)


def test_dual_symmetry(B4):
    """R'_n(r^{21})^{21} = R'_n(r): universally, swapping the two sides of
    every pair and the two legs is a symmetry of the primed terms."""
    tab = lambda_table(B4, 3)
    for n in (1, 2, 3):
        rp = tab.rprime(n)
        swapped = UElem(2, {})
        for (la, lb), c in rp.terms.items():
            key = (tuple(tuple((p, 1 - s) for (p, s) in letter) for letter in lb),
                   tuple(tuple((p, 1 - s) for (p, s) in letter) for letter in la))
            swapped = swapped + UElem(2, {key: c})
        assert canonical(swapped) == canonical(rp)


def test_kappa_representative_invariance(B4, dbl):
    tab = lambda_table(B4, 3)
    lam = tab.entries[2]
    img1 = instantiate_tensor(lam, dbl.algebra, dbl.r)
    relabeled = relabel(lam, {0: 1, 1: 0})
    img2 = instantiate_tensor(relabeled, dbl.algebra, dbl.r)
    assert img1 == img2
    # kappa of lambda_1 is r itself
    img = pr_legs(instantiate_tensor(tab.entries[1], dbl.algebra, dbl.r))
    assert img == dbl.r


def test_uelem_json_round_trip(B4):
    tab = lambda_table(B4, 3)
    r2 = tab.rmatrix(2)
    back = uelem_from_json(json.loads(json.dumps(uelem_to_json(r2))))
    assert back == r2
    assert pretty_rmatrix(tab.rmatrix(1)) == "1 (a1)(x)(b1)"


def _random_lie_letter_element(rng, legs):
    """Seeded terms on up to four pairs, every slot cut into Lie letters
    of one to three atoms with the minimal atom first (the left-normed
    basis), the rest in random order."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        slots = [[] for _ in range(legs)]
        for p in rng.sample(range(12), rng.randint(1, 4)):
            slots[rng.randrange(legs)].append(a_atom(p))
            slots[rng.randrange(legs)].append(b_atom(p))
        key = []
        for atoms in slots:
            rng.shuffle(atoms)
            leg = []
            while atoms:
                size = rng.randint(1, min(3, len(atoms)))
                letter = atoms[:size]
                atoms = atoms[size:]
                first = min(letter)
                letter.remove(first)
                leg.append((first,) + tuple(letter))
            key.append(tuple(leg))
        terms[tuple(key)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
    return UElem(legs, terms)


def test_shift_pids_is_relabel(B4):
    """A constant pid offset keeps every letter in the left-normed basis,
    so the shift equals relabel, which renormalizes letters."""
    rng = random.Random(41)
    tab = lambda_table(B4, 3)
    elems = [_random_lie_letter_element(rng, rng.randint(1, 3)) for _ in range(40)]
    elems += [tab.rmatrix(n) for n in range(1, 4)]
    multi = 0
    for e in elems:
        for off in (0, 1, 7, 1000):
            assert _shift_pids(e, off) == relabel(e, {p: p + off for p in e.pids()})
        multi += any(len(letter) > 1 for k in e.terms for leg in k for letter in leg)
    assert multi > 30


def test_lambda_table_grows_in_place(B4, monkeypatch):
    """lambda_table builds only the missing degrees, into the table the
    family already holds: a caller's table stays the same object, keeps
    every earlier entry, and has the entries and R_n of a fresh
    LambdaTable.  An R_n past the table's degree is an error, not a
    truncated sum."""
    fam = BFamily(B4.lam, B4.max_degree, B4.table)
    held = lambda_table(fam, 2)
    before = dict(held.entries)
    with pytest.raises(ValueError, match="stops at 2"):
        held.rmatrix(3)
    built = []
    build = rmatrix.LambdaTable._build_degree
    monkeypatch.setattr(rmatrix.LambdaTable, "_build_degree",
                        lambda self, n: built.append(n) or build(self, n))
    assert lambda_table(fam, 4) is held and lambda_table(fam, 3) is held
    assert built == [3, 4]
    monkeypatch.undo()
    fresh = rmatrix.LambdaTable(BFamily(B4.lam, B4.max_degree, B4.table), 4)
    assert held.max_degree == fresh.max_degree == 4
    assert held.entries == fresh.entries
    assert all(held.entries[c] == e for c, e in before.items())
    assert [held.rmatrix(n) for n in range(5)] == [fresh.rmatrix(n) for n in range(5)]
