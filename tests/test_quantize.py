import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from liequant.bfamily import solve_bfamily, stored_family, stored_varrho
from liequant.scalars import HSeries, add_term
from liequant.liealg import abelian_bialgebra, bialgebra_from_json
from liequant import quantize
from liequant.quantize import Quantization, QYBEFail
from liequant.freealg import AssocPoly
from liequant.shuffle import ShElem, sh_mul, t_comul
from liequant.universal import varrho_one, solve_varrho
from ell_oracle import ell_direct
from quantize_oracle import (ell_chain, equivalence_report, malta_check,
                             phipsi_uncapped, truncated)


@pytest.fixture(scope="module")
def varrho3(B4):
    return solve_varrho(B4, 3)


@pytest.fixture(scope="module")
def Q2(B4, borel, varrho3):
    return Quantization(B4, borel, order=2, varrho=varrho3)


@pytest.fixture(scope="module")
def Q3(B4, borel, varrho3):
    """Order 3 over rho to degree 3: ell and the relations at rel_order 2."""
    return Quantization(B4, borel, order=3, varrho=varrho3)


@pytest.fixture(scope="module")
def deep(borel):
    """Order 2 and 3 over the stored family to degree 5 and its rho to
    degree 3, rel_order 2 for both: the chain of ell on a three-letter
    word multiplies words of five letters, so it reads B past B4."""
    fam, varrho = stored_family(5), stored_varrho(3)
    return [Quantization(fam, borel, order=order, varrho=varrho) for order in (2, 3)]


def _random_terms(rng, dim, order, max_len):
    """A few words of at most max_len letters below dim, with series
    coefficients of hbar-valuation 0, 1 or 2."""
    out = {}
    for _ in range(4):
        w = tuple(rng.randrange(dim) for _ in range(rng.randint(0, max_len)))
        v = rng.randint(0, 2)
        coeffs = [0] * v + [Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))]
        coeffs += [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                   for _ in range(order - v)]
        out[w] = HSeries(coeffs, order)
    return out


def test_rho_orders(B4, Q2):
    # order-1 term is r itself; order-2 term is 1/8 [a,a] x [b,b]
    d = 2
    assert Q2.rho[(0, d + 0)].coeff(1) == 1
    assert Q2.rho[(1, d + 1)].coeff(1) == 1
    # on borel2: kappa(rho_2)(r) = 1/8 [h,e] x [h*, e*]-combination
    vals2 = {k: c.coeff(2) for k, c in Q2.rho.items() if c.coeff(2)}
    assert vals2 == {(1, d + 1): Fraction(1, 4)}


def test_swapped_kappa_sides_fail_the_rho_check(B4, borel, varrho3, monkeypatch):
    """kappa with its a- and b-sides swapped gives rho21, whose hbar^1
    part is r21 != r: the constructor's check stops it."""
    real = quantize.instantiate

    def swapped(elem, alg, r):
        return {(j, i): c for (i, j), c in real(elem, alg, r).items()}
    monkeypatch.setattr(quantize, "instantiate", swapped)
    with pytest.raises(AssertionError, match="hbar\\^1 part"):
        Quantization(B4, borel, order=2, varrho=varrho3)


def test_rho_abelian_is_hbar_r(B4, varrho3):
    Qa = Quantization(B4, abelian_bialgebra(2), order=2, varrho=varrho3)
    d = 2
    assert Qa.rho == {(i, d + i): HSeries.hpow(1, 1, 2) for i in range(2)}


def test_varrho_without_gaps(B4, borel, varrho3):
    """rho and rel_order read varrho at every degree up to its top one, so
    a varrho without rho_2 raises ValueError naming the missing degree
    instead of leaving rho without its hbar^2 part, and so does a degree
    outside 1..top."""
    with pytest.raises(ValueError, match=r"degrees \[1, 3\] are not 1\.\.3: 2 is missing"):
        Quantization(B4, borel, order=3, varrho={1: varrho3[1], 3: varrho3[3]})
    with pytest.raises(ValueError, match=r"degrees \[0, 1, 2\] are not 1\.\.2$"):
        Quantization(B4, borel, order=3,
                     varrho={0: varrho3[1], 1: varrho3[1], 2: varrho3[2]})


def test_qybe_order1(B4, borel):
    Q1 = Quantization(B4, borel, order=1, varrho=solve_varrho(B4, 2))
    assert Q1.check_qybe()


def test_qybe_negative_control_first_fails_at_order3(Q2):
    # dropping rho_2 leaves QYBE intact mod hbar^3 (the degree-2 universal
    # equation is automatic); the first failure is at hbar^3, checked in
    # the acceptance suite at order 3
    rho1 = {k: HSeries.hpow(1, c, 2) for k, c in Q2.double.r.items()}
    assert not Q2.qybe_residual(rho1)


def test_qybe_failure_names_its_first_term(Q2):
    """rho + hbar h x h fails the CYBE, so the QYBE fails at hbar^2;
    QYBEFail holds that order as args[0] and names the least residual
    key at that order."""
    rho = dict(Q2.rho)
    add_term(rho, (0, 0), HSeries.hpow(1, 1, 2))
    with pytest.raises(QYBEFail) as info:
        Q2.check_qybe(rho)
    e = info.value
    key, order = e.witness
    assert e.args == (2,) and e.order == order == 2
    res = Q2.qybe_residual(rho).terms
    assert min(c.valuation() for c in res.values()) == 2
    assert key == min(k for k, c in res.items() if c.valuation() == 2)
    assert Q2.check_qybe()


def test_ell_reads_the_length_one_part_of_r(Q2):
    """ell_generator's R-table, picked by second-leg letter count before
    instantiating, is the length-one second-leg part of the whole R at
    rel_order + 1, the degree ell_generator grows the lambda table to."""
    Q2.ell_generator(0)
    hi = Q2.rel_order + 1
    rho = Q2._rho_at_order(hi, Q2.varrho)
    full = Q2.r_matrix(rho, hi)
    want = {k: c for k, c in full.items() if len(k[1]) == 1}
    assert 0 < len(want) < len(full)
    assert Q2.r_matrix(rho, hi, second_len=1) == want


def test_r_matrix_raises_beyond_the_table(Q2):
    """R to a degree the lambda table lacks is an error, not a silent
    truncation."""
    top = Q2.table.max_degree
    assert Q2.r_matrix(Q2.rho, top)
    with pytest.raises(ValueError, match="stops at %d" % top):
        Q2.r_matrix(Q2.rho, top + 1)


def test_equivalence_report(Q2):
    rep = equivalence_report(Q2)
    assert all(full == pr for (full, pr) in rep.values())
    assert all(full for (full, _) in rep.values())
    # the nonzero-residual direction of the equivalence is exercised at
    # order 3 in the acceptance suite (truncating rho first fails there)


def test_malta_identity(Q2):
    assert malta_check(Q2, {1: varrho_one()})
    assert malta_check(Q2)


def test_ell_examples(Q2):
    ctx = Q2.sh_ctx
    assert Q2.ell(AssocPoly.unit()) == ShElem.unit(ctx)
    for i in range(2):
        le = Q2.ell(AssocPoly.gen(i))
        assert le.terms[(i,)].coeff(0) == 1
        for w, c in le.terms.items():
            if w != (i,):
                assert c.coeff(0) == 0
    # ell is an antimorphism: ell(x x y) mod hbar = (y)(x)
    le2 = Q2.ell(AssocPoly.word((0, 1)))
    prod = sh_mul(ShElem.word(ctx, (1,)), ShElem.word(ctx, (0,)))
    h0 = {w: c.coeff(0) for w, c in le2.terms.items() if c.coeff(0)}
    p0 = {w: c.coeff(0) for w, c in prod.terms.items() if c.coeff(0)}
    assert h0 == p0


def test_ell_matches_direct_pairing(B4, borel, varrho3):
    Q = Quantization(B4, borel, order=2, varrho=varrho3)
    for w in ((0,), (1,), (0, 1), (1, 0), (1, 1)):
        x = AssocPoly.word(w)
        assert Q.ell(x) == ell_direct(Q, x)


def test_ell_matches_the_unseeded_chain(deep):
    """ell, which seeds each word's chain with the word's coefficient,
    equals the chain from the unit times the coefficient, mod
    hbar^(rel_order+1), on seeded random words with coefficients of
    valuation 0..2; at order 3 rel_order (2) is below order."""
    rng = random.Random(7)
    for Q in deep:
        d = Q.bia.algebra.dim
        for _ in range(6):
            x = AssocPoly(_random_terms(rng, d, Q.order, 3))
            assert truncated(Q.ell(x), Q.rel_order) == \
                truncated(ell_chain(Q, x), Q.rel_order)


def test_phi_psi_match_the_uncapped_blocks(Q2, Q3):
    """phi/psi, which stop each term pair's blocks at the order its
    coefficient keeps, equal the blocks to order + 1 for every pair, on
    seeded random arguments with coefficients of valuation 0..2, and on
    images of ell."""
    rng = random.Random(11)
    for Q in (Q2, Q3):
        d = Q.bia.algebra.dim
        for _ in range(6):
            xelem = ShElem(Q.sh_ctx, _random_terms(rng, d, Q.order, 2))
            y = AssocPoly(_random_terms(rng, d, Q.order, 2))
            z = Q.ell(AssocPoly(_random_terms(rng, d, Q.order, 2)))
            for a in (xelem, z):
                for xi_right, fn in ((False, Q.phi), (True, Q.psi)):
                    assert truncated(fn(a, y), Q.rel_order) == \
                        truncated(phipsi_uncapped(Q, a, y, xi_right), Q.rel_order)


def test_order_three_reads_nothing_past_rel_order(borel):
    """At order 3 over rho to degree 3 the generators of ell are built
    mod hbar^(rel_order+1) = hbar^3, so the QYBE check, the relations
    and the semiclassical checks grow the lambda table of a fresh family
    to degree 3, not 4, and every generator coefficient has order 2."""
    fam = solve_bfamily(Fraction(1, 2), 4, "paper3")
    Q = Quantization(fam, borel, order=3, varrho=solve_varrho(fam, 3))
    assert Q.check_qybe()
    Q.extract_relations()
    assert Q.semiclassical_check(0) and Q.semiclassical_check(1)
    assert fam.lambdas.max_degree == 3
    assert {c.order for i in range(2) for c in Q.ell_generator(i).terms.values()} == {2}


def test_semiclassical_check_needs_rel_order_one(B4, borel):
    """rho_1 alone determines ell only mod hbar (rel_order 0), so the
    hbar^1 coefficient the semiclassical check reads is not there."""
    Q = Quantization(B4, borel, order=2, varrho={1: varrho_one()})
    assert Q.rel_order == 0
    with pytest.raises(ValueError, match="rel_order"):
        Q.semiclassical_check(1)


def test_ell_antihomomorphism(deep):
    x = AssocPoly.gen(0)
    y = AssocPoly.word((1, 1))
    Q2 = deep[0]
    assert Q2.ell(x * y) == sh_mul(Q2.ell(y), Q2.ell(x))


def test_beta_gamma(Q2, B4):
    alg = Q2.bia.algebra
    # beta_11(x, y) = 1/2 [x,y]; gamma_11(x, y) = -1/2 [x,y]
    for i in range(2):
        for j in range(2):
            br = alg.bracket(alg.basis(i), alg.basis(j))
            b11 = Q2.tens_ctx.dual_block(1, 1, j, right=(i,))
            expect = {(k,): Fraction(1, 2) * c for k, c in br.items()}
            assert {k: v for k, v in b11.items()} == \
                {k: v for k, v in expect.items() if v}
            g11 = Q2.tens_ctx.dual_block(1, 1, j, left=(i,))
            expect_g = {(k,): Fraction(-1, 2) * c for k, c in br.items()}
            assert g11 == {k: v for k, v in expect_g.items() if v}


def test_beta_vanishes_abelian(B4, varrho3):
    """On the abelian double every B_pq of degree >= 2 vanishes, so the
    beta (g-letters right) and gamma (g-letters left) blocks are empty."""
    tctx = Quantization(B4, abelian_bialgebra(2), order=2, varrho=varrho3).tens_ctx
    for p in range(1, 3):
        for q in range(1, 3):
            assert tctx.dual_block(p, q, 1, right=(0,) * q) == {}
            assert tctx.dual_block(p, q, 1, left=(0,) * p) == {}


def test_phi_psi_first_order(Q2):
    ctx = Q2.sh_ctx
    alg = Q2.bia.algebra
    for i in range(2):
        for j in range(2):
            ph = Q2.phi(ShElem.word(ctx, (i,)), AssocPoly.gen(j))
            br = alg.bracket(alg.basis(i), alg.basis(j))
            expect = {(k,): Fraction(1, 2) * c for k, c in br.items() if c}
            got0 = {w: c.coeff(0) for w, c in ph.terms.items() if c.coeff(0)}
            assert got0 == expect
            ps = Q2.psi(ShElem.word(ctx, (i,)), AssocPoly.gen(j))
            got0p = {w: c.coeff(0) for w, c in ps.terms.items() if c.coeff(0)}
            assert got0p == {k: -v for k, v in expect.items()}
    # phi(1, y) = y
    y = AssocPoly.word((0, 1))
    assert Q2.phi(ShElem.unit(ctx), y) == y


def test_relations(Q2):
    rels = Q2.extract_relations()
    for (i, j), k in rels.items():
        h0 = {w: c.coeff(0) for w, c in k.terms.items() if c.coeff(0)}
        br = Q2.bia.algebra.bracket(Q2.bia.algebra.basis(i),
                                    Q2.bia.algebra.basis(j))
        expect = {(j, i): Fraction(1), (i, j): Fraction(-1)}
        for kk, c in br.items():
            expect[(kk,)] = expect.get((kk,), 0) - c
        assert h0 == {k2: v for k2, v in expect.items() if v}


def test_relations_stop_at_the_order_rho_supports(B4, borel, Q2, varrho3):
    """rho to degree 3 makes ell exact only mod hbar^3, so an order-3
    object reports its relations at rel_order 2, equal to the order-2
    object's; checked mod hbar^4 they leave the kernel (NotInKernel).
    relation itself computes at rel_order, not at order."""
    Q3 = Quantization(B4, borel, order=3, varrho=varrho3)
    rels = Q3.extract_relations()
    assert rels == Q2.extract_relations()
    assert (Q3.rel_order, Q2.rel_order) == (2, 2)
    assert all(c.order == 2 for k in rels.values() for c in k.terms.values())
    assert all(c.order == 2 for c in Q3.relation(0, 1).terms.values())


def test_relations_abelian(B4, varrho3):
    Qa = Quantization(B4, abelian_bialgebra(2), order=2, varrho=varrho3)
    rels = Qa.extract_relations()
    for (i, j), k in rels.items():
        assert k == AssocPoly.word((j, i)) - AssocPoly.word((i, j))


def _exact_scalar(c):
    """An int, a Fraction, or an HSeries of int numerators over an int
    denominator: never a float, which a true division of two ints gives."""
    if isinstance(c, HSeries):
        return all(type(x) is int for x in c.nums + (c.den,))
    return type(c) in (int, Fraction)


def test_constants_stay_exact_on_the_scaled_double():
    """borel2_scaled has the constants 2 and +-1/2, so its double mixes int
    and Fraction structure constants; every left-normed basis bracket to
    length 4, every relation coefficient and every coproduct coefficient
    of its quantization at order 2 is exact."""
    data = Path(__file__).resolve().parent / "data" / "borel2_scaled.json"
    bia = bialgebra_from_json(json.loads(data.read_text()))
    Q = Quantization(stored_family(4), bia, order=2, varrho=stored_varrho(3))
    dd = Q.double.algebra
    kinds = set()
    for n in range(1, 5):
        for idx in itertools.product(range(dd.dim), repeat=n):
            for c in dd.leftnormed(idx).values():
                assert _exact_scalar(c), (idx, c)
                kinds.add(type(c))
    assert kinds == {int, Fraction}
    rels = Q.extract_relations()
    assert rels
    for k in rels.values():
        assert all(_exact_scalar(c) for c in k.terms.values())
    for i in range(bia.algebra.dim):
        assert all(_exact_scalar(c)
                   for c in t_comul(Q.tens_ctx, AssocPoly.gen(i)).values())


def test_semiclassical(Q2):
    assert Q2.semiclassical_check(0)    # delta(h) = 0
    assert Q2.semiclassical_check(1)    # delta(e) = h x e - e x h


def test_qfsh_membership(Q2):
    ctx = Q2.sh_ctx
    le = Q2.ell_generator(1)
    assert Q2.qfsh_membership(HSeries.hpow(1, 1, 2) * le, 2)
    assert not Q2.qfsh_membership(le, 2)
    assert Q2.qfsh_membership(ShElem.unit(ctx), 1)


def test_image_divisibility(Q2):
    """Im(ell) cap hbar Sh = hbar Im(ell) on a spanning set: any image
    element divisible by hbar is hbar times an image element."""
    # hbar * ell(x) is in the image of ell at the truncated order: solve
    x = AssocPoly.gen(1)
    z = HSeries.hpow(1, 1, 2) * Q2.ell(x)
    assert Q2.image_membership(z, 2)
    # and the quotient z / hbar is (trivially) an image element
    assert Q2.image_membership(Q2.ell(x), 2)
