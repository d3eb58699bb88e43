from fractions import Fraction

import pytest

from liequant.scalars import HSeries, add_term, as_series
from liequant.bfamily import solve_bfamily
from liequant.liealg import borel2, abelian_bialgebra
from liequant.quantize import Quantization, NotInKernel, QYBEFail
from liequant.shuffle import ShElem, TensElem, sh_mul
from liequant.universal import varrho_one, solve_varrho
from ell_oracle import ell_direct


@pytest.fixture(scope="module")
def Q2(B4, borel):
    return Quantization(B4, borel, order=2)


def test_rho_orders(B4, Q2):
    # order-1 term is r itself; order-2 term is 1/8 [a,a] x [b,b]
    d = 2
    assert Q2.rho[(0, d + 0)].coeff(1) == 1
    assert Q2.rho[(1, d + 1)].coeff(1) == 1
    # on borel2: kappa(rho_2)(r) = 1/8 [h,e] x [h*, e*]-combination
    vals2 = {k: c.coeff(2) for k, c in Q2.rho.items() if c.coeff(2)}
    assert vals2 == {(1, d + 1): Fraction(1, 4)}


def test_rho_abelian_is_hbar_r(B4):
    Qa = Quantization(B4, abelian_bialgebra(2), order=2)
    d = 2
    assert Qa.rho == {(i, d + i): HSeries.hpow(1, 1, 2) for i in range(2)}


def test_qybe_order1(B4, borel):
    Q1 = Quantization(B4, borel, order=1)
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


def test_equivalence_report(Q2):
    rep = Q2.equivalence_report()
    assert all(full == pr for (full, pr) in rep.values())
    assert all(full for (full, _) in rep.values())
    # the nonzero-residual direction of the equivalence is exercised at
    # order 3 in the acceptance suite (truncating rho first fails there)


def test_malta_identity(Q2):
    assert Q2.malta_check({1: varrho_one()})
    assert Q2.malta_check()


def test_ell_examples(Q2):
    tctx = Q2.tens_ctx()
    ctx = Q2.sh_ctx()
    assert Q2.ell(TensElem.unit(tctx)) == ShElem.unit(ctx)
    for i in range(2):
        le = Q2.ell(TensElem.word(tctx, (i,)))
        assert le.terms[(i,)].coeff(0) == 1
        for w, c in le.terms.items():
            if w != (i,):
                assert c.coeff(0) == 0
    # ell is an antimorphism: ell(x x y) mod hbar = (y)(x)
    le2 = Q2.ell(TensElem.word(tctx, (0, 1)))
    prod = sh_mul(ShElem.letter(ctx, 1), ShElem.letter(ctx, 0))
    h0 = {w: c.coeff(0) for w, c in le2.terms.items() if c.coeff(0)}
    p0 = {w: c.coeff(0) for w, c in prod.terms.items() if c.coeff(0)}
    assert h0 == p0


def test_ell_matches_direct_pairing(B4, borel):
    Q = Quantization(B4, borel, order=2, table_degree=4)
    tctx = Q.tens_ctx()
    for w in ((0,), (1,), (0, 1), (1, 0), (1, 1)):
        x = TensElem.word(tctx, w)
        assert Q.ell(x) == ell_direct(Q, x)


def test_ell_antihomomorphism(Q2):
    tctx = Q2.tens_ctx()
    x = TensElem.word(tctx, (0,))
    y = TensElem.word(tctx, (1, 1))
    assert Q2.ell(x * y) == sh_mul(Q2.ell(y), Q2.ell(x))


def test_beta_gamma(Q2, B4):
    alg = Q2.bia.algebra
    # beta_11(x, y) = 1/2 [x,y]; gamma_11(x, y) = -1/2 [x,y]
    for i in range(2):
        for j in range(2):
            br = alg.bracket(alg.basis(i), alg.basis(j))
            b11 = Q2.dual_block(1, 1, [alg.basis(i)], j)
            expect = {(k,): Fraction(1, 2) * c for k, c in br.items()}
            assert {k: v for k, v in b11.items()} == \
                {k: v for k, v in expect.items() if v}
            g11 = Q2.dual_block(1, 1, [alg.basis(i)], j, xi_right=True)
            expect_g = {(k,): Fraction(-1, 2) * c for k, c in br.items()}
            assert g11 == {k: v for k, v in expect_g.items() if v}


def test_beta_vanishes_abelian(B4):
    Qa = Quantization(B4, abelian_bialgebra(2), order=2)
    alg = Qa.bia.algebra
    for p in range(1, 3):
        for q in range(1, 3):
            if p + q < 2 or p + q > 4 or (p, q) == (1, 0):
                continue
            if p + q == 2 and False:
                continue
            blk = Qa.dual_block(p, q, [alg.basis(0)] * q, 1)
            if p + q >= 2:
                assert blk == {} or (p, q) == (1, 1) and blk == {}


def test_phi_psi_first_order(Q2):
    ctx = Q2.sh_ctx()
    tctx = Q2.tens_ctx()
    alg = Q2.bia.algebra
    for i in range(2):
        for j in range(2):
            ph = Q2.phi(ShElem.letter(ctx, i), TensElem.word(tctx, (j,)))
            br = alg.bracket(alg.basis(i), alg.basis(j))
            expect = {(k,): Fraction(1, 2) * c for k, c in br.items() if c}
            got0 = {w: c.coeff(0) for w, c in ph.terms.items() if c.coeff(0)}
            assert got0 == expect
            ps = Q2.psi(ShElem.letter(ctx, i), TensElem.word(tctx, (j,)))
            got0p = {w: c.coeff(0) for w, c in ps.terms.items() if c.coeff(0)}
            assert got0p == {k: -v for k, v in expect.items()}
    # phi(1, y) = y
    y = TensElem.word(tctx, (0, 1))
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


def test_relations_abelian(B4):
    Qa = Quantization(B4, abelian_bialgebra(2), order=2)
    rels = Qa.extract_relations()
    tctx = Qa.tens_ctx()
    for (i, j), k in rels.items():
        assert k == TensElem.word(tctx, (j, i)) - TensElem.word(tctx, (i, j))


def test_semiclassical(Q2):
    assert Q2.semiclassical_check(0)    # delta(h) = 0
    assert Q2.semiclassical_check(1)    # delta(e) = h x e - e x h


def test_qfsh_membership(Q2):
    ctx = Q2.sh_ctx()
    le = Q2.ell_generator(1)
    assert Q2.qfsh_membership(HSeries.hpow(1, 1, 2) * le, 2)
    assert not Q2.qfsh_membership(le, 2)
    assert Q2.qfsh_membership(ShElem.unit(ctx), 1)


def test_image_divisibility(Q2):
    """Im(ell) cap hbar Sh = hbar Im(ell) on a spanning set: any image
    element divisible by hbar is hbar times an image element."""
    tctx = Q2.tens_ctx()
    # hbar * ell(x) is in the image of ell at the truncated order: solve
    x = TensElem.word(tctx, (1,))
    z = HSeries.hpow(1, 1, 2) * Q2.ell(x)
    assert Q2.image_membership(z, 2)
    # and the quotient z / hbar is (trivially) an image element
    assert Q2.image_membership(Q2.ell(x), 2)
