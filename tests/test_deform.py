import itertools
import random
from fractions import Fraction

import pytest

import deform_oracle
from liequant import deform
from liequant.deform import (matrix_algebra, AssocAlgebra, cybe, bbrack,
                             delta_p, aryeh_residual, recursion_residual,
                             half_r_squared, random_r, random_tensor,
                             _ordered_triple)
from liequant.liealg import tensor_add, tensor_smul
from deform_oracle import expanded_place, kappa_cob, obstruction_check

M2 = matrix_algebra(2)
R_CYBE = {(1, 1): Fraction(1)}      # e12 x e12
ONE = {(a, b): ca * cb for a, ca in M2.unit.items()     # 1 x 1
       for b, cb in M2.unit.items()}


def test_matrix_algebra_valid():
    matrix_algebra(3)
    with pytest.raises(ValueError):
        AssocAlgebra(1, ["x"], {(0, 0): {0: Fraction(2)}}, {0: Fraction(1)})


def test_bbrack_examples():
    rng = random.Random(7)
    assert bbrack(M2, R_CYBE, {}) == {}
    for _ in range(5):
        r = random_r(M2, rng)
        assert bbrack(M2, r, r) == tensor_smul(Fraction(2), cybe(M2, r))
    # brute-force index-placement oracle for one random pair
    r = random_r(M2, rng)
    R = random_r(M2, rng)
    from liequant.deform import place, t_comm
    brute = {}
    for s1, s2 in (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))):
        brute = tensor_add(brute, t_comm(M2, place(r, s1, 3), place(R, s2, 3)))
        brute = tensor_add(brute, t_comm(M2, place(R, s1, 3), place(r, s2, 3)))
    assert bbrack(M2, r, R) == brute


def test_delta_r_examples():
    rng = random.Random(8)
    assert delta_p(M2, R_CYBE, {}, 1) == {}
    for _ in range(5):
        R = random_r(M2, rng)
        assert delta_p(M2, R_CYBE, bbrack(M2, R_CYBE, R), 1) == {}
    # negative control: generic r fails the composition
    found = False
    for _ in range(6):
        r = random_r(M2, rng)
        if cybe(M2, r):
            rho = random_tensor(M2, 3, rng, 3)
            if delta_p(M2, r, bbrack(M2, r, rho), 1):
                found = True
                break
    assert found


def test_delta_p_family():
    rng = random.Random(9)
    R = random_r(M2, rng)
    rho = random_tensor(M2, 3, rng, 3)
    assert delta_p(M2, R, rho, 0) == {}
    # delta_1 kills CYB(R) for every R, CYBE solution or not
    assert cybe(M2, R) and delta_p(M2, R, cybe(M2, R), 1) == {}
    assert delta_p(M2, R, rho, 5) == {}


def test_delta_p1_is_linear_term_of_delta_p3():
    """delta_p(R, rho, 3) at R = 1 + t r is a cubic in t with no constant
    term; its t-linear part is delta_p(r, rho, 1), the four-slot table."""
    rng = random.Random(4)
    for _ in range(3):
        r = random_r(M2, rng)
        rho = random_tensor(M2, 3, rng, 3)
        assert delta_p(M2, ONE, rho, 3) == {}
        f = {t: delta_p(M2, tensor_add(ONE, tensor_smul(Fraction(t), r)), rho, 3)
             for t in (1, 2, 3)}
        # f(t) = a t + b t^2 + c t^3  =>  a = 3 f(1) - 3/2 f(2) + 1/3 f(3)
        linear = tensor_add(tensor_add(tensor_smul(Fraction(3), f[1]),
                                       tensor_smul(Fraction(-3, 2), f[2])),
                            tensor_smul(Fraction(1, 3), f[3]))
        assert linear and linear == delta_p(M2, r, rho, 1)


def test_aryeh_identity_20_trials():
    """The identity on 20 seeded R.  Its zero is a cancellation: in the
    first trial both summands are nonzero at p = 1 and 2."""
    rng = random.Random(7)
    for trial in range(20):
        R = random_r(M2, rng)
        for p in range(0, 4):
            assert aryeh_residual(M2, R, p) == {}
        if trial == 0:
            for p in (1, 2):
                assert delta_p(M2, R, _ordered_triple(M2, R, R, R), p)
                assert delta_p(M2, R, cybe(M2, R), p + 1)


def test_cybe_props_identity_is_a_cancellation():
    """The nonzero control of `cybe-props`: on its first seeded draw of R
    on M2 and on M3, both summands of the identity are nonzero at p = 1
    and 2 (72 and 70 terms on M2) and their sum is zero."""
    for alg in (M2, matrix_algebra(3)):
        R = random_r(alg, random.Random(7))
        for p in (1, 2):
            first = delta_p(alg, R, _ordered_triple(alg, R, R, R), p)
            second = delta_p(alg, R, cybe(alg, R), p + 1)
            assert first and second
            assert tensor_add(first, second) == {}


def test_recursion_residual():
    rr = half_r_squared(M2, R_CYBE)
    assert recursion_residual(M2, R_CYBE, [R_CYBE, rr], 3) == {}
    x = {0: Fraction(2), 3: Fraction(-1)}
    rr2 = tensor_add(rr, kappa_cob(M2, R_CYBE, x))
    assert recursion_residual(M2, R_CYBE, [R_CYBE, rr2], 3) == {}
    # empty sums at N where nothing contributes
    assert recursion_residual(M2, {}, [{}], 2) == {}


def test_recursion_residual_reads_R0_at_N4():
    """N = 4 is the first order whose sum holds R_0 = 1 x 1 (p, q or s
    zero); compare with that sum written out, 1 x 1 expanded over the
    unit of M2."""
    rng = random.Random(12)
    r = random_r(M2, rng)
    R2, R3 = random_tensor(M2, 2, rng, 2), random_tensor(M2, 2, rng, 2)
    full = [ONE, r, R2]
    want = positive = bbrack(M2, r, R3)
    for p, q, s in itertools.product(range(3), repeat=3):
        if p + q + s == 4:
            triple = _ordered_triple(M2, full[p], full[q], full[s])
            want = tensor_add(want, triple)
            if 0 not in (p, q, s):
                positive = tensor_add(positive, triple)
    got = recursion_residual(M2, r, [r, R2, R3], 4)
    assert got == want and got != positive


def _deform_outputs(alg, seed):
    """Every map of deform (and kappa_cob) on inputs drawn from seed."""
    rng = random.Random(seed)
    r = random_r(alg, rng)
    R2, R3 = random_tensor(alg, 2, rng, 2), random_tensor(alg, 2, rng, 2)
    rho = random_tensor(alg, 3, rng, 3)
    out = {"cybe": cybe(alg, r), "bbrack": bbrack(alg, r, R2),
           "half_r_squared": half_r_squared(alg, r),
           "kappa_cob": kappa_cob(alg, r, {0: Fraction(2), alg.dim - 1: Fraction(-1)})}
    for p in (1, 2, 3):
        out["delta_%d" % p] = delta_p(alg, r, rho, p)
    for p in range(4):
        out["aryeh_%d" % p] = aryeh_residual(alg, r, p)
    for N in (3, 4):
        out["recursion_%d" % N] = recursion_residual(alg, r, [r, R2, R3], N)
    return out


@pytest.mark.parametrize("n, seed", [(2, 4), (3, 4)])
def test_unit_slots_match_expanded_placement(monkeypatch, n, seed):
    """place leaves None in unit slots; no map returns a key holding None,
    and each equals its value with the unit written out in every slot."""
    alg = matrix_algebra(n)
    got = _deform_outputs(alg, seed)
    expanded = lambda t, spots, k: expanded_place(alg, t, spots, k)
    monkeypatch.setattr(deform, "place", expanded)
    monkeypatch.setattr(deform_oracle, "place", expanded)
    want = _deform_outputs(alg, seed)
    for name, t in got.items():
        assert not any(None in k for k in t), name
        assert t == want[name], name
    assert all(t for name, t in got.items() if not name.startswith("aryeh"))


def test_obstruction_check():
    rr = half_r_squared(M2, R_CYBE)
    assert obstruction_check(M2, R_CYBE, [R_CYBE, rr], 4) == {}
    x = {0: Fraction(1)}
    rr2 = tensor_add(rr, kappa_cob(M2, R_CYBE, x))
    assert obstruction_check(M2, R_CYBE, [R_CYBE, rr2], 4) == {}
    rng = random.Random(3)
    bad = tensor_add(rr, random_r(M2, rng))
    with pytest.raises(ValueError):
        obstruction_check(M2, R_CYBE, [R_CYBE, bad], 4)
