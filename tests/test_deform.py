import random
from fractions import Fraction

import pytest

from liequant.deform import (matrix_algebra, AssocAlgebra, cybe, bbrack,
                             delta_p, aryeh_residual, recursion_residual,
                             half_r_squared, random_r, random_tensor)
from liequant.liealg import tensor_add, tensor_smul
from deform_oracle import kappa_cob, obstruction_check

M2 = matrix_algebra(2)
R_CYBE = {(1, 1): Fraction(1)}      # e12 x e12


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
        brute = tensor_add(brute, t_comm(M2, place(M2, r, s1, 3), place(M2, R, s2, 3)))
        brute = tensor_add(brute, t_comm(M2, place(M2, R, s1, 3), place(M2, r, s2, 3)))
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
    one = {(a, b): ca * cb for a, ca in M2.unit.items()
           for b, cb in M2.unit.items()}
    for _ in range(3):
        r = random_r(M2, rng)
        rho = random_tensor(M2, 3, rng, 3)
        assert delta_p(M2, one, rho, 3) == {}
        f = {t: delta_p(M2, tensor_add(one, tensor_smul(Fraction(t), r)), rho, 3)
             for t in (1, 2, 3)}
        # f(t) = a t + b t^2 + c t^3  =>  a = 3 f(1) - 3/2 f(2) + 1/3 f(3)
        linear = tensor_add(tensor_add(tensor_smul(Fraction(3), f[1]),
                                       tensor_smul(Fraction(-3, 2), f[2])),
                            tensor_smul(Fraction(1, 3), f[3]))
        assert linear and linear == delta_p(M2, r, rho, 1)


def test_aryeh_identity_20_trials():
    rng = random.Random(7)
    for _ in range(20):
        R = random_r(M2, rng)
        for p in range(0, 4):
            assert aryeh_residual(M2, R, p) == {}


def test_recursion_residual():
    rr = half_r_squared(M2, R_CYBE)
    assert recursion_residual(M2, R_CYBE, [R_CYBE, rr], 3) == {}
    x = {0: Fraction(2), 3: Fraction(-1)}
    rr2 = tensor_add(rr, kappa_cob(M2, R_CYBE, x))
    assert recursion_residual(M2, R_CYBE, [R_CYBE, rr2], 3) == {}
    # empty sums at N where nothing contributes
    assert recursion_residual(M2, {}, [{}], 2) == {}


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
