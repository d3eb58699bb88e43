"""Constructions on 3- and 4-slot classes that only the tests use: the
placed formal pair and the commutator of u_mul products (the oracle for
the coboundaries' concatenation), the normal ordering of a tensor of Lie
letters with its Lie check, the product of 3-slot classes and the
entretien CYBE sums."""

from liequant.rmatrix import _shift_pids, pair_elem
from liequant.unitensor import UElem, u_mul
from liequant.universal import normal_order
from class_oracle import lie_form

CONC3 = ("conc",) * 3
CONC4 = ("conc",) * 4


def r_pair(pid, spots, legs):
    """r^(spots) for one formal pair: a in spots[0], b in spots[1]."""
    return pair_elem(pid).place(spots, legs)


def _comm(x, y, modes):
    return u_mul(x, y, modes) - u_mul(y, x, modes)


def mu_lie(elem3):
    """Normal ordering of a 3-slot tensor of Lie letters; asserts that the
    output is again a tensor of Lie polynomials (middle slot pure)."""
    res = normal_order(elem3)
    for k in res.terms:
        mid_sides = [a[1] for letter in k[1] for a in letter]
        assert not (0 in mid_sides and 1 in mid_sides), \
            "mixed middle slot survived normal ordering of Lie input"
    lie_form(res)  # raises if any slot fails to be a Lie polynomial
    return res


def f3_mul(x, y):
    """Product of 3-slot classes: slotwise concatenation + normal order."""
    shift = max(x.pids(), default=-1) + 1
    y2 = _shift_pids(y, shift)
    return normal_order(u_mul(x, y2, CONC3))


def entretien_cybe(i, j, k):
    """[r^(ij), r^(ik)] + [r^(ij), r^(jk)] + [r^(ik), r^(jk)] in 4 slots."""
    acc = UElem.zero(4)
    for (s1, s2) in (((i, j), (i, k)), ((i, j), (j, k)), ((i, k), (j, k))):
        acc = acc + _comm(r_pair(0, s1, 4), r_pair(1, s2, 4), CONC4)
    return normal_order(acc)
