import math
import random
from fractions import Fraction

import pytest

from liequant.bfamily import solve_bfamily
from liequant.freealg import AssocPoly, LiePoly
from liequant.liealg import borel2
from liequant.scalars import (HSeries, LinComb, add_term, distribute, lincomb,
                              pr_legs, scalar_str, scalar_from_json)
from liequant.shuffle import ShContext, ShElem, ShTensor
from liequant.unitensor import UElem


def hbar(order):
    """The series hbar truncated at order."""
    return HSeries((0, 1), order)


def test_truncation_to_min_order():
    a = HSeries([1, 1, 1, 1], 3)
    b = HSeries([1, 2], 1)
    s = a + b
    assert s.order == 1
    assert s.coeffs == (Fraction(2), Fraction(3))


def test_product_truncates():
    h = hbar(2)
    assert (h * h * h) == 0
    assert (h * h).coeff(2) == 1


def test_inverse_round_trip():
    a = HSeries([1, 3, -2, 5], 4)
    assert a.inverse() * a == 1
    with pytest.raises(ZeroDivisionError):
        hbar(3).inverse()


def test_shift_guard():
    h2 = HSeries.hpow(2, 7, 4)
    assert h2.shift(-2) == HSeries.const(7, 4)
    with pytest.raises(ValueError):
        HSeries.const(1, 3).shift(-1)


def test_mixing_with_fractions():
    h = hbar(3)
    x = Fraction(1, 2) + h
    assert x.coeff(0) == Fraction(1, 2) and x.coeff(1) == 1
    assert (Fraction(2) * h).coeff(1) == 2


# ---------------------------------------------------------------------------
# the integer kernel of HSeries against a naive Fraction-tuple oracle
# ---------------------------------------------------------------------------

def _o_lift(x, n):
    """The oracle's coefficient tuple of a series or a scalar at order n."""
    if isinstance(x, tuple):
        return x[: n + 1]
    return (Fraction(x),) + (Fraction(0),) * n


def _o_order(x, y):
    return min(len(z) - 1 for z in (x, y) if isinstance(z, tuple))


def _o_add(x, y):
    n = _o_order(x, y)
    return tuple(a + b for a, b in zip(_o_lift(x, n), _o_lift(y, n)))


def _o_neg(x):
    return tuple(-a for a in x) if isinstance(x, tuple) else -x


def _o_mul(x, y):
    n = _o_order(x, y)
    a, b = _o_lift(x, n), _o_lift(y, n)
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(n + 1))


def _o_eq(x, y):
    n = _o_order(x, y)
    return _o_lift(x, n) == _o_lift(y, n)


def _o_inverse(x):
    inv = [1 / x[0]]
    for k in range(1, len(x)):
        inv.append(-sum(x[j] * inv[k - j] for j in range(1, k + 1)) / x[0])
    return tuple(inv)


def _o_shift(x, k):
    if k >= 0:
        return ((Fraction(0),) * k + x)[: len(x)]
    if any(x[:-k]):
        return ValueError
    return (x[-k:] + (Fraction(0),) * -k)[: len(x)]


def _random_rational(rng):
    if rng.random() < 0.25:
        return 0
    c = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9)))
    return int(c) if c.denominator == 1 and rng.random() < 0.5 else c


def _random_series(rng):
    """(HSeries, oracle tuple): mixed orders, zero series, high valuations
    (so that products truncate to zero) and every constructor."""
    order = rng.randint(0, 4)
    low = rng.choice((0, 0, 0, 1, 2, order))
    coeffs = [0] * low + [_random_rational(rng) for _ in range(rng.randint(1, order + 2))]
    kind = rng.random()
    if kind < 0.15:
        c = rng.choice((0, 1, -2, Fraction(3, 4)))
        k = rng.randint(0, order + 1)
        s = HSeries.const(c, order) if k == 0 else HSeries.hpow(k, c, order)
        coeffs = [0] * k + [c]
    else:
        if kind < 0.25:
            coeffs = []
        s = HSeries(coeffs, order)
    want = tuple(Fraction(c) for c in coeffs[: order + 1])
    return s, want + (Fraction(0),) * (order + 1 - len(want))


def _assert_kernel(s, want):
    """s holds the oracle's coefficients, in lowest terms over one
    positive denominator (the zero series as all zeros over 1)."""
    assert s.coeffs == want and s.order == len(want) - 1
    assert type(s.nums) is tuple and len(s.nums) == len(want)
    assert all(type(x) is int for x in s.nums) and type(s.den) is int
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert [s.coeff(k) for k in range(-1, len(want) + 1)] == [0, *want, 0]
    assert scalar_str(s) == [str(c) for c in want]


def test_hseries_kernel_matches_fraction_oracle():
    rng = random.Random(18)
    truncated = zeros = 0
    for _ in range(600):
        (x, ox), (y, oy) = _random_series(rng), _random_series(rng)
        c = _random_rational(rng)
        _assert_kernel(x, ox)
        _assert_kernel(-x, _o_neg(ox))
        for got, want in ((x + y, _o_add(ox, oy)), (x - y, _o_add(ox, _o_neg(oy))),
                          (x * y, _o_mul(ox, oy)),
                          (x + c, _o_add(ox, c)), (c + x, _o_add(c, ox)),
                          (x - c, _o_add(ox, -c)), (c - x, _o_add(c, _o_neg(ox))),
                          (x * c, _o_mul(ox, c)), (c * x, _o_mul(c, ox))):
            _assert_kernel(got, want)
        if x and y and not x * y:
            truncated += 1
        zeros += not x
        xyy = _o_add(_o_add(ox, oy), _o_neg(oy))
        for a, oa, b, ob in ((x, ox, y, oy), (x, ox, c, c), (c, c, x, ox),
                             (x, ox, x * 1, ox), (x, ox, x + y - y, xyy)):
            assert (a == b) is _o_eq(oa, ob) and (a != b) is not _o_eq(oa, ob)
        assert (x == y) is (y == x)
        if x.order == y.order and x == y:
            assert hash(x) == hash(y)
        if not any(ox[1:]):
            assert hash(x) == hash(ox[0]) and x == ox[0]
        if ox[0]:
            _assert_kernel(x.inverse(), _o_inverse(ox))
            _assert_kernel(y / x, _o_mul(oy, _o_inverse(ox)))
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        if c:
            _assert_kernel(x / c, _o_mul(ox, 1 / Fraction(c)))
        for k in range(-3, 4):
            want = _o_shift(ox, k)
            if want is ValueError:
                with pytest.raises(ValueError):
                    x.shift(k)
            else:
                _assert_kernel(x.shift(k), want)
    assert truncated > 10 and zeros > 10


def test_json_forms():
    assert scalar_str(Fraction(3, 4)) == "3/4"
    s = HSeries([0, 1, Fraction(1, 2)], 2)
    assert scalar_from_json(scalar_str(s)) == s
    assert scalar_from_json("3/4") == Fraction(3, 4)


# ---------------------------------------------------------------------------
# the shared sparse arithmetic of the five linear-combination classes
# ---------------------------------------------------------------------------

ORDER = 2
SERIES_KINDS = ("AssocPoly", "ShElem", "ShTensor")


def _context():
    fam = solve_bfamily(Fraction(1, 2), 2, "rref-zero")
    return ShContext(borel2().algebra, fam, ORDER)


def _kinds():
    """kind -> (class, builder from a terms dict, three distinct keys)."""
    sctx = _context()
    a0, b0, b1 = ((0, 0),), ((0, 1),), ((1, 1),)     # single-atom letters
    return {
        "AssocPoly": (AssocPoly, AssocPoly, [(0,), (0, 1), (1, 0)]),
        "LiePoly": (LiePoly, LiePoly, [(0,), (1,), (0, 1)]),
        "ShElem": (ShElem, lambda t: ShElem(sctx, t), [(0,), (1,), (0, 1)]),
        "ShTensor": (ShTensor, lambda t: ShTensor(sctx, 2, t),
                     [((0,), ()), ((), (1,)), ((0,), (1,))]),
        "UElem": (UElem, lambda t: UElem(2, t),
                  [((a0,), ()), ((), (b0,)), ((a0,), (b0, b1))]),
    }


@pytest.mark.parametrize("kind", ["AssocPoly", "LiePoly", "ShElem", "ShTensor", "UElem"])
def test_lincomb_arithmetic(kind):
    cls, make, (k0, k1, k2) = _kinds()[kind]
    assert issubclass(cls, LinComb)
    assert not {"__bool__", "__add__", "__neg__", "__sub__", "__rmul__"} & set(vars(cls))
    x = make({k0: Fraction(1, 2), k1: Fraction(-3)})
    y = make({k1: Fraction(3), k2: Fraction(5)})
    zero = x - x
    assert not zero and zero.terms == {}
    assert not 0 * x and (0 * x).terms == {}
    assert (x + y) - y == x
    assert x + y == make({k0: Fraction(1, 2), k2: Fraction(5)})
    assert -x + x == zero and 2 * x == x + x and x != y
    for z in (x + y, x - y, -x, 3 * y):
        assert all(z.terms.values())
    if kind in SERIES_KINDS:
        h = hbar(ORDER)
        s = make({k0: 1 + h, k1: h}) + make({k0: -1 - h})
        assert list(s.terms) == [k1] and s.terms[k1] == h
        # a coefficient that truncates to zero drops its key as well
        top = HSeries.hpow(ORDER, 1, ORDER)
        assert (h * make({k0: top, k1: 1})).terms == {k1: h}


def test_lincomb_leg_counts_differ():
    sctx = _context()
    key = (((0, 0),), ((0, 1),))
    assert UElem(2, {key: Fraction(1)}) != UElem(3, {key: Fraction(1)})
    assert UElem.zero(2) != UElem.zero(3) and UElem.zero(2) == UElem.zero(2)
    assert ShTensor(sctx, 2, {((0,), (1,)): 1}) != ShTensor(sctx, 3, {((0,), (1,)): 1})
    assert ShTensor(sctx, 2, {}) != ShTensor(sctx, 3, {})


def test_leg_operations_shared():
    """place, comul_leg and pr_legs act on the keys alone, so a UElem and
    a ShTensor with the same keys give the same key sets."""
    rng = random.Random(10)
    sctx = _context()
    letters = [((p, s),) for p in range(3) for s in (0, 1)]
    for _ in range(5):
        terms = {((letters[0],), (letters[1],)): Fraction(1)}
        for _ in range(8):
            key = tuple(tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                        for _ in range(2))
            terms[key] = Fraction(rng.randint(1, 5))
        u, s = UElem(2, terms), ShTensor(sctx, 2, terms)
        for spots in ((1, 3), (3, 2), (2, 1)):
            legs = max(spots)
            assert u.place(spots, legs).legs == s.place(spots, legs).legs == legs
            assert set(u.place(spots, legs).terms) == set(s.place(spots, legs).terms)
        for leg in (0, 1):
            assert set(u.comul_leg(leg).terms) == set(s.comul_leg(leg).terms)
        assert set(pr_legs(u.terms)) == set(pr_legs(s.terms)) != set()
        swapped = {(k[1], k[0]): c for k, c in terms.items()}
        assert u.place((2, 1), 2) == UElem(2, swapped)
        assert s.place((2, 1), 2) == ShTensor(sctx, 2, swapped)
        for x in (u, s):
            assert x.comul_leg(0).comul_leg(0) == x.comul_leg(0).comul_leg(1)
            assert x.comul_leg(1).comul_leg(1) == x.comul_leg(1).comul_leg(2)
            assert x.comul_leg(0).legs == 3
            assert x.reverse_leg(1) == x.map_leg(1, lambda w: {w[::-1]: 1})


def test_add_term_never_stores_zero():
    h = hbar(2)
    d = {}
    for k, c in (("a", 0), ("b", Fraction(0)), ("c", HSeries([0, 0], 1)),
                 ("d", h * HSeries.hpow(2, 1, 2))):
        add_term(d, k, c)
    assert d == {}
    add_term(d, "x", Fraction(1, 2))
    add_term(d, "x", Fraction(-1, 2))
    add_term(d, "h", h)
    add_term(d, "h", -h)
    assert d == {}
    add_term(d, "y", 1)
    add_term(d, "y", Fraction(2))
    add_term(d, "y", 0)
    assert d == {"y": 3}
    # lincomb adds up sum c * t by add_term: no pair gives {}, and a
    # cancelling coefficient leaves no key
    assert lincomb([]) == {}
    assert lincomb([(Fraction(1, 2), {1: 2, 0: 1}), (Fraction(-1), {1: 1})]) \
        == {0: Fraction(1, 2)}


class _Word(tuple):
    """A noncommutative scalar: the product concatenates."""

    def __mul__(self, other):
        return _Word(tuple(self) + tuple(other))


def test_distribute():
    # keys in lexicographic order of the choices, for lists, tuples and dict views
    x = [("a", 2), ("b", 3)]
    y = {"u": 5, "v": 7}
    assert distribute([x, y.items()], 11) == [
        (("a", "u"), 110), (("a", "v"), 154), (("b", "u"), 165), (("b", "v"), 231)]
    assert distribute(((("p", 1),), x)) == [(("p", "a"), 2), (("p", "b"), 3)]
    # coefficients multiply left to right: c * c_1 * c_2
    w = distribute([[("a", _Word("x")), ("b", _Word("y"))], [("c", _Word("z"))]],
                   _Word("c"))
    assert w == [(("a", "c"), ("c", "x", "z")), (("b", "c"), ("c", "y", "z"))]
    # no factors: the scalar itself on the empty key
    assert distribute([], Fraction(5)) == [((), Fraction(5))]
    assert distribute(iter(())) == [((), 1)]
    # an empty factor stops the expansion; later factors are never read
    read = []

    def factors():
        for name, factor in (("x", x), ("empty", []), ("later", [("c", 1)])):
            read.append(name)
            yield factor

    assert distribute(factors(), 1) == []
    assert read == ["x", "empty"]
