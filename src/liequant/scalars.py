"""Exact scalars: rationals and truncated formal power series in hbar.

All coefficients in the library are either `fractions.Fraction` (exact
rationals, always in lowest terms with positive denominator) or `HSeries`
(polynomials in hbar truncated at a fixed order).  A series keeps int
numerators over one common denominator, and `+`, `-` and `*` work on those
ints; Fractions are built at the edges only: where coefficients are read
(`coeff`, `coeffs`, `scalar_str`, `repr`), in `inverse` and in the hash of
a constant.  The two kinds mix freely in arithmetic; a Fraction is treated
as a constant series of infinite precision.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

def _series(nums, den, order):
    """The series sum_k nums[k]/den * hbar^k (nums a tuple of order + 1
    ints, den > 0), reduced to lowest terms with one gcd."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
    s = object.__new__(HSeries)
    s.nums = nums
    s.den = den
    s.order = order
    return s


class HSeries:
    """Truncated power series  c0 + c1*hbar + ... + cN*hbar^N  (mod hbar^(N+1)).

    Immutable.  c_k = nums[k] / den: N + 1 int numerators over one positive
    denominator, in lowest terms (gcd(den, *nums) == 1), so the zero series
    is all zeros over 1 and equal series of equal order have equal fields.
    Arithmetic between series of different orders truncates to the smaller
    order; arithmetic with plain rationals/integers keeps the order of the
    series operand.
    """

    __slots__ = ("nums", "den", "order")

    def __init__(self, coeffs, order):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in coeffs[: order + 1]]
        # over the lcm of reduced denominators the numerators are coprime to it
        den = math.lcm(*[c.denominator for c in cs])
        self.nums = (tuple([c.numerator * (den // c.denominator) for c in cs])
                     + (0,) * (order + 1 - len(cs)))
        self.den = den
        self.order = order

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c, order):
        return HSeries((c,), order)

    @staticmethod
    def hbar(order):
        return HSeries((0, 1), order)

    @staticmethod
    def hpow(k, c, order):
        """c * hbar^k."""
        return HSeries((0,) * k + (c,), order)

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients c0..cN as Fractions."""
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def coeff(self, k):
        """Coefficient of hbar^k (0 beyond the truncation order)."""
        if 0 <= k <= self.order:
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def valuation(self):
        """Smallest k with nonzero coefficient; None for the zero series."""
        for k, x in enumerate(self.nums):
            if x:
                return k
        return None

    def is_const(self):
        return not any(self.nums[1:])

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, HSeries):
            if self.order == other.order:
                return self.nums == other.nums and self.den == other.den
            da, db = self.den, other.den
            # zip stops at the shorter tuple: the smaller order
            return all(a * db == b * da for a, b in zip(self.nums, other.nums))
        if isinstance(other, (int, Fraction)):
            return (self.nums[0] * other.denominator == other.numerator * self.den
                    and self.is_const())
        return NotImplemented

    def __hash__(self):
        # hash as a constant when possible so mixed dicts behave
        if self.is_const():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HSeries):
            b, db, order = other.nums, other.den, min(self.order, other.order)
        elif isinstance(other, (int, Fraction)):
            b, db, order = (other.numerator,), other.denominator, self.order
        else:
            return NotImplemented
        a, da = self.nums, self.den
        if da != db:
            g = math.gcd(da, db)
            a = [x * (db // g) for x in a]
            b = [y * (da // g) for y in b]
            da *= db // g
        # map stops at the shorter operand; a scalar b leaves a[1:] as is
        return _series(tuple(map(operator.add, a, b)) + tuple(a[len(b): order + 1]),
                       da, order)

    __radd__ = __add__

    def __neg__(self):
        return _series(tuple([-x for x in self.nums]), self.den, self.order)

    def __sub__(self, other):
        if isinstance(other, (HSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HSeries):
            a, b = self.nums, other.nums
            n = min(self.order, other.order)
            out = [0] * (n + 1)
            for i in range(n + 1):
                x = a[i]
                if x:
                    for j in range(n + 1 - i):
                        y = b[j]
                        if y:
                            out[i + j] += x * y
            return _series(tuple(out), self.den * other.den, n)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _series(tuple([x * p for x in self.nums]),
                           self.den * other.denominator, self.order)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        cs = self.coeffs
        c0 = cs[0]
        if c0 == 0:
            raise ZeroDivisionError("HSeries with zero constant term is not invertible")
        inv = [1 / c0]
        for k in range(1, self.order + 1):
            inv.append(-sum(cs[j] * inv[k - j] for j in range(1, k + 1)) / c0)
        return HSeries(inv, self.order)

    def __truediv__(self, other):
        if isinstance(other, HSeries):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("HSeries with zero constant term is not invertible")
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def shift(self, k):
        """Multiply by hbar^k (k may be negative; dropping below hbar^0 errors)."""
        nums, n = self.nums, self.order + 1
        if k >= 0:
            return _series(((0,) * k + nums)[:n], self.den, self.order)
        if any(nums[:-k]):
            raise ValueError("negative hbar shift hits a nonzero low-order term")
        return _series((nums[-k:] + (0,) * -k)[:n], self.den, self.order)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*h" if c != 1 else "h")
            else:
                parts.append(f"{c}*h^{k}" if c != 1 else f"h^{k}")
        return " + ".join(parts) if parts else "0"


def as_series(c, order):
    """Coerce a scalar to HSeries."""
    if isinstance(c, HSeries):
        return c
    return HSeries.const(c, order)


def surviving_pairs(left, right):
    """Term pairs (k1, c1, k2, c2) of two hbar-series tables whose product
    can be nonzero, in the order of the plain double loop.

    A pair with v(c1) + v(c2) > min(c1.order, c2.order) truncates to
    exactly zero, so products skip it.  Valuations are read once per
    term, and the kept right-hand terms once per left-hand (valuation,
    order) grade, so the bookkeeping is O(n + m * grades), not O(n * m).
    """
    rhs = [(k, c, c.valuation(), c.order) for k, c in right.items()]
    kept = {}
    for k1, c1 in left.items():
        grade = (c1.valuation(), c1.order)
        row = kept.get(grade)
        if row is None:
            v1, o1 = grade
            row = kept[grade] = [(k2, c2) for k2, c2, v2, o2 in rhs
                                 if v1 + v2 <= min(o1, o2)]
        for k2, c2 in row:
            yield k1, c1, k2, c2


def distribute(factors, c=1):
    """Expand c * prod_i (sum_j c_ij x_ij) into a list of (key, coeff).

    Each factor is a re-iterable sequence of (x, coeff) pairs; a key is
    the tuple (x_1j1, x_2j2, ...) of one choice per factor.  Keys come in
    lexicographic order of the choices and coefficients multiply left to
    right, c * c_1j1 * c_2j2 * ...; repeats are kept.  `factors` is read
    lazily and the expansion stops at the first empty factor, so later
    factors are never computed.  No factors give [((), c)].
    """
    out = [((), c)]
    for factor in factors:
        out = [(key + (x,), cc * cx) for key, cc in out for x, cx in factor]
        if not out:
            break
    return out


def add_term(d, k, c):
    """d[k] += c in a sparse dict that never stores a zero coefficient."""
    v = d.get(k)
    if v is None:
        if c:
            d[k] = c
    else:
        v = v + c
        if v:
            d[k] = v
        else:
            del d[k]


def lincomb(pairs):
    """sum c * t over (c, t) pairs of sparse dicts, added up in one dict
    by add_term; each product is c * coefficient, c on the left."""
    out = {}
    for c, t in pairs:
        for k, x in t.items():
            add_term(out, k, c * x)
    return out


class LinComb:
    """Finite linear combination: `terms` maps keys to nonzero scalars.

    Each subclass's constructor normalizes keys and coefficients and
    drops zero coefficients (scaling relies on that); `_like(terms)`
    builds an element of the same kind, context and legs.  Subclasses
    supply their own products.

    The kinds with legs (`ShTensor`, `UElem`) key a term by one word per
    leg and take `_like(terms, legs)` for another leg count; the leg maps
    below are theirs.
    """

    __slots__ = ("terms",)
    legs = None     # tensor leg count, for the kinds that have legs

    def _like(self, terms):
        raise NotImplementedError

    def place(self, spots, legs):
        """Spread the legs of self into the given 1-based spots of `legs`
        legs, with the empty word (the unit) in the others."""
        out = {}
        for k, c in self.terms.items():
            key = [()] * legs
            for spot, w in zip(spots, k):
                key[spot - 1] = w
            out[tuple(key)] = c
        return self._like(out, legs)

    def comul_leg(self, leg):
        """Deconcatenate one leg, producing legs+1 legs (split in place)."""
        out = {}
        for k, c in self.terms.items():
            w = k[leg]
            for i in range(len(w) + 1):
                add_term(out, k[:leg] + (w[:i], w[i:]) + k[leg + 1:], c)
        return self._like(out, self.legs + 1)

    def reverse_leg(self, leg):
        """Reverse the word in one leg."""
        out = {}
        for k, c in self.terms.items():
            add_term(out, k[:leg] + (tuple(reversed(k[leg])),) + k[leg + 1:], c)
        return self._like(out)

    def map_leg(self, leg, fn):
        """Apply a linear map of words, fn(word) -> {word: coeff}, to one leg."""
        out = {}
        for k, c in self.terms.items():
            for w, cw in fn(k[leg]).items():
                add_term(out, k[:leg] + (w,) + k[leg + 1:], c * cw)
        return self._like(out)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c):
        return self._like({k: c * v for k, v in self.terms.items()})


def pr_legs(terms):
    """The degree-one projection of every leg of a tensor table: the
    terms whose legs are all single letters, keyed by those letters."""
    out = {}
    for k, c in terms.items():
        if all(len(w) == 1 for w in k):
            add_term(out, tuple(w[0] for w in k), c)
    return out


def scalar_str(c):
    """Serialize a scalar: "p/q" for rationals, list of such for series."""
    if isinstance(c, HSeries):
        return [str(x) for x in c.coeffs]
    return str(Fraction(c))


def scalar_from_json(v, order=None):
    if isinstance(v, list):
        return HSeries([Fraction(x) for x in v], order if order is not None else len(v) - 1)
    return Fraction(v)
