"""Exact scalars: rationals and truncated formal power series in hbar.

All coefficients in the library are either `fractions.Fraction` (exact
rationals, always in lowest terms with positive denominator) or `HSeries`
(polynomials in hbar truncated at a fixed order, with Fraction
coefficients).  The two kinds mix freely in arithmetic; a Fraction is
treated as a constant series of infinite precision.
"""

from __future__ import annotations

import operator
from fractions import Fraction

#: default truncation order: series are kept modulo hbar^(DEFAULT_ORDER+1)
DEFAULT_ORDER = 4


class HSeries:
    """Truncated power series  c0 + c1*hbar + ... + cN*hbar^N  (mod hbar^(N+1)).

    Immutable.  Arithmetic between series of different orders truncates to
    the smaller order; arithmetic with plain rationals/integers keeps the
    order of the series operand.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        if order is None:
            order = DEFAULT_ORDER
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @staticmethod
    def _of(coeffs, order):
        """Trusted constructor: coeffs is already a tuple of order + 1
        Fractions, so the coercion of __init__ is skipped."""
        s = object.__new__(HSeries)
        s.coeffs = coeffs
        s.order = order
        return s

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c, order=None):
        return HSeries([Fraction(c)], order)

    @staticmethod
    def hbar(order=None):
        return HSeries([0, 1], order)

    @staticmethod
    def hpow(k, c=1, order=None):
        """c * hbar^k."""
        if order is None:
            order = DEFAULT_ORDER
        coeffs = [Fraction(0)] * (order + 1)
        if k <= order:
            coeffs[k] = Fraction(c)
        return HSeries(coeffs, order)

    # -- queries -----------------------------------------------------------

    def coeff(self, k):
        """Coefficient of hbar^k (0 beyond the truncation order)."""
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return Fraction(0)

    def valuation(self):
        """Smallest k with nonzero coefficient; None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_const(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, HSeries):
            n = min(self.order, other.order)
            return self.coeffs[: n + 1] == other.coeffs[: n + 1]
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        # hash as a constant when possible so mixed dicts behave
        if self.is_const():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, HSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return HSeries._of((Fraction(other),) + (Fraction(0),) * self.order,
                               self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # zip stops at the shorter tuple: the smaller order
        return HSeries._of(tuple(map(operator.add, self.coeffs, o.coeffs)),
                           min(self.order, o.order))

    __radd__ = __add__

    def __neg__(self):
        return HSeries._of(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return HSeries._of(tuple(out), n)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("HSeries with zero constant term is not invertible")
        n = self.order
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / c0
        for k in range(1, n + 1):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += self.coeffs[j] * inv[k - j]
            inv[k] = -s / c0
        return HSeries(inv, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def shift(self, k):
        """Multiply by hbar^k (k may be negative; dropping below hbar^0 errors)."""
        if k >= 0:
            return HSeries([Fraction(0)] * k + list(self.coeffs), self.order)
        if any(self.coeffs[:-k]):
            raise ValueError("negative hbar shift hits a nonzero low-order term")
        return HSeries(list(self.coeffs[-k:]) + [Fraction(0)] * (-k), self.order)

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


def as_series(c, order=None):
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
