"""Exact sparse linear algebra over the rationals.

One incremental echelon answers every rank, kernel and solve question.
Vectors are dicts {key: Fraction or int} with any hashable keys and no
stored zeros (the `scalars.add_term` rule); the unknowns are the
positions of the vectors in their sequence.  The answers are those of the
dense reduced row echelon form of the matrix whose columns are the
vectors: the pivot columns, its nullspace basis and the solution with
every free variable zero.  None of them depends on which key a pivot is
taken on, so each pivot is taken on the key of the reduced vector that
the fewest input vectors hold: a rare key's row meets few later vectors,
which keeps the rows of long sparse systems short.

The elimination runs on ints (integer-preserving, as in Bareiss, Math.
Comp. 22, 1968): each vector is scaled by the lcm of its denominators,
every row and combination is an integer one with its content divided
out, and Fractions are built only in the answers.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .scalars import add_term


class InconsistentSystem(ValueError):
    """residual: the target's nonzero part left after reduction."""

    def __init__(self, residual):
        super().__init__("inconsistent linear system")
        self.residual = residual


def _scaled(vec):
    """(d, {key: int}) with d the lcm of vec's denominators, the dict d * vec."""
    d = math.lcm(*[c.denominator for c in vec.values()])
    return d, {k: c.numerator * (d // c.denominator) for k, c in vec.items()}


class Echelon:
    """Vectors v_0, v_1, ... reduced in order against the pivots so far.

    A pivot is (key, row, comb): int dicts with row == sum(comb[i] * v_i),
    row zero at the keys of earlier pivots, row[key] > 0 and no factor
    common to all of row's and comb's entries.  Its key is the first of
    the reduced vector's keys with the smallest count in `counts` (every
    key the vectors hold; see `rref`).

    kept: the indices j with v_j independent of v_0, ..., v_{j-1};
    kernel: for every other j, the relation {j: 1, i: -x_i} that writes
    v_j as sum(x_i * v_i) over kept i < j.
    """

    def __init__(self, counts):
        self.counts = counts
        self.pivots = []
        self.kept = []
        self.kernel = []

    def _reduce(self, vec):
        """(rest, x, s) on ints with s * vec == rest + sum(x[i] * v_i),
        s > 0, rest zero at every pivot key and no factor common to s and
        all of rest's and x's entries (the lcm scaling leaves none, and
        each pivot step divides out the one it makes)."""
        s, rest = _scaled(vec)
        x = {}
        for key, row, comb in self.pivots:
            f = rest.get(key)
            if f:
                p = row[key]
                g = math.gcd(p, f)
                p //= g
                f //= g
                if p != 1:
                    rest = {k: p * c for k, c in rest.items()}
                    x = {i: p * c for i, c in x.items()}
                    s *= p
                for k, c in row.items():
                    add_term(rest, k, -f * c)
                for i, c in comb.items():
                    add_term(x, i, f * c)
                g = math.gcd(s, *rest.values(), *x.values())
                if g != 1:
                    rest = {k: c // g for k, c in rest.items()}
                    x = {i: c // g for i, c in x.items()}
                    s //= g
        return rest, x, s

    def add(self, vec):
        """Append the next vector v_j."""
        j = len(self.kept) + len(self.kernel)
        rest, x, s = self._reduce(vec)
        if not rest:
            rel = {i: Fraction(-c, s) for i, c in x.items()}
            rel[j] = Fraction(1)
            self.kernel.append(rel)
            return
        key = min(rest, key=self.counts.__getitem__)
        # row = s * v_j - sum(x_i * v_i), which has no common factor left
        sign = 1 if rest[key] > 0 else -1
        comb = {i: -sign * c for i, c in x.items()}
        comb[j] = sign * s
        self.pivots.append((key, {k: sign * c for k, c in rest.items()}, comb))
        self.kept.append(j)

    def solve(self, target):
        """{i: x_i} over the kept i, increasing, with target ==
        sum(x_i * v_i) and every free variable zero."""
        rest, x, s = self._reduce(target)
        if rest:
            raise InconsistentSystem({k: Fraction(c, s) for k, c in rest.items()})
        return {i: Fraction(x[i], s) for i in sorted(x)}


def rref(vectors, n):
    """The echelon of vectors[0], ..., vectors[n - 1], pivoting on the
    keys that the fewest of them hold."""
    ech = Echelon(Counter(k for v in vectors[:n] for k in v))
    for j in range(n):
        ech.add(vectors[j])
    return ech


def nullspace(vectors, n):
    """The kernel relations of the first n vectors (see `Echelon`)."""
    return rref(vectors, n).kernel
