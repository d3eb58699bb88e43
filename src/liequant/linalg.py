"""Exact sparse linear algebra over the rationals.

One incremental echelon answers every rank, kernel and solve question.
Vectors are dicts {key: Fraction} with any hashable keys and no stored
zeros (the `scalars.add_term` rule); the unknowns are the positions of
the vectors in their sequence.  The answers are those of the dense
reduced row echelon form of the matrix whose columns are the vectors:
the pivot columns, its nullspace basis and the solution with every free
variable zero.  None of them depends on which key a pivot is taken on, so
each pivot is taken on the key of the reduced vector that the fewest
input vectors hold: a rare key's row meets few later vectors, which
keeps the rows of long sparse systems short.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .scalars import add_term


class InconsistentSystem(ValueError):
    """residual: the target's nonzero part left after reduction."""

    def __init__(self, residual):
        super().__init__("inconsistent linear system")
        self.residual = residual


class Echelon:
    """Vectors v_0, v_1, ... reduced in order against the pivots so far.

    A pivot is (key, row, comb) with row[key] == 1, row zero at the keys
    of earlier pivots, and row == sum(comb[i] * v_i).  Its key is the
    first of the reduced vector's keys with the smallest count in
    `counts` (every key the vectors hold; see `rref`).

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
        """(rest, x) with vec == rest + sum(x[i] * v_i), rest zero at
        every pivot key."""
        rest = dict(vec)
        x = {}
        for key, row, comb in self.pivots:
            f = rest.get(key)
            if f:
                for k, c in row.items():
                    add_term(rest, k, -f * c)
                for i, c in comb.items():
                    add_term(x, i, f * c)
        return rest, x

    def add(self, vec):
        """Append the next vector v_j."""
        j = len(self.kept) + len(self.kernel)
        rest, x = self._reduce(vec)
        if not rest:
            rel = {i: -c for i, c in x.items()}
            rel[j] = Fraction(1)
            self.kernel.append(rel)
            return
        key = min(rest, key=self.counts.__getitem__)
        inv = 1 / Fraction(rest[key])
        comb = {i: -c * inv for i, c in x.items()}
        comb[j] = inv
        self.pivots.append((key, {k: c * inv for k, c in rest.items()}, comb))
        self.kept.append(j)

    def solve(self, target):
        """{i: x_i} over the kept i, increasing, with target ==
        sum(x_i * v_i) and every free variable zero."""
        rest, x = self._reduce(target)
        if rest:
            raise InconsistentSystem(rest)
        return dict(sorted(x.items()))


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
