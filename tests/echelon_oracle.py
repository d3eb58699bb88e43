"""Oracle for `linalg.rref`: the incremental sparse echelon as it was
written before it pivoted on the rarest key, each pivot on the first key
of the reduced vector.  The pivot key changes the rows, not the kept
vectors, the kernel relations or the free-variables-zero solution, so the
tests compare those with it."""

from fractions import Fraction

from liequant.linalg import InconsistentSystem
from liequant.scalars import add_term


class FirstKeyEchelon:
    """kept, kernel and solve(target) as in `linalg.Echelon`."""

    def __init__(self, vectors):
        self.pivots, self.kept, self.kernel = [], [], []
        for j, vec in enumerate(vectors):
            rest, x = self._reduce(vec)
            if not rest:
                self.kernel.append({**{i: -c for i, c in x.items()}, j: Fraction(1)})
                continue
            key = next(iter(rest))
            inv = 1 / Fraction(rest[key])
            comb = {i: -c * inv for i, c in x.items()}
            comb[j] = inv
            self.pivots.append((key, {k: c * inv for k, c in rest.items()}, comb))
            self.kept.append(j)

    def _reduce(self, vec):
        rest, x = dict(vec), {}
        for key, row, comb in self.pivots:
            f = rest.get(key)
            if f:
                for k, c in row.items():
                    add_term(rest, k, -f * c)
                for i, c in comb.items():
                    add_term(x, i, f * c)
        return rest, x

    def solve(self, target):
        rest, x = self._reduce(target)
        if rest:
            raise InconsistentSystem(rest)
        return dict(sorted(x.items()))
