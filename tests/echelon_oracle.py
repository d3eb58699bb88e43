"""Oracle for `linalg.rref`: the incremental sparse echelon on Fraction
rows, as it was written before it ran on ints.  Each pivot row is scaled
to 1 at its key, which is the reduced vector's rarest key as in
`linalg.rref`, or with rarest=False its first key, as the echelon was
written before it pivoted on the rarest key.  The pivot key changes the
rows, not the kept vectors, the kernel relations or the
free-variables-zero solution."""

from collections import Counter
from fractions import Fraction

from liequant.linalg import InconsistentSystem
from liequant.scalars import add_term


class FractionEchelon:
    """kept, kernel, pivots and solve(target) as in `linalg.Echelon`."""

    def __init__(self, vectors, rarest=True):
        counts = Counter(k for v in vectors for k in v)
        self.pivots, self.kept, self.kernel = [], [], []
        for j, vec in enumerate(vectors):
            rest, x = self._reduce(vec)
            if not rest:
                self.kernel.append({**{i: -c for i, c in x.items()}, j: Fraction(1)})
                continue
            key = min(rest, key=counts.__getitem__) if rarest else next(iter(rest))
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
