import math
import random
from fractions import Fraction

import pytest

from liequant.linalg import rref, nullspace, InconsistentSystem
from echelon_oracle import FractionEchelon


def F(x):
    return Fraction(x)


def _columns(A):
    """The columns of a dense matrix as sparse dicts keyed by row index."""
    return [{i: row[j] for i, row in enumerate(A) if row[j]}
            for j in range(len(A[0]))]


def test_rref_and_rank():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    ech = rref(_columns(A), 3)
    assert ech.kept == [0, 1]
    assert len(ech.kept) == 2


def test_nullspace_kernel_vectors():
    A = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    for v in nullspace(_columns(A), 3):
        for row in A:
            assert sum(row[j] * c for j, c in v.items()) == 0


def test_solve_affine_free_vars_zeroed():
    A = [[F(1), F(1), F(0)]]
    ech = rref(_columns(A), 3)
    assert ech.solve({0: F(5)}) == {0: F(5)}
    assert len(ech.kernel) == 2


def test_inconsistent():
    A = [[F(1), F(0)], [F(1), F(0)]]
    with pytest.raises(InconsistentSystem):
        rref(_columns(A), 2).solve({0: F(1), 1: F(2)})


# -- the dense reference: plain Gaussian elimination over Fraction ----------

def dense_rref(rows, ncols):
    R = [list(map(Fraction, r)) for r in rows]
    pivots = []
    prow = 0
    for col in range(ncols):
        piv = next((i for i in range(prow, len(R)) if R[i][col] != 0), None)
        if piv is None:
            continue
        R[prow], R[piv] = R[piv], R[prow]
        pv = R[prow][col]
        R[prow] = [x / pv for x in R[prow]]
        for i in range(len(R)):
            if i != prow and R[i][col] != 0:
                f = R[i][col]
                R[i] = [a - f * b for a, b in zip(R[i], R[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(R):
            break
    return R, pivots


def dense_answers(vectors, target):
    """(pivot columns, nullspace basis, free-variables-zero solution or
    None) of the matrix whose columns are the vectors, as sparse dicts."""
    # the row order does not change any of the three answers
    keys = list(dict.fromkeys([k for v in vectors for k in v] + list(target)))
    n = len(vectors)
    rows = [[v.get(k, F(0)) for v in vectors] + [target.get(k, F(0))]
            for k in keys]
    R, pivots = dense_rref(rows, n + 1)
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = {fc: F(1)}
        for i, pc in enumerate(pivots):
            if pc < n and R[i][fc]:
                v[pc] = -R[i][fc]
        kernel.append(v)
    solution = None
    if n not in pivots:
        solution = {pc: R[i][n] for i, pc in enumerate(pivots) if R[i][n]}
    return [pc for pc in pivots if pc < n], kernel, solution


def _random_system(rng):
    """Vectors over tuple keys with dependent, duplicate and zero ones."""
    keys = [(rng.randrange(3), "k%d" % i) for i in range(rng.randint(1, 6))]
    vectors = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.15:
            vectors.append({})
        elif kind < 0.3 and vectors:
            vectors.append(dict(rng.choice(vectors)))
        elif kind < 0.55 and vectors:
            v = {}
            for u in rng.sample(vectors, min(len(vectors), 2)):
                c = F(rng.randint(-3, 3)) / rng.randint(1, 3)
                for k, x in u.items():
                    v[k] = v.get(k, F(0)) + c * x
            vectors.append({k: x for k, x in v.items() if x})
        else:
            support = rng.sample(keys, rng.randint(1, len(keys)))
            v = {k: F(rng.randint(-4, 4)) for k in support}
            vectors.append({k: x for k, x in v.items() if x})
    return keys, vectors


def _combination(rng, vectors):
    out = {}
    for v in vectors:
        c = F(rng.randint(-2, 2))
        for k, x in v.items():
            out[k] = out.get(k, F(0)) + c * x
    return {k: x for k, x in out.items() if x}


def _check(vectors, target):
    ech = rref(vectors, len(vectors))
    kept, kernel, solution = dense_answers(vectors, target)
    assert ech.kept == kept
    assert ech.kernel == kernel
    assert nullspace(vectors, len(vectors)) == kernel
    if solution is None:
        with pytest.raises(InconsistentSystem):
            ech.solve(target)
    else:
        x = ech.solve(target)
        assert x == solution and list(x) == sorted(x)
        assert all(x.values())
    return solution is not None


def test_echelon_matches_dense_rref():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        keys, vectors = _random_system(rng)
        assert _check(vectors, _combination(rng, vectors))
        # a key that no vector has is never in the span
        assert not _check(vectors, {("fresh",): F(1)})
        # a random target: consistent or not, as the dense form decides
        target = {k: F(rng.randint(-2, 2)) for k in keys}
        outcomes.add(_check(vectors, {k: x for k, x in target.items() if x}))
    assert outcomes == {True, False}


def test_echelon_edge_cases():
    assert _check([], {})
    assert not _check([], {"a": F(1)})
    assert _check([{}, {}], {})
    # duplicate vectors: the second is a kernel relation of the first
    v = {(0, 1): F(2), (1, 0): F(-3)}
    ech = rref([v, dict(v), {}], 3)
    assert ech.kept == [0]
    assert ech.kernel == [{0: F(-1), 1: F(1)}, {2: F(1)}]
    assert ech.solve({(0, 1): F(4), (1, 0): F(-6)}) == {0: F(2)}
    # entries given as int stay exact
    kernel = rref([{0: 2}, {0: 1}], 2).kernel
    assert kernel == [{0: Fraction(-1, 2), 1: F(1)}]
    assert all(type(c) is Fraction for c in kernel[0].values())


def _sparse_system(rng):
    """Sparse vectors over up to twelve keys, most on two or three of
    them, with repeated and dependent vectors among them."""
    keys = ["k%d" % i for i in range(rng.randint(3, 12))]
    vectors = []
    for _ in range(rng.randint(2, 12)):
        kind = rng.random()
        if kind < 0.2 and vectors:
            vectors.append(dict(rng.choice(vectors)))
        elif kind < 0.4 and vectors:
            vectors.append(_combination(rng, rng.sample(vectors, min(len(vectors), 3))))
        else:
            support = rng.sample(keys, rng.randint(1, min(3, len(keys))))
            vectors.append({k: F(rng.choice((-3, -1, 1, 2))) / rng.randint(1, 3)
                            for k in support})
    return keys, vectors


def test_rarest_key_pivots_match_the_first_key_echelon():
    """Pivoting on the rarest key keeps the kept vectors, the kernel and
    the free-variables-zero solution of the first-key echelon, and its
    answer to a random target, consistent or not; on an inconsistent
    target both raise, each with a residual that differs from the
    target by a vector of the span.  The two rules pick different pivot
    keys in more than a quarter of the systems."""
    rng = random.Random(20261019)
    moved = 0
    outcomes = set()
    for _ in range(200):
        keys, vectors = _sparse_system(rng)
        ech, oracle = rref(vectors, len(vectors)), FractionEchelon(vectors, rarest=False)
        assert ech.kept == oracle.kept and ech.kernel == oracle.kernel
        target = _combination(rng, vectors)
        assert ech.solve(target) == oracle.solve(target)
        # a random target over the keys: both solve it alike, or both raise
        guess = {k: F(rng.randint(-1, 1)) for k in rng.sample(keys, 2)}
        guess = {k: c for k, c in guess.items() if c}
        try:
            want = oracle.solve(guess)
        except InconsistentSystem:
            with pytest.raises(InconsistentSystem):
                ech.solve(guess)
            outcomes.add(False)
        else:
            assert ech.solve(guess) == want
            outcomes.add(True)
        bad = dict(target)
        bad["fresh"] = F(1)
        for e in (ech, oracle):
            with pytest.raises(InconsistentSystem) as info:
                e.solve(bad)
            residual = info.value.residual
            assert residual["fresh"] == 1
            inside = dict(bad)
            for k, c in residual.items():
                inside[k] = inside.get(k, F(0)) - c
            e.solve({k: c for k, c in inside.items() if c})
        moved += [p[0] for p in ech.pivots] != [p[0] for p in oracle.pivots]
    assert moved > 50 and outcomes == {True, False}


# denominators small, prime, a power of two and of three, and huge
DENOMINATORS = (1, 2, 3, 7, 12, 2 ** 40, 3 ** 30, 10 ** 6 + 3, 2 ** 61 - 1)


def _mixed_system(rng):
    """Vectors with mixed and large denominators, among them zero ones,
    rational multiples of earlier ones and combinations of them."""
    keys = [(rng.randrange(3), "k%d" % i) for i in range(rng.randint(2, 10))]

    def coeff():
        num = rng.randint(-10 ** 12, 10 ** 12) if rng.random() < 0.3 else rng.randint(-4, 4)
        return Fraction(num, rng.choice(DENOMINATORS))
    vectors = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.1:
            vectors.append({})
        elif kind < 0.25 and vectors:
            c = coeff() or F(1)
            vectors.append({k: c * x for k, x in rng.choice(vectors).items()})
        elif kind < 0.45 and vectors:
            out = {}
            for v in rng.sample(vectors, min(len(vectors), 3)):
                c = coeff()
                for k, x in v.items():
                    out[k] = out.get(k, F(0)) + c * x
            vectors.append({k: x for k, x in out.items() if x})
        else:
            support = rng.sample(keys, rng.randint(1, len(keys)))
            vectors.append({k: c for k in support if (c := coeff())})
    return keys, vectors


def _items(d):
    return list(d.items())


def test_integer_echelon_matches_the_fraction_echelon():
    """The integer echelon gives the Fraction echelon's answers as ordered
    item lists: kept, kernel, pivot keys, solutions and residuals.  Each
    pivot is the Fraction pivot times its (positive) pivot entry, on ints
    with no common factor; every answer is built of Fractions."""
    rng = random.Random(20261020)
    outcomes = set()
    kernels = 0
    for _ in range(200):
        keys, vectors = _mixed_system(rng)
        ech, oracle = rref(vectors, len(vectors)), FractionEchelon(vectors)
        assert ech.kept == oracle.kept
        assert [_items(r) for r in ech.kernel] == [_items(r) for r in oracle.kernel]
        assert all(type(c) is Fraction for r in ech.kernel for c in r.values())
        kernels += len(ech.kernel)
        assert len(ech.pivots) == len(oracle.pivots)
        for (key, row, comb), (okey, orow, ocomb) in zip(ech.pivots, oracle.pivots):
            p = row[key]
            assert key == okey and p > 0
            assert all(type(c) is int for c in [*row.values(), *comb.values()])
            assert math.gcd(*row.values(), *comb.values()) == 1
            assert _items(row) == [(k, c * p) for k, c in orow.items()]
            assert _items(comb) == [(i, c * p) for i, c in ocomb.items()]
        guess = {k: c for k in rng.sample(keys, rng.randint(1, len(keys)))
                 if (c := Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS)))}
        for target in (_combination(rng, vectors), guess, {**guess, ("fresh",): Fraction(1, 3)}):
            try:
                want = oracle.solve(target)
            except InconsistentSystem as e:
                with pytest.raises(InconsistentSystem) as info:
                    ech.solve(target)
                assert _items(info.value.residual) == _items(e.residual)
                assert all(type(c) is Fraction for c in info.value.residual.values())
                outcomes.add(False)
            else:
                got = ech.solve(target)
                assert _items(got) == _items(want)
                assert all(type(c) is Fraction for c in got.values())
                outcomes.add(True)
    assert outcomes == {True, False} and kernels > 100
