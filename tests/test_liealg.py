import itertools
import json
import random
from fractions import Fraction

import pytest

from liequant import linalg
from liequant.deform import bbrack, cybe, matrix_algebra, random_r
from liequant.liealg import (DoubleAlgebra, LieAlgebra, LieBialgebra, validate_bialgebra,
                             build_double, cybe_residual, placed_bracket, _verify_double,
                             tensor_add, tensor_smul,
                             borel2, abelian_bialgebra, sl2,
                             bialgebra_to_json, bialgebra_from_json)
from lie_oracle import delta3_r, delta4_r


def test_jacobi_enforced():
    # [a,b] = c, [a,c] = a, [b,c] = 0 violates Jacobi
    with pytest.raises(ValueError):
        LieAlgebra(3, list("abc"), {(0, 1): {2: Fraction(1)},
                                    (0, 2): {0: Fraction(1)}})


def _jacobi_sum(table, a, b, c):
    """[e_a, [e_b, e_c]] + [e_b, [e_c, e_a]] + [e_c, [e_a, e_b]] from a
    bracket table {(i, j): {k: c}} given for i < j, read here directly."""
    def br(i, j):
        if i < j:
            return table.get((i, j), {})
        return {k: -x for k, x in table.get((j, i), {}).items()}
    out = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for m, cm in br(y, z).items():
            for k, ck in br(x, m).items():
                out[k] = out.get(k, 0) + cm * ck
    return {k: v for k, v in out.items() if v}


def test_jacobi_negative_control_one_distinct_triple():
    """jacobi_ok reads the triples i < j < k only; a dim-4 table whose
    Jacobi sum fails on exactly one set of three distinct indices is
    still refused, whichever of the four sets it is."""
    base = {(0, 1): {3: Fraction(1)}, (2, 3): {2: Fraction(1)}}
    broken = set()
    for perm in itertools.permutations(range(4)):
        table = {}
        for (i, j), v in base.items():
            a, b = perm[i], perm[j]
            out = {perm[k]: c if a < b else -c for k, c in v.items()}
            table[min(a, b), max(a, b)] = out
        failing = {tuple(sorted(t)) for t in itertools.product(range(4), repeat=3)
                   if _jacobi_sum(table, *t)}
        assert failing == {tuple(sorted(perm[:3]))}
        broken |= failing
        with pytest.raises(ValueError, match="Jacobi identity fails"):
            LieAlgebra(4, list("abcd"), table)
    assert len(broken) == 4
    # the same table without the offending bracket is a Lie algebra
    LieAlgebra(4, list("abcd"), {(0, 1): {3: Fraction(1)}})


def _invariance_failures(dbl):
    """The ordered triples (i, j, k) with <[e_i, e_j], e_k> + <e_j, [e_i, e_k]>
    nonzero, over all of them."""
    alg, n = dbl.algebra, dbl.algebra.dim
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if dbl.pair(alg.bracket_basis(i, j), {k: 1})
            + dbl.pair({j: 1}, alg.bracket_basis(i, k))]


def test_invariance_negative_control_j_above_k():
    """_verify_double reads the pairs j <= k only, the invariance sum being
    symmetric in (j, k) for the symmetric form; a bracket that breaks
    invariance at a triple with j > k is still refused, and so is a form
    that is not symmetric."""
    bia = abelian_bialgebra(2)
    good = build_double(bia)
    bad_alg = LieAlgebra(4, good.algebra.basis_names, {(0, 1): {0: Fraction(1)}})
    bad = DoubleAlgebra(bia, bad_alg, good.form, good.r)
    failures = _invariance_failures(bad)
    assert (0, 2, 1) in failures
    assert all((i, k, j) in failures for i, j, k in failures)
    with pytest.raises(ValueError, match=r"form not invariant at \(0,1,2\)"):
        _verify_double(bad, bia)
    assert _invariance_failures(good) == []
    _verify_double(good, bia)
    lopsided = DoubleAlgebra(bia, good.algebra, {**good.form, (2, 0): Fraction(2)}, good.r)
    with pytest.raises(ValueError, match="form not symmetric"):
        _verify_double(lopsided, bia)


def test_integral_constants_are_ints():
    """A constant of denominator 1 is stored as an int, any other stays a
    Fraction, and the basis vectors carry the int 1; on the integral
    doubles of borel2 and sl2 the left-normed memo holds ints only."""
    alg = LieAlgebra(3, list("abc"), {(1, 0): {0: Fraction(2)}, (1, 2): {2: Fraction(1, 2)}})
    assert alg.brackets == {(0, 1): {0: -2}, (1, 2): {2: Fraction(1, 2)}}
    assert type(alg.brackets[(0, 1)][0]) is int
    assert type(alg.brackets[(1, 2)][2]) is Fraction
    assert alg.basis(1) == {1: 1} and type(alg.basis(1)[1]) is int
    for bia in (borel2(), LieBialgebra(sl2(), {})):
        dd = build_double(bia).algebra
        for n in (1, 2, 3):
            for idx in itertools.product(range(dd.dim), repeat=n):
                assert all(type(c) is int for c in dd.leftnormed(idx).values())


def test_validate_borel2_and_abelian(borel):
    assert validate_bialgebra(borel) == []
    assert validate_bialgebra(abelian_bialgebra(3)) == []


def test_validate_failures():
    alg = borel2().algebra
    # non-antisymmetric cobracket
    bad = LieBialgebra(alg, {1: {(0, 1): Fraction(1)}})
    kinds = {k for k, _ in validate_bialgebra(bad)}
    assert "co-antisymmetry" in kinds
    # cocycle violation needs dim 3: sl2 with a non-cocycle delta
    s = sl2()
    bad2 = LieBialgebra(s, {0: {(0, 1): Fraction(1), (1, 0): Fraction(-1)}})
    kinds2 = {k for k, _ in validate_bialgebra(bad2)}
    assert "cocycle" in kinds2


def test_double_borel2(dbl):
    assert dbl.algebra.dim == 4
    # [h, e*] forced by invariance
    assert dbl.algebra.bracket_basis(0, 3) == {3: Fraction(-1)}
    assert dbl.algebra.bracket_basis(1, 3) == {0: Fraction(-1), 2: Fraction(1)}
    assert cybe_residual(dbl.algebra, dbl.r) == {}


def test_double_abelian_semidirect():
    d = build_double(abelian_bialgebra(2))
    for i in range(2):
        for j in range(2):
            assert d.algebra.bracket_basis(2 + i, 2 + j) == {}
    assert cybe_residual(d.algebra, d.r) == {}


def test_cybe_residual_examples(borel, dbl):
    assert cybe_residual(borel.algebra, {}) == {}
    assert cybe_residual(borel.algebra, {(1, 1): Fraction(1)}) == {}
    bad = {(0, 1): Fraction(1)}
    assert cybe_residual(borel.algebra, bad) != {}


def test_placed_bracket_requires_single_overlap(dbl):
    with pytest.raises(ValueError):
        placed_bracket(dbl.algebra, dbl.r, (1, 2), dbl.r, (1, 2), 3)


def test_delta_maps_concrete_complex(dbl):
    alg, r = dbl.algebra, dbl.r
    x = {(0, 3): Fraction(1), (1, 2): Fraction(-2)}
    comp = delta4_r(alg, r, delta3_r(alg, r, x))
    assert comp == {}


def _placed_pieces(alg, r, x):
    """The twelve brackets [r^(ij), x^(klm)] of four slots sharing one slot:
    x fills the three slots other than m, and r joins m to one of them."""
    pieces = []
    for m in (1, 2, 3, 4):
        triple = tuple(s for s in (1, 2, 3, 4) if s != m)
        for s in triple:
            spots = (min(m, s), max(m, s))
            pieces.append(placed_bracket(alg, r, spots, x, triple, 4))
    return pieces


def test_delta4_sign_table_is_forced_by_cybe():
    """delta4_r kills CYB(r) for every r, and up to scale it is the only
    combination of the twelve placed brackets that does.  Checked on sl2
    from its structure constants, with random r that do not solve CYBE,
    so the check does not reuse the table it tests."""
    alg = sl2()
    rng = random.Random(11)
    for _ in range(3):
        r = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(3)
             for j in range(3)}
        r = {k: c for k, c in r.items() if c}
        x = cybe_residual(alg, r)
        assert x
        assert delta4_r(alg, r, x) == {}
        pieces = _placed_pieces(alg, r, x)
        null = linalg.nullspace(pieces, len(pieces))
        assert len(null) == 1
        # delta4_r is that one combination on a generic three-tensor too
        y = {}
        for _ in range(5):
            idx = tuple(rng.randrange(3) for _ in range(3))
            y = tensor_add(y, {idx: Fraction(rng.randint(-3, 3))})
        combo = {}
        ys = _placed_pieces(alg, r, y)
        for i, c in null[0].items():
            combo = tensor_add(combo, tensor_smul(c, ys[i]))
        image = delta4_r(alg, r, y)
        assert combo and image
        key = next(iter(combo))
        assert image == tensor_smul(image.get(key, Fraction(0)) / combo[key],
                                    combo)


def test_delta3_is_polarization_of_cybe():
    """delta3(r, x) = CYB(r + x) - CYB(r) - CYB(x), in the Lie calculus on
    sl2 and in the associative one on M2, with random r and x that do
    not solve CYBE; this pins DELTA3 against CYBE."""
    rng = random.Random(12)
    minus = lambda t: tensor_smul(Fraction(-1), t)
    alg = sl2()
    for _ in range(3):
        r, x = ({(i, j): Fraction(rng.randint(-3, 3)) for i in range(3)
                 for j in range(3)} for _ in range(2))
        r, x = ({k: c for k, c in t.items() if c} for t in (r, x))
        polar = tensor_add(cybe_residual(alg, tensor_add(r, x)),
                           minus(tensor_add(cybe_residual(alg, r),
                                            cybe_residual(alg, x))))
        assert polar and delta3_r(alg, r, x) == polar
    m2 = matrix_algebra(2)
    for _ in range(3):
        r, x = random_r(m2, rng), random_r(m2, rng)
        polar = tensor_add(cybe(m2, tensor_add(r, x)),
                           minus(tensor_add(cybe(m2, r), cybe(m2, x))))
        assert polar and bbrack(m2, r, x) == polar


def test_bialgebra_json_round_trip(borel):
    blob = json.dumps(bialgebra_to_json(borel))
    back = bialgebra_from_json(json.loads(blob))
    assert validate_bialgebra(back) == []
    assert back.algebra.bracket_basis(0, 1) == {1: Fraction(1)}
    assert back.delta(back.algebra.basis(1)) == borel.delta(borel.algebra.basis(1))


def _bracket_loop(alg, args):
    """[[u_0, u_1], ..., u_k] by alg.bracket, left to right."""
    val = args[0]
    for u in args[1:]:
        val = alg.bracket(val, u)
    return val


def test_leftnormed_memo_is_per_algebra():
    """Two algebras on one basis whose brackets differ by a factor 2 share
    every index tuple; each reads its own memo, in either order, and it
    is the bracket loop."""
    one = LieAlgebra(2, ["h", "e"], {(0, 1): {1: Fraction(1)}})
    two = LieAlgebra(2, ["h", "e"], {(0, 1): {1: Fraction(2)}})
    tuples = [(0,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0, 1, 0, 0), (1, 1, 0)]
    for alg in (one, two, one):
        for idx in tuples:
            basis = [alg.basis(i) for i in idx]
            assert alg.leftnormed(idx) == _bracket_loop(alg, basis)
    assert one.leftnormed((0, 1, 0, 0)) == {1: Fraction(1)}
    assert two.leftnormed((0, 1, 0, 0)) == {1: Fraction(8)}
