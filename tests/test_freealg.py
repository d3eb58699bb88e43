import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import lie_oracle
from liequant.bfamily import shuffles
from liequant.freealg import (AssocPoly, LiePoly, lie_bracket, dynkin,
                              substitute, cbh, assoc_to_lie, expand_leftnormed,
                              expand_lyndon, is_lyndon, lie_to_json,
                              lie_from_json, NotLieElement)


def lyndon_words(mdeg):
    """All Lyndon words of a given multidegree ((label, count), ...)."""
    letters = []
    for a, k in mdeg:
        letters.extend([a] * k)
    return sorted(p for p in set(itertools.permutations(letters)) if is_lyndon(p))


def is_lie(p):
    """Dynkin criterion: p multilinear of degree n is Lie iff dynkin(p) = n*p."""
    if not p.terms:
        return True
    n = len(next(iter(p.terms)))
    return dynkin(p).expand() == Fraction(n) * p


def rand_lie(rng, n, terms=3):
    """Random multilinear Lie polynomial of degree n."""
    out = LiePoly()
    for _ in range(terms):
        perm = list(range(1, n))
        rng.shuffle(perm)
        mono = (0,) + tuple(perm)
        out = out + Fraction(rng.randint(-4, 4)) * LiePoly({mono: Fraction(1)})
    return out


def test_assoc_mul_unit_and_associativity():
    x1, x2, x3 = (AssocPoly.gen(i) for i in range(3))
    assert x1 * x2 == AssocPoly.word((0, 1))
    assert AssocPoly.unit() * x1 == x1
    assert (x1 * x2) * x3 == x1 * (x2 * x3)


def test_bracket_antisymmetry_and_jacobi_random():
    rng = random.Random(1)
    for n in (2, 3):
        a, b, c = (rand_lie(rng, n) for _ in range(3))
        assert lie_bracket(a, b) == -1 * lie_bracket(b, a)
        jac = lie_bracket(a, lie_bracket(b, c)) \
            + lie_bracket(b, lie_bracket(c, a)) \
            + lie_bracket(c, lie_bracket(a, b))
        assert not jac


def test_expand_examples():
    x1, x2, x3 = (LiePoly.gen(i) for i in range(3))
    assert lie_bracket(x1, x2).expand() == AssocPoly.word((0, 1)) - AssocPoly.word((1, 0))
    assert x1.expand() == AssocPoly.gen(0)
    p = lie_bracket(x1, lie_bracket(x2, x3))
    expected = (AssocPoly.word((0, 1, 2)) - AssocPoly.word((0, 2, 1))
                - AssocPoly.word((1, 2, 0)) + AssocPoly.word((2, 1, 0)))
    assert p.expand() == expected


def test_dynkin_examples():
    assert dynkin(AssocPoly.word((0, 1))) == LiePoly.leftnormed((0, 1))
    p = AssocPoly.word((0, 1)) - AssocPoly.word((1, 0))
    assert dynkin(p) == Fraction(2) * LiePoly.leftnormed((0, 1))
    q = lie_bracket(LiePoly.gen(0), lie_bracket(LiePoly.gen(1), LiePoly.gen(2)))
    assert dynkin(q.expand()) == Fraction(3) * q
    # repeated letters: [[x,y],y]
    r = lie_bracket(lie_bracket(LiePoly.gen(0), LiePoly.gen(1)), LiePoly.gen(1))
    assert dynkin(r.expand()) == Fraction(3) * r


def test_is_lie():
    assert not is_lie(AssocPoly.word((0, 1)))
    assert is_lie(AssocPoly.word((0, 1)) - AssocPoly.word((1, 0)))
    rng = random.Random(2)
    for n in (2, 3, 4):
        assert is_lie(rand_lie(rng, n).expand())


def test_reut_prop_random_to_degree_6():
    rng = random.Random(3)
    for n in range(2, 7):
        p = rand_lie(rng, n)
        assert dynkin(p.expand()) == Fraction(n) * p


def test_prereut_every_position():
    # every last-letter slice of a Lie element rebrackets right-normed to
    # the whole element
    rng = random.Random(4)
    for n in (3, 4, 5):
        p = rand_lie(rng, n)
        exp = p.expand()
        for k in range(n):
            out = AssocPoly()
            for w, c in exp.terms.items():
                if w[-1] != k:
                    continue
                acc = AssocPoly.gen(w[-1])
                for a in reversed(w[:-1]):
                    acc = AssocPoly.gen(a) * acc - acc * AssocPoly.gen(a)
                out = out + c * acc
            assert out == exp


def test_chrono_lemma():
    # [X, x] = sum X_sigma [x_sigma(1),[...,[x_sigma(n), x]]]
    rng = random.Random(5)
    for n in (2, 3, 4):
        p = rand_lie(rng, n)
        fresh = LiePoly.gen(n)
        lhs = lie_bracket(p, fresh).expand()
        out = AssocPoly()
        for w, c in p.expand().terms.items():
            acc = AssocPoly.gen(n)
            for a in reversed(w):
                acc = AssocPoly.gen(a) * acc - acc * AssocPoly.gen(a)
            out = out + c * acc
        assert out == lhs


def test_substitute_examples():
    x, y, z = LiePoly.gen(0), LiePoly.gen(1), LiePoly.gen(2)
    assert substitute(LiePoly.leftnormed((0, 1)), [y, x]) == lie_bracket(y, x)
    assert substitute(LiePoly.gen(0), [z]) == z
    p = lie_bracket(LiePoly.gen(0), lie_bracket(LiePoly.gen(1), LiePoly.gen(2)))
    assert substitute(p, [x, y, y]) == LiePoly()
    # two words, each bracketed left to right, added up
    p = LiePoly({(0, 1, 2): Fraction(1, 3), (0, 2, 1): Fraction(-2)})
    args = [z, x, lie_bracket(x, y)]
    want = LiePoly()
    for w, c in p.terms.items():
        want = want + c * lie_bracket(lie_bracket(args[w[0]], args[w[1]]), args[w[2]])
    assert want and substitute(p, args) == want
    # a Lyndon key has a repeated letter and is never read as left-normed
    lyndon = cbh(3)[(2, 1)]
    assert any(len(set(w)) < len(w) for w in lyndon.terms)
    with pytest.raises(ValueError, match="multilinear"):
        substitute(lyndon, [x, y])
    # a letter outside the generators 0..len(args)-1 is an arity mismatch
    for bad in (2, -1, 1.0, (0,)):
        with pytest.raises(ValueError, match="arity mismatch for generator "
                                             + re.escape(repr(bad))):
            substitute(LiePoly({(0, bad): Fraction(1)}), [x, y])


def test_cbh_values_and_round_trip():
    t = cbh(5)
    assert t[(1, 0)] == LiePoly.gen(0) and t[(0, 1)] == LiePoly.gen(1)
    assert t[(1, 1)] == Fraction(1, 2) * LiePoly.leftnormed((0, 1))
    e01 = expand_leftnormed((0, 1))
    x_xy = AssocPoly.gen(0) * e01 - e01 * AssocPoly.gen(0)   # [x,[x,y]]
    assert t[(2, 1)] == assoc_to_lie(Fraction(1, 12) * x_xy, check=False)
    # exp(B) == exp(x) exp(y) exactly to total degree 5
    N = 5

    def texp(p):
        out = AssocPoly.unit()
        power = AssocPoly.unit()
        for k in range(1, N + 1):
            power = AssocPoly({w: c for w, c in (power * p).terms.items()
                               if len(w) <= N})
            out = out + Fraction(1, math.factorial(k)) * power
        return out

    total = LiePoly()
    for v in t.values():
        total = total + v
    lhs = texp(total.expand())
    rhs_full = texp(LiePoly.gen(0).expand()) * texp(LiePoly.gen(1).expand())
    rhs = AssocPoly({w: c for w, c in rhs_full.terms.items() if len(w) <= N})
    assert lhs == rhs


def test_lyndon_basis_round_trip():
    assert lyndon_words(((0, 2), (1, 1))) == [(0, 0, 1)]
    assert lyndon_words(((0, 1), (1, 1), (2, 1))) == [(0, 1, 2), (0, 2, 1)]
    assert lyndon_words(((0, 2), (1, 1), (2, 1))) == [
        (0, 0, 1, 2), (0, 0, 2, 1), (0, 1, 0, 2)]
    # Witt's formula for multidegree (3, 3): (C(6, 3) - C(2, 1)) / 6 = 3
    assert len(lyndon_words(((0, 3), (1, 3)))) == 3
    for mdeg in (((0, 2), (1, 1)), ((0, 2), (1, 1), (2, 1)), ((0, 3), (1, 3))):
        for w in lyndon_words(mdeg):
            p = assoc_to_lie(expand_lyndon(w))
            assert p == LiePoly({w: Fraction(1)})


def test_not_lie_rejected():
    with pytest.raises(NotLieElement):
        assoc_to_lie(AssocPoly.word((0, 1)))


def test_lie_json_round_trip():
    rng = random.Random(6)
    p = rand_lie(rng, 4) + Fraction(1, 3) * LiePoly({(0, 0, 1): Fraction(1)})
    assert lie_from_json(lie_to_json(p)) == p


def test_bracket_on_tuple_labels():
    # tuple labels, as the universal calculus's (pid, side) atoms, with a
    # repeated one: no label may be read as a node of the Lyndon bracketing
    a, b = (100, 0), (101, 0)
    got = lie_bracket(LiePoly({(a, b): 1}), LiePoly({(a,): 1}))
    want = lie_bracket(LiePoly({(0, 1): 1}), LiePoly({(0,): 1}))
    assert want == LiePoly({(0, 0, 1): -1})
    assert got == want.relabel({0: a, 1: b}) == LiePoly({(a, a, b): -1})
    assert repr(want) == "-1*[x1,[x1,x2]]"
    assert repr(got) == "-1*[(100, 0),[(100, 0),(101, 0)]]"


# int labels and the universal calculus's (pid, side) labels
LABEL_SETS = pytest.mark.parametrize("labels", [
    tuple(range(6)), tuple((100 + k // 2, k % 2) for k in range(6))], ids=["int", "pair"])


def rand_mixed(rng, labels):
    """Random inhomogeneous LiePoly on some of the labels: multilinear keys
    of degrees 1-4 with overlapping supports, and one Lyndon key."""
    terms = {}
    for _ in range(4):
        letters = rng.sample(labels, rng.randint(1, 4))
        lo = min(letters)
        rest = [a for a in letters if a != lo]
        rng.shuffle(rest)
        terms[(lo,) + tuple(rest)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    x, y = sorted(rng.sample(labels, 2))
    lyndon = lyndon_words(((x, 2), (y, 1))) + lyndon_words(((x, 1), (y, 2)))
    terms[rng.choice(lyndon)] = Fraction(rng.randint(1, 4))
    return LiePoly(terms)


@LABEL_SETS
def test_bracket_matches_the_associative_oracle(labels):
    rng = random.Random(7)
    for _ in range(8):
        a, b = rand_mixed(rng, labels), rand_mixed(rng, labels)
        assert lie_bracket(a, b) == lie_oracle.lie_bracket(a, b)
    # single keys, the minimal letter on either side
    x = [LiePoly.gen(a) for a in labels]
    assert lie_bracket(x[0], x[1]) == -1 * lie_bracket(x[1], x[0]) == LiePoly(
        {(labels[0], labels[1]): 1})
    for a, b in ((x[2], lie_bracket(x[0], x[1])), (lie_bracket(x[1], x[3]), x[0])):
        assert lie_bracket(a, b) == lie_oracle.lie_bracket(a, b)


@LABEL_SETS
def test_relabel_matches_the_associative_oracle(labels):
    rng = random.Random(8)

    def check(p, mapping):
        assert p.relabel(mapping) == lie_oracle.relabel(p, mapping)

    # the shuffle maps of bfamily's L_n columns
    n = 5
    for _ in range(4):
        e = LiePoly({(0,) + tuple(rng.sample(range(1, n), n - 1)): Fraction(1)})
        for p in range(1, n):
            for w in shuffles(range(p), range(p, n)):
                check(e, {i: labels[j] for i, j in enumerate(w)})
    # non-monotone maps that put the image's minimum at every position
    for n in range(1, 6):
        for i in range(n):
            mono = (0,) + tuple(rng.sample(range(1, n), n - 1))
            images = sorted(rng.sample(labels, n))
            rest = images[1:]
            rng.shuffle(rest)
            mapping = dict(zip(mono, rest[:i] + images[:1] + rest[i:]))
            assert mapping[mono[i]] == images[0]
            c = Fraction(rng.randint(1, 5))
            check(LiePoly({mono: c}), mapping)
            y = tuple(mapping[a] for a in mono)
            assert LiePoly.leftnormed(y, c) == assoc_to_lie(c * expand_leftnormed(y))
    # inhomogeneous sums with Lyndon keys, under a permutation of the labels,
    # a partial map and a map that identifies two letters
    for _ in range(10):
        p = rand_mixed(rng, labels)
        perm = list(labels)
        rng.shuffle(perm)
        check(p, dict(zip(labels, perm)))
        check(p, {labels[0]: labels[5], labels[5]: labels[0]})
        check(p, {labels[1]: labels[2]})
