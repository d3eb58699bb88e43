"""Oracles for Lie arithmetic.

The free-Lie bracket and relabeling through the associative algebra:
expand, multiply or map the words, and read the result back with
`assoc_to_lie`.  `freealg` stays on the left-normed basis for multilinear
keys; the tests compare it against these.

The coboundaries delta3 and delta4 of the Yang-Baxter complex on a
concrete Lie algebra: the tables of `liealg` summed with its placed
bracket.  The tests pin the tables with them and compare the universal
delta3 and delta4, instantiated on a double, against them."""

from liequant.freealg import AssocPoly, assoc_to_lie
from liequant.liealg import DELTA3, DELTA4, coboundary, placed_bracket
from liequant.scalars import add_term


def lie_bracket(a, b):
    ea, eb = a.expand(), b.expand()
    return assoc_to_lie(ea * eb - eb * ea, check=False)


def relabel(p, mapping):
    words = {}
    for w, c in p.expand().terms.items():
        add_term(words, tuple(mapping.get(x, x) for x in w), c)
    return assoc_to_lie(AssocPoly(words), check=False)


def delta3_r(alg, r, x):
    return coboundary(DELTA3, lambda s, t: placed_bracket(alg, r, s, x, t, 3))


def delta4_r(alg, r, x):
    return coboundary(DELTA4, lambda s, t: placed_bracket(alg, r, s, x, t, 4))
