"""The coboundaries delta3 and delta4 of the Yang-Baxter complex on a
concrete Lie algebra: the tables of `liealg` summed with its placed
bracket.  The tests pin the tables with them and compare the universal
delta3 and delta4, instantiated on a double, against them."""

from liequant.liealg import DELTA3, DELTA4, coboundary, placed_bracket


def delta3_r(alg, r, x):
    return coboundary(DELTA3, lambda s, t: placed_bracket(alg, r, s, x, t, 3))


def delta4_r(alg, r, x):
    return coboundary(DELTA4, lambda s, t: placed_bracket(alg, r, s, x, t, 4))
