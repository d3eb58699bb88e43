"""Independent oracles for the universal QYBE solve.

`full_qybe_residual` is the full triple loop over every term of R12, R13
and R23, with no grouping by word lengths, no skipped slot and no memo
of the slot products, as `universal.univ_qybe_residual` was written
before it learned to skip the slots that are zero by definition.
`tuple_key_commutators` and
`tuple_key_coboundary` are delta3/delta4 on tuple keys: the fresh pair's
one-atom letters put around each term of `UElem.place`, the table summed
on those keys and then normal-ordered, as `universal._coboundary` was
written before it built the flat keys of the rewrite itself."""

from liequant.liealg import coboundary
from liequant.rmatrix import _shift_pids, lambda_table
from liequant.scalars import add_term, distribute
from liequant.universal import normal_order, r_terms_with_rho
from liequant.unitensor import UElem


def full_qybe_residual(bfam, varrho, N):
    """Degree-N component of pr^(x3)(R12 R13 R23 - R23 R13 R12), every
    term triple of every degree triple evaluated in both orderings."""
    rterms = r_terms_with_rho(lambda_table(bfam, N), varrho, N)
    rterms13 = [_shift_pids(t, 2000) for t in rterms]
    rterms23 = [_shift_pids(t, 4000) for t in rterms]
    acc = {}
    for d12 in range(0, N + 1):
        for d13 in range(0, N + 1 - d12):
            d23 = N - d12 - d13
            for (u12, v12), c1 in rterms[d12].terms.items():
                for (u13, v13), c2 in rterms13[d13].terms.items():
                    for (u23, v23), c3 in rterms23[d23].terms.items():
                        c = c1 * c2 * c3
                        _triple(acc, bfam, ((u12, u13), (v12, u23), (v13, v23)), c)
                        _triple(acc, bfam, ((u13, u12), (u23, v12), (v23, v13)), -c)
    return normal_order(UElem(3, acc))


def _triple(acc, bfam, slots, c):
    """acc += c * pr(u1 v1) x pr(u2 v2) x pr(u3 v3) for slots ((u_i, v_i)),
    each slot product evaluated afresh."""
    prs = (bfam.eval(len(u), len(v), u + v).terms.items() for u, v in slots)
    for (m1, m2, m3), cm in distribute(prs, c):
        add_term(acc, ((tuple(m1),), (tuple(m2),), (tuple(m3),)), cm)


def tuple_key_commutators(table, x, legs):
    """The raw table sum of the commutators [r^(s), x^(t)] in `legs`
    slots, r one formal pair on a fresh pid: each placed term of x with
    the pair's letters put in front of its words in the slots s, then,
    negated, behind them.  A UElem on tuple keys, not yet a class."""
    fresh = max(x.pids(), default=-1) + 1
    pair = (((fresh, 0),), ((fresh, 1),))

    def bracket(s, t):
        out = {}
        behind = []
        for k, c in x.place(t, legs).terms.items():
            front, back = list(k), list(k)
            for spot, letter in zip(s, pair):
                front[spot - 1] = (letter,) + k[spot - 1]
                back[spot - 1] = k[spot - 1] + (letter,)
            add_term(out, tuple(front), c)
            behind.append((tuple(back), -c))
        for k, c in behind:
            add_term(out, k, c)
        return out
    return UElem(legs, coboundary(table, bracket))


def tuple_key_coboundary(table, x, legs):
    """delta3/delta4 as tuple_key_commutators, then normal_order."""
    return normal_order(tuple_key_commutators(table, x, legs))
