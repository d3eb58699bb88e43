import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from liequant.scalars import HSeries, add_term, as_series, surviving_pairs
from liequant.bfamily import (BFamily, _live_blocks, bfamily_from_json,
                              deformed_word_product, positive_compositions,
                              stored_family)
from liequant.freealg import AssocPoly, LiePoly
from liequant.liealg import (LieAlgebra, abelian, abelian_bialgebra, bialgebra_from_json,
                             borel2, build_double, sl2)
from liequant.shuffle import (ShContext, ShElem, ShTensor, sh_mul, sh_comul,
                              sh_antipode, hopf_report, TensContext,
                              t_comul, pairing, qfsh_delta,
                              qfsh_member, all_words, sh_to_json, sh_from_json)
from shuffle_oracle import (SeriesShContext, degree_one, is_symmetric, liepoly_block,
                            live_block_sequences, ordered_surjection_count, per_word_hopf_report,
                            poisson_m1, series_sh_antipode, series_sh_mul,
                            shuffle0, sym_word, word_product_all_pairs)

DATA = Path(__file__).resolve().parent / "data"
# every pair of word lengths up to 4; at (5, 5) the full loop has about a
# million composition pairs
LENGTHS = [(a, b) for a in range(5) for b in range(5)]
# the dead blocks up to size 4: B_00, B_p0 and B_0p for p >= 2
DEAD = [(0, 0)] + [(p, 0) for p in range(2, 5)] + [(0, q) for q in range(2, 5)]


@pytest.fixture(scope="module")
def n5():
    return bfamily_from_json(json.loads((DATA / "bfamily_n5_paper3.json").read_text()))


def ctx_borel(B4, borel, order=3):
    return ShContext(borel.algebra, B4, order)


@pytest.fixture(scope="module")
def B6():
    return stored_family(6)


def zero_past(fam):
    """fam with its entries of degree max_degree + 1 to 8, the largest
    block of LENGTHS, set to zero: BFamily.entry raises past max_degree."""
    return BFamily(fam.lam, 8, fam.table)


def test_product_examples(B4, borel):
    ctx = ctx_borel(B4, borel)
    h, e = ShElem.word(ctx, (0,)), ShElem.word(ctx, (1,))
    # (x)(y) = (xy) + (yx) + 1/2([x,y]) with [h,e] = e
    assert sh_mul(h, e) == (ShElem.word(ctx, (0, 1)) + ShElem.word(ctx, (1, 0))
                            + ShElem.word(ctx, (1,), Fraction(1, 2)))
    # abelian: plain shuffle
    actx = ShContext(abelian(2), B4, 3)
    a, b = ShElem.word(actx, (0,)), ShElem.word(actx, (1,))
    assert sh_mul(a, b) == ShElem.word(actx, (0, 1)) + ShElem.word(actx, (1, 0))


def test_explicit_products_match_displays(B4):
    """(xx')(y), (x)(yy') against the normalized degree-3 displays,
    evaluated in the free Lie algebra on three generators."""
    # model the free 3-generator Lie algebra truncated at bracket depth 3
    # through a concrete faithful instantiation: use the table directly
    from liequant.unitensor import UElem, a_atom, u_mul
    sh = B4.letters
    x, xp, y = (a_atom(i) for i in range(3))

    def word(letters):
        return UElem(2, {(tuple((a,) for a in letters), ()): Fraction(1)})

    prod = u_mul(word((x, xp)), word((y,)), (sh, "conc"))
    # expected: (xx'y) + (xyx') + (yxx') + 1/2 (x [x',y]) + 1/2 ([x,y] x')
    #           + B21-term  (letters in the left leg)
    expect = {}
    X, XP, Y = (0, 0), (1, 0), (2, 0)
    for w, c in ((((X,), (XP,), (Y,)), 1), (((X,), (Y,), (XP,)), 1),
                 (((Y,), (X,), (XP,)), 1)):
        expect[(w, ())] = Fraction(c)
    expect[(((X,), (XP, Y)), ())] = Fraction(1, 2)     # (x [x',y])
    expect[(((X, Y), (XP,)), ())] = Fraction(1, 2)     # ([x,y] x')
    # degree-1 part: B21(x,x'|y) = 1/24([x,[x',y]] + [x',[x,y]])
    expect[(((X, XP, Y),), ())] = Fraction(-1, 24)     # see below
    # [x,[x',y]] + [x',[x,y]] in the left-normed basis:
    # [x,[x',y]] = [[x,x'],y] - [[x,y],x'];  [x',[x,y]] = [[x,y],x'] hmm -
    # assemble honestly instead:
    from liequant.freealg import lie_bracket, LiePoly as LP
    b21 = Fraction(1, 24) * (lie_bracket(LP.gen(0), lie_bracket(LP.gen(1), LP.gen(2)))
                             + lie_bracket(LP.gen(1), lie_bracket(LP.gen(0), LP.gen(2))))
    expect.pop((((X, XP, Y),), ()))
    for mono, c in b21.terms.items():
        key = ((tuple((i, 0) for i in mono),), ())
        expect[key] = expect.get(key, Fraction(0)) + c
    assert dict(prod.terms) == {k: v for k, v in expect.items() if v}


def test_comul_and_counit(B4, borel):
    ctx = ctx_borel(B4, borel)
    a = ShElem.word(ctx, (0, 1))
    co = sh_comul(a)
    assert co.terms == {((), (0, 1)): as_series(1, 3),
                        ((0,), (1,)): as_series(1, 3),
                        ((0, 1), ()): as_series(1, 3)}
    assert sh_comul(ShElem.unit(ctx)).terms == {((), ()): as_series(1, 3)}


def test_unit_law_all_letter_kinds(B4, borel):
    """The empty word is a two-sided unit of the deformed word product, for
    free-Lie-algebra letters, Lie letters and basis indices."""
    x, y = LiePoly.gen(0), LiePoly.gen(1)
    for v in ((), (x,), (x, y)):
        assert deformed_word_product((), v, liepoly_block(B4)) == [(v, 1)]
        assert deformed_word_product(v, (), liepoly_block(B4)) == [(v, 1)]
    a0, a1 = ((0, 0),), ((1, 0), (2, 0))
    for v in ((), (a0,), (a0, a1)):
        assert B4.letters.word_mul((), v) == {v: 1}
        assert B4.letters.word_mul(v, ()) == {v: 1}
    ctx = ctx_borel(B4, borel)
    for v in ((), (0,), (0, 1)):
        assert ctx.word_mul((), v) == {v: as_series(1, 3)}
        assert ctx.word_mul(v, ()) == {v: as_series(1, 3)}
        assert sh_mul(ShElem.unit(ctx), ShElem.word(ctx, v)) == ShElem.word(ctx, v)


def test_live_block_sequences_are_the_filtered_full_loop():
    for a, b in LENGTHS:
        assert _live_blocks(a, b) == live_block_sequences(a, b), (a, b)


def test_block_rules_vanish_on_dead_blocks(B4, n5, borel):
    """The precondition of deformed_word_product: every block rule the
    library passes, and the LiePoly oracle rule the full-loop tests
    pass, gives no term on a dead block."""
    for fam in (B4, n5):
        ctx = ShContext(borel.algebra, fam, 2)
        for p, q in DEAD:
            gens = tuple(LiePoly.gen(i) for i in range(p + q))
            letters = tuple((i,) for i in range(p + q))
            assert liepoly_block(fam)(p, q, gens) == ()
            assert not fam.eval(p, q, letters).terms
            assert not ctx.b_eval(p, q, tuple(i % 2 for i in range(p + q)))


def bracket_loop_block(fam, alg, p, q, idx):
    """B_pq on the basis vectors e_i (i in idx) of alg, each word of
    fam.entry(p, q) bracketed left to right by alg.bracket."""
    want = {}
    for w, c in fam.entry(p, q).terms.items():
        val = alg.basis(idx[w[0]])
        for a in w[1:]:
            val = alg.bracket(val, alg.basis(idx[a]))
        for k, v in val.items():
            add_term(want, k, c * v)
    return want


def test_one_letter_blocks_are_int_letters(B4, borel, dbl):
    """b_eval agrees with the bracket loop on every block of size 1 to 3,
    boundary blocks included, and every index tuple; a one-letter block
    is its letter with the int coefficient 1."""
    for alg in (borel.algebra, sl2(), dbl.algebra):
        ctx = ShContext(alg, B4, 2)
        for n in (1, 2, 3):
            for q in range(n + 1):
                for idx in itertools.product(range(alg.dim), repeat=n):
                    got = ctx.b_eval(n - q, q, idx)
                    assert got == bracket_loop_block(B4, alg, n - q, q, idx)
                    if n == 1:
                        assert got == {idx[0]: 1} and type(got[idx[0]]) is int


def test_b_eval_is_the_bracket_loop(dbl):
    """b_eval, which reads each word of B_pq off the algebra's memo of
    left-normed basis brackets, equals B_pq with every word bracketed
    left to right by alg.bracket, for every block of the stored family to
    degree 4 and every index tuple, on borel2's double and on sl2."""
    fam = stored_family(4)
    for alg in (dbl.algebra, sl2()):
        ctx = ShContext(alg, fam, 2)
        for p, q in sorted(fam.table):
            for idx in itertools.product(range(alg.dim), repeat=p + q):
                assert ctx.b_eval(p, q, idx) == bracket_loop_block(fam, alg, p, q, idx)


def test_word_product_is_the_full_loop_on_generators(B4, n5):
    """Same words, coefficients, repeats and order as the walk over every
    composition pair, with the LiePoly oracle rule on free-Lie generators."""
    for fam in (zero_past(B4), zero_past(n5)):
        block = liepoly_block(fam)
        for a, b in LENGTHS:
            gens = tuple(LiePoly.gen(i) for i in range(a + b))
            u, v = gens[:a], gens[a:]
            assert (deformed_word_product(u, v, block)
                    == word_product_all_pairs(u, v, block)), (a, b)


def test_word_product_is_the_full_loop_on_basis_words(B4, borel):
    """The same with ShContext.b_eval, the block rule of word_mul, on
    borel2 and on sl2."""
    for alg in (borel.algebra, sl2()):
        ctx = ShContext(alg, zero_past(B4), 2)

        def rule(p, q, idx):
            return ctx.b_eval(p, q, idx).items()
        for a, b in LENGTHS:
            u = tuple(i % alg.dim for i in range(a))
            v = tuple((i + 1) % alg.dim for i in range(b))
            assert (deformed_word_product(u, v, rule)
                    == word_product_all_pairs(u, v, rule)), (a, b)


def test_letter_mul_is_the_full_loop_on_lie_letters(B4, n5):
    """The same with BFamily.eval on words of Lie letters: the family's
    word algebra on them is the full loop with its repeats added up, its
    words in the order of their first term."""
    letters = ((0,), (1, 2), (3,), (4, 5), (6,), (7, 8), (9,), (10,))
    for fam in (zero_past(B4), zero_past(n5)):
        def rule(p, q, ls):
            return fam.eval(p, q, ls).terms.items()
        for a, b in LENGTHS:
            u, v = letters[:a], letters[a:a + b]
            want = {}
            for w, c in word_product_all_pairs(u, v, rule):
                add_term(want, w, c)
            assert list(fam.letters.word_mul(u, v).items()) == list(want.items()), (a, b)


def antipode_closed(a):
    """Closed partition formula S(w) = sum (-1)^k w_1 ... w_k over the
    splittings of w into k nonempty blocks (oracle for the recursion)."""
    ctx = a.ctx
    out = ShElem(ctx, {})
    for w, c in a.terms.items():
        if not w:
            out = out + ShElem.unit(ctx, c)
            continue
        for k in range(1, len(w) + 1):
            for pc in positive_compositions(len(w), k):
                prod = ShElem.unit(ctx)
                off = 0
                for pb in pc:
                    prod = sh_mul(prod, ShElem.word(ctx, w[off:off + pb]))
                    off += pb
                out = out + Fraction((-1) ** k) * c * prod
    return out


def test_antipode_examples(B4, borel):
    ctx = ctx_borel(B4, borel)
    assert sh_antipode(ShElem.unit(ctx)) == ShElem.unit(ctx)
    assert sh_antipode(ShElem.word(ctx, (0,))) == -1 * ShElem.word(ctx, (0,))
    s = sh_antipode(ShElem.word(ctx, (0, 1)))
    assert s == ShElem.word(ctx, (1, 0)) + ShElem.word(ctx, (1,), Fraction(1, 2))
    for w in all_words(2, 4):
        a = ShElem.word(ctx, w)
        assert sh_antipode(a) == antipode_closed(a)
        assert sh_antipode(ShElem(ctx, ctx.antipode(w, inverse=True))) == a


def test_hopf_report_borel2(B4, borel):
    assert not hopf_report(borel.algebra, B4, 3, 2)


def test_hopf_report_corrupted_family(B4, borel):
    table = dict(B4.table)
    table.pop((1, 2))
    bad = BFamily(B4.lam, 3, {k: v for k, v in table.items()
                              if sum(k) <= 3})
    failures = hopf_report(borel.algebra, bad, 3, 2)
    assert failures
    assert any(kind == "associativity" for kind, _ in failures)


def _doubled_b21(B4):
    """The degree-3 family with B_21 doubled, which is not associative."""
    return BFamily(B4.lam, 3, {k: 2 * v if k == (2, 1) else v
                               for k, v in B4.table.items() if sum(k) <= 3})


def test_hopf_report_witnesses(B4):
    """On sl2 the family with B_21 doubled fails 18 associativity and 18
    antipode checks.  Each failure names the checked words, then the
    first term of lhs - rhs and the hbar valuation of its coefficient,
    recomputed here (the antipode sums over the splits of the word)."""
    bad = _doubled_b21(B4)
    failures = hopf_report(sl2(), bad, 3, 2)
    assert Counter(kind for kind, _ in failures) == {"associativity": 18, "antipode": 18}
    ctx = ShContext(sl2(), bad, 2)
    for kind, (words, key, order) in failures:
        if kind == "associativity":
            a, b, c = (ShElem.word(ctx, w) for w in words)
            diff = sh_mul(sh_mul(a, b), c) - sh_mul(a, sh_mul(b, c))
        else:
            splits = [(ShElem.word(ctx, words[:i]), ShElem.word(ctx, words[i:]))
                      for i in range(len(words) + 1)]
            diff = ShElem(ctx, {})
            for x, y in splits:
                diff = diff + sh_mul(sh_antipode(x), y)
            if not diff:
                for x, y in splits:
                    diff = diff + sh_mul(x, sh_antipode(y))
        first, c = next(iter(diff.terms.items()))
        assert (key, order) == (first, c.valuation())


def test_hopf_report_matches_the_per_word_report(B4, borel):
    """The kinds and words of the failures, in order, are those of the
    report that scales and sums every product word by word with
    series-valued memos."""
    bad = _doubled_b21(B4)
    for alg, fam, count in ((sl2(), bad, 36), (borel.algebra, bad, 6),
                            (borel.algebra, B4, 0)):
        failures = hopf_report(alg, fam, 3, 2)
        assert [(kind, w[0]) for kind, w in failures] == per_word_hopf_report(alg, fam, 3, 2)
        assert len(failures) == count


def test_hopf_report_does_not_depend_on_the_hbar_order(B4):
    """The structure maps are defined over Q and every input word has
    coefficient 1, so the failures are the same at every hbar order and
    every witness order is 0."""
    bad = _doubled_b21(B4)
    reports = [hopf_report(sl2(), bad, 3, h) for h in (0, 2, 3)]
    assert reports[0] and reports[0] == reports[1] == reports[2]
    assert all(order == 0 for _, (_, _, order) in reports[0])


def _antipode_inv(a):
    out = {}
    for w, c in a.terms.items():
        for x, cx in a.ctx.antipode(w, inverse=True).items():
            add_term(out, x, c * cx)
    return out


def test_rational_memos_match_the_series_memos(B6, borel, dbl):
    """sh_mul, ShTensor.mul, sh_antipode and S^-1 on elements whose
    coefficients are non-constant series at the context's order equal, as
    ordered item lists, the same maps read through memos of constant
    series; the memos hold ints and Fractions."""
    rng = random.Random(29)
    order = 3
    for alg in (borel.algebra, sl2(), dbl.algebra):
        ctx, octx = ShContext(alg, B6, order), SeriesShContext(alg, B6, order)
        for _ in range(2):
            a = _seeded_terms(rng, alg.dim, None, order, 8)
            b = _seeded_terms(rng, alg.dim, None, order, 8)
            got = sh_mul(ShElem(ctx, a), ShElem(ctx, b))
            want = series_sh_mul(ShElem(octx, a), ShElem(octx, b))
            assert list(got.terms.items()) == list(want.terms.items())
            got, want = sh_antipode(ShElem(ctx, a)), series_sh_antipode(ShElem(octx, a))
            assert list(got.terms.items()) == list(want.terms.items())
            got, want = _antipode_inv(ShElem(ctx, a)), _antipode_inv(ShElem(octx, a))
            assert list(got.items()) == list(want.items())
            for legs in (2, 3):
                a = _seeded_terms(rng, alg.dim, legs, order, 6)
                b = _seeded_terms(rng, alg.dim, legs, order, 6)
                got = ShTensor(ctx, legs, a).mul(ShTensor(ctx, legs, b))
                want = ShTensor(octx, legs, a).mul(ShTensor(octx, legs, b))
                assert list(got.terms.items()) == list(want.terms.items())
        memos = [ctx._products, *ctx._antipodes]
        assert all(memo for memo in memos)
        assert all(type(c) in (int, Fraction)
                   for memo in memos for value in memo.values() for c in value.values())


def _component(a, k):
    """The degree-k part of a."""
    return ShElem(a.ctx, {w: c for w, c in a.terms.items() if len(w) == k})


def test_poisson_m1(B4, borel):
    ctx = ctx_borel(B4, borel, 0)
    m1 = poisson_m1(ctx, (0,), (1,))
    assert m1 == ShElem.word(ctx, (1,))       # ([h,e]) = (e)
    actx = ShContext(abelian(2), B4, 0)
    assert not poisson_m1(actx, (0, 1), (0,))
    # classical limit: sh(a,b) - sh(b,a) at top degree reproduces m1
    for u, v in (((0,), (1,)), ((0, 1), (1,)), ((0,), (1, 1))):
        a, b = ShElem.word(ctx, u), ShElem.word(ctx, v)
        comm = sh_mul(a, b) - sh_mul(b, a)
        top = _component(comm, len(u) + len(v) - 1)
        assert top == poisson_m1(ctx, u, v)
        half = sh_mul(a, b) - shuffle0(ctx, u, v)
        assert _component(half, len(u) + len(v) - 1) == \
            Fraction(1, 2) * poisson_m1(ctx, u, v)


def test_sym_embedding(B4, borel):
    ctx = ctx_borel(B4, borel)
    x = ShElem.word(ctx, (1,))
    assert sh_mul(x, x) == ShElem.word(ctx, (1, 1), 2)
    xxx = sh_mul(sh_mul(x, x), x)
    assert xxx == ShElem.word(ctx, (1, 1, 1), 6)    # x^3 -> 3!(xxx)
    s1 = sym_word(ctx, (0,))
    s2 = sym_word(ctx, (1,))
    assert is_symmetric(sh_mul(s1, s2))
    assert is_symmetric(sh_mul(sym_word(ctx, (0, 1)), s2))
    # iota(x y - y x - [x,y]) = 0
    h, e = ShElem.word(ctx, (0,)), ShElem.word(ctx, (1,))
    assert not (sh_mul(h, e) - sh_mul(e, h) - ShElem.word(ctx, (1,)))


def _reverse(a):
    """The word-reversal automorphism Psi."""
    return ShElem(a.ctx, {tuple(reversed(w)): c for w, c in a.terms.items()})


def test_reversal_is_hopf_iso_between_dual_families(B6, borel):
    """m_Sh(B) o (Psi x Psi) = Psi o m_Sh(B-dual) on random words."""
    ctx = ShContext(borel.algebra, B6, 3)
    ctx_dual = ShContext(borel.algebra, B6.dual(), 3)
    rng = random.Random(8)
    for _ in range(10):
        u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        lhs = sh_mul(_reverse(ShElem.word(ctx, u)), _reverse(ShElem.word(ctx, v)))
        rhs = _reverse(sh_mul(ShElem.word(ctx_dual, u), ShElem.word(ctx_dual, v)))
        assert lhs.terms == rhs.terms


def test_projection_bracket_lemma(borel):
    """pr([iota(a), T]) = [a, pr(T)] for words T of degree <= 4, which
    reads B_14 and B_41 of the stored family."""
    ctx = ctx_borel(stored_family(5), borel)
    alg = borel.algebra
    for a_idx in range(2):
        a = ShElem.word(ctx, (a_idx,))
        for w in all_words(2, 4):
            T = ShElem.word(ctx, w)
            lhs = degree_one(sh_mul(a, T) - sh_mul(T, a))
            rhs = alg.bracket(alg.basis(a_idx), alg.basis(w[0])) \
                if len(w) == 1 else {}
            assert lhs == {k: as_series(v, 3) for k, v in rhs.items()}


def test_homotopy_formula(B4, borel):
    """id = Delta~ o conc~ + conc~(2) o (Delta~ x id - id x Delta~) on
    pairs of nonempty words of total degree <= 4 (operator identity on
    the word coordinates; the maps do not involve the deformation)."""
    words = [w for w in all_words(2, 3) if w]
    for u in words:
        for v in words:
            n = len(u) + len(v)
            if n > 4:
                continue
            # Delta~ o conc~ : proper deconcatenations of (uv) / (n-1)
            total = {}
            for i in range(1, n):
                key = ((u + v)[:i], (u + v)[i:])
                total[key] = total.get(key, 0) + Fraction(1, n - 1)
            # conc~(2) of (Delta~ x id - id x Delta~)(u x v):
            # each triple (w1, w2, w3) maps to (w1w2, w3)/(n-1) - (w1, w2w3)/(n-1)
            for i in range(1, len(u)):
                w1, w2 = u[:i], u[i:]
                total[(w1 + w2, v)] = total.get((w1 + w2, v), 0) + Fraction(1, n - 1)
                total[(w1, w2 + v)] = total.get((w1, w2 + v), 0) - Fraction(1, n - 1)
            for j in range(1, len(v)):
                w2, w3 = v[:j], v[j:]
                total[(u + w2, w3)] = total.get((u + w2, w3), 0) - Fraction(1, n - 1)
                total[(u, w2 + w3)] = total.get((u, w2 + w3), 0) + Fraction(1, n - 1)
            total = {k: c for k, c in total.items() if c}
            assert total == {(u, v): Fraction(1)}


def _delta_P(cobracket, P, a):
    """Oracle for the dual block of a multilinear Lie polynomial P of
    degree n: <delta_P(e_a), e^b_1 x...x e^b_n> = <e_a, P(e^b_1,...,e^b_n)>,
    computed on the coalgebra side as (1/n) sum_sigma P_sigma
    sigma.(left-iterated cobracket of e_a), where P_sigma are the word
    coefficients of P and sigma permutes slots."""
    exp = P.expand()
    if not exp:
        return {}
    n = len(next(iter(exp.terms)))
    base = {(a,): Fraction(1)}
    for _ in range(n - 1):
        nxt = {}
        for idx, c in base.items():
            for (j, k), cb in cobracket.get(idx[0], {}).items():
                add_term(nxt, (j, k) + idx[1:], c * cb)
        base = nxt
    out = {}
    for word, c in exp.terms.items():
        # word (w_1..w_n) encodes sigma(i) = w_i + 1; slot sigma(i) <- factor i
        for idx, cb in base.items():
            new = [None] * n
            for i in range(n):
                new[word[i]] = idx[i]
            add_term(out, tuple(new), Fraction(1, n) * c * cb)
    return out


def test_delta_P(B4, borel, dbl):
    """TensContext.dual_block, read on the double, against the
    iterated-cobracket oracle on every entry of B4."""
    tctx = TensContext(dbl, B4, 3)
    # P = x1: identity
    assert _delta_P(borel.cobracket, LiePoly.gen(0), 1) == {(1,): Fraction(1)}
    assert tctx.dual_block(1, 0, 1) == tctx.dual_block(0, 1, 1) == {(1,): Fraction(1)}
    # P = [x1,x2]: the cobracket itself; B_11 = 1/2 [x1,x2]
    cob = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    assert _delta_P(borel.cobracket, LiePoly.leftnormed((0, 1)), 1) == cob
    assert tctx.dual_block(1, 1, 1) == {k: Fraction(1, 2) * c for k, c in cob.items()}
    # zero cobracket in higher degree
    assert _delta_P({}, LiePoly.leftnormed((0, 1)), 0) == {}
    tctx0 = TensContext(build_double(abelian_bialgebra(2)), B4, 3)
    assert tctx0.dual_block(1, 1, 0) == {}
    # every entry of B4, degree 4 included
    assert max(p + q for p, q in B4.table) == 4
    for (p, q), ent in B4.table.items():
        for a in range(2):
            assert tctx.dual_block(p, q, a) == _delta_P(borel.cobracket, ent, a)


def _direct_dual_block(bfam, dbl, p, q, x, left, right):
    """<B_pq(left, e^idx..., right), e_x> per x and per index tuple, each
    value one bracket loop on basis vectors of the double."""
    d = dbl.base.algebra.dim
    out = {}
    for idx in itertools.product(range(d), repeat=p + q - len(left) - len(right)):
        letters = left + tuple(d + i for i in idx) + right
        c = bracket_loop_block(bfam, dbl.algebra, p, q, letters).get(d + x, 0)
        if c:
            out[idx] = c
    return out


@pytest.mark.parametrize("source", ["borel2", "sl2.json", "borel2_scaled.json"])
def test_dual_block_is_the_direct_evaluation(B4, source):
    """The one-pass dual blocks, read in an order that mixes x, p, q and
    the g-letters on each side, equal the direct evaluation through
    bracket loop on a separately built double, for p + q <= 4."""
    bia = (borel2() if source == "borel2"
           else bialgebra_from_json(json.loads((DATA / source).read_text())))
    tctx = TensContext(build_double(bia), B4, 3)
    oracle = build_double(bia)
    d = bia.algebra.dim
    sides = [((), ())] + [((a,), ()) for a in range(d)] + [((), (a,)) for a in range(d)]
    sides.append(((0,), (d - 1,)))
    seen = 0
    for left, right in sides:
        for n in range(max(1, len(left) + len(right)), 5):
            for p in range(n + 1):
                for x in reversed(range(d)):
                    want = _direct_dual_block(B4, oracle, p, n - p, x, left, right)
                    assert tctx.dual_block(p, n - p, x, left, right) == want
                    seen += bool(want)
    assert seen


def test_t_comul(B4, dbl):
    tctx0 = TensContext(build_double(abelian_bialgebra(2)), B4, 3)
    d = t_comul(tctx0, AssocPoly.gen(0))
    assert d == {((), (0,)): as_series(1, 3), ((0,), ()): as_series(1, 3)}
    tctx = TensContext(dbl, B4, 3)
    d2 = t_comul(tctx, AssocPoly.gen(1))
    assert d2[((0,), (1,))].coeff(1) == Fraction(1, 2)
    assert d2[((1,), (0,))].coeff(1) == Fraction(-1, 2)
    # counit law
    for i in range(2):
        dd = t_comul(tctx, AssocPoly.gen(i))
        left = {}
        for (u, v), c in dd.items():
            if u == ():
                left[v] = left.get(v, as_series(0, 3)) + c
        assert left == {(i,): as_series(1, 3)}
    # coassociativity mod hbar^4 on generators and a 2-word
    for x in (AssocPoly.gen(1), AssocPoly.word((0, 1))):
        d1 = {}
        for (u, v), c in t_comul(tctx, x).items():
            for (u2, v2), c2 in t_comul(tctx, AssocPoly.word(u)).items():
                k = (u2, v2, v)
                d1[k] = d1.get(k, as_series(0, 3)) + c * c2
        d2m = {}
        for (u, v), c in t_comul(tctx, x).items():
            for (u2, v2), c2 in t_comul(tctx, AssocPoly.word(v)).items():
                k = (u, u2, v2)
                d2m[k] = d2m.get(k, as_series(0, 3)) + c * c2
        assert {k: v for k, v in d1.items() if v} == \
            {k: v for k, v in d2m.items() if v}


def test_pairing(B4, borel, dbl):
    """The Hopf pairing between the dual shuffle algebra and the deformed
    tensor algebra of borel2."""
    # g*: [e^i, e^j] = sum_k c_k^{ij} e^k, dual to delta(e_k) = sum c_k^{ij} e_i x e_j
    br = {}
    for k, t in borel.cobracket.items():
        for (i, j), c in t.items():
            if i < j:
                add_term(br.setdefault((i, j), {}), k, c)
    dual_alg = LieAlgebra(2, ["h^", "e^"], br)
    ctx = ShContext(dual_alg, B4, 3)
    tctx = TensContext(dbl, B4, 3)
    # <(e^), e> = hbar^-1
    p = pairing(ShElem.word(ctx, (1,)), AssocPoly.gen(1))
    assert p.pole == 1 and p.series == 1
    # mismatched degrees -> 0
    p0 = pairing(ShElem.word(ctx, (1,)), AssocPoly.word((1, 1)))
    assert not p0.series
    # duality 1: <xi eta, x> = sum <xi, x1> <eta, x2>
    rng = random.Random(9)
    for _ in range(8):
        xi = ShElem.word(ctx, tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))))
        eta = ShElem.word(ctx, tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))))
        x = AssocPoly.word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))))
        lhs = pairing(sh_mul(xi, eta), x)
        tot_pole = 0
        acc = as_series(0, 3)
        pieces = []
        for (u, v), c in t_comul(tctx, x).items():
            p1 = pairing(xi, AssocPoly.word(u))
            p2 = pairing(eta, AssocPoly.word(v))
            pieces.append((p1, p2, c))
        # compare as coefficient of the common pole hbar^-deg(x)
        n = max((len(w) for w in x.terms), default=0)
        lhs_val = lhs.series.shift(lhs.pole - n) if lhs.pole <= n else None
        rhs_val = as_series(0, 3)
        ok = True
        for p1, p2, c in pieces:
            pole = p1.pole + p2.pole
            if pole > n:
                prod = p1.series * p2.series * c
                if prod:
                    ok = False
                    break
                continue
            rhs_val = rhs_val + (p1.series * p2.series * c).shift(pole - n)
        assert ok and lhs_val is not None
        assert lhs_val == rhs_val
    # duality 2: <xi, x y> = sum <xi1, x><xi2, y>
    for _ in range(8):
        xi = ShElem.word(ctx, tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))))
        x = AssocPoly.word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))))
        y = AssocPoly.word(tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))))
        lhs = pairing(xi, x * y)
        n = max((len(w) for w in (x * y).terms), default=0)
        lhs_val = lhs.series.shift(lhs.pole - n) if lhs.pole <= n else None
        rhs_val = as_series(0, 3)
        ok = True
        for (u, v), c in sh_comul(xi).terms.items():
            p1 = pairing(ShElem.word(ctx, u), x)
            p2 = pairing(ShElem.word(ctx, v), y)
            pole = p1.pole + p2.pole
            prod = p1.series * p2.series * c
            if pole > n:
                if prod:
                    ok = False
                    break
                continue
            rhs_val = rhs_val + prod.shift(pole - n)
        assert ok and lhs_val is not None and lhs_val == rhs_val


def test_qfsh(B4, borel):
    ctx = ctx_borel(B4, borel)
    # conc o delta_n multiplies pure tensors by the ordered-surjection count
    for k in (1, 2, 3, 4):
        w = tuple([0, 1, 0, 1][:k])
        a = ShElem.word(ctx, w)
        for n in (1, 2, 3, 4):
            d = qfsh_delta(a, n)
            conc = {}
            for key, c in d.terms.items():
                word = sum(key, ())
                conc[word] = conc.get(word, as_series(0, 3)) + c
            conc = {kk: v for kk, v in conc.items() if v}
            cnt = ordered_surjection_count(n, k)
            assert conc == ({w: as_series(cnt, 3)} if cnt else {})
    # delta_0 is the counit on 0 legs
    d0 = qfsh_delta(ShElem.unit(ctx, 3) + ShElem.word(ctx, (0, 1)), 0)
    assert d0.legs == 0 and d0.terms == {(): as_series(3, 3)}
    assert not qfsh_delta(ShElem.word(ctx, (0, 1)), 0)
    assert ordered_surjection_count(2, 1) == 0    # zero iff k < n
    assert ordered_surjection_count(2, 2) == 1
    assert ordered_surjection_count(2, 3) == 2
    # membership: hbar^k-divisibility per degree-k part
    h2 = HSeries.hpow(2, 1, 3)
    assert qfsh_member(ShElem(ctx, {(0, 1): h2}))
    assert not qfsh_member(ShElem.word(ctx, (0, 1)))
    assert qfsh_member(ShElem.unit(ctx))


def test_sh_json_round_trip(B4, borel):
    ctx = ctx_borel(B4, borel)
    a = sh_mul(ShElem.word(ctx, (0,)), ShElem.word(ctx, (1, 1)))
    import json as _json
    blob = _json.dumps(sh_to_json(a))
    assert sh_from_json(ctx, _json.loads(blob)) == a


def test_hopf_report_sl2_small(B4):
    assert not hopf_report(sl2(), B4, 2, 2)


# ---------------------------------------------------------------------------
# the valuation skip of products is exact
# ---------------------------------------------------------------------------

def _series(rng, v, order):
    """A series of valuation exactly v, random above it."""
    cs = [Fraction(0)] * v + [Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))]
    cs += [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(order - v)]
    return HSeries(cs, order)


def _seeded_terms(rng, dim, legs, order, count):
    """count distinct keys (legs=None: plain words), the n-th with a
    coefficient of valuation n mod (order + 1)."""
    terms = {}
    while len(terms) < count:
        key = tuple(tuple(rng.randrange(dim) for _ in range(rng.randint(0, 3)))
                    for _ in range(legs or 1))
        key = key if legs else key[0]
        if key not in terms:
            terms[key] = _series(rng, len(terms) % (order + 1), order)
    return terms


def _lower_order(rng, terms, low, count):
    """Replace the last count coefficients by series of order low."""
    for n, key in enumerate(list(terms)[-count:]):
        terms[key] = _series(rng, n % (low + 1), low)


def _naive_tensor_mul(ctx, a, b):
    """Every term pair, leg by leg, nothing skipped."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            combos = [((), c1 * c2)]
            for w1, w2 in zip(k1, k2):
                combos = [(key + (w,), c * cw) for key, c in combos
                          for w, cw in ctx.word_mul(w1, w2).items()]
            for key, c in combos:
                add_term(out, key, c)
    return out


def _naive_sh_mul(ctx, a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for w, cw in ctx.word_mul(wa, wb).items():
                add_term(out, w, ca * cb * cw)
    return out


def _naive_concat(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            add_term(out, wa + wb, ca * cb)
    return out


def _truncated(terms, low):
    """Coefficients (with their orders) mod hbar^(low+1), zeros dropped."""
    out = {}
    for k, c in terms.items():
        t = HSeries(c.coeffs[: low + 1], min(low, c.order))
        if t:
            out[k] = (t.coeffs, t.order)
    return out


def test_valuation_skip_boundary(B4, borel):
    ctx = ctx_borel(B4, borel, order=3)
    h = [HSeries.hpow(v, 1, 3) for v in range(4)]
    pairs = [(k1, k2) for k1, _, k2, _ in
             surviving_pairs({1: h[1], 2: h[2]}, {"a": h[2], "b": h[3]})]
    # 1 + 2 = order is kept, 1 + 3 and 2 + 2 are one past it and dropped
    assert pairs == [(1, "a")]
    a, b = ShElem.word(ctx, (0,), h[1]), ShElem.word(ctx, (1,), h[2])
    assert sh_mul(a, b) == ShElem(ctx, _naive_sh_mul(ctx, a.terms, b.terms))
    assert sh_mul(a, b).terms[(0, 1)] == h[3]
    assert not sh_mul(a, ShElem.word(ctx, (1,), h[3]))
    # the order comes from the series: h (order 1) times h truncates at 1
    low = HSeries([0, 1], 1)
    assert list(surviving_pairs({1: low}, {2: h[1]})) == []
    assert list(surviving_pairs({1: h[1]}, {2: h[1]})) == [(1, h[1], 2, h[1])]


def test_valuation_skip_matches_naive_products(B6, borel):
    rng = random.Random(6)
    order = 3
    ctx = ctx_borel(B6, borel, order=order)
    for trial in range(6):
        # the last two trials give some series an order below ctx.order
        low = order if trial < 4 else 1
        for legs in (2, 3):
            a = _seeded_terms(rng, 2, legs, order, 8)
            b = _seeded_terms(rng, 2, legs, order, 8)
            if low < order:
                _lower_order(rng, a, low, 4)
            got = ShTensor(ctx, legs, a).mul(ShTensor(ctx, legs, b))
            want = _naive_tensor_mul(ctx, a, b)
            assert _truncated(got.terms, low) == _truncated(want, low)
        a = _seeded_terms(rng, 2, None, order, 10)
        b = _seeded_terms(rng, 2, None, order, 10)
        if low < order:
            _lower_order(rng, b, low, 4)
        got = sh_mul(ShElem(ctx, a), ShElem(ctx, b))
        assert _truncated(got.terms, low) == _truncated(_naive_sh_mul(ctx, a, b), low)
        # T(g)'s product: concatenation of words with series coefficients
        got = AssocPoly(a) * AssocPoly(b)
        assert _truncated(got.terms, low) == _truncated(_naive_concat(a, b), low)
