import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from liequant import bfamily
from liequant.bfamily import (BFamily, GaugeSeq, solve_bfamily, assoc_residual,
                              all_residuals_zero, gauge_act, gauge_mul,
                              gauge_inverse, connecting_gauge,
                              scale, cbh_check, bfamily_to_json,
                              bfamily_from_json, PAPER3_B21, PAPER3_B12,
                              Obstructed, _shuffle_column, _unknown_slots,
                              deformed_word_product, positive_compositions)
from liequant.freealg import LiePoly, leftnormed_basis, substitute
from liequant.quantize import Quantization
from liequant.rmatrix import uelem_to_json
from liequant.scalars import add_term
from liequant.universal import solve_varrho
from shuffle_oracle import liepoly_block

DATA = Path(__file__).resolve().parent / "data"


def lam_half_table():
    return {(1, 1): Fraction(1, 2) * LiePoly.leftnormed((0, 1))}


def test_residual_zero_with_normalized_degree3(B4):
    assert assoc_residual(B4, 1, 1, 1) == LiePoly()


def test_residual_obstruction_witness():
    fam = BFamily(Fraction(1, 2), 3, lam_half_table())  # B12 = B21 = 0
    assert assoc_residual(fam, 1, 1, 1)


def test_plain_shuffle_family_all_zero():
    fam = BFamily(Fraction(0), 4, {(1, 1): LiePoly()})
    assert all_residuals_zero(fam)


def test_solve_paper3_matches_displays(B4):
    assert B4.entry(2, 1) == PAPER3_B21
    assert B4.entry(1, 2) == PAPER3_B12
    assert all_residuals_zero(B4)


def test_solve_lambda_zero():
    fam = solve_bfamily(Fraction(0), 4, "rref-zero")
    assert all_residuals_zero(fam)
    assert not fam.entry(1, 2) and not fam.entry(2, 2)


def test_gauge_identity_and_action_axiom(B4):
    ident = GaugeSeq({}, 4)     # the identity gauge: no entry past degree 1
    fixed = gauge_act(ident, B4)
    assert all(fixed.entry(p, q) == B4.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])
    g = GaugeSeq({2: Fraction(1, 3) * LiePoly.leftnormed((0, 1))}, 4)
    h = GaugeSeq({2: Fraction(-1, 2) * LiePoly.leftnormed((0, 1)),
                  3: Fraction(1, 7) * LiePoly.leftnormed((0, 1, 2))}, 4)
    lhs = gauge_act(g, gauge_act(h, B4))
    rhs = gauge_act(gauge_mul(g, h), B4)
    assert all(lhs.entry(p, q) == rhs.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])


def test_gauge_preserves_residuals_and_lambda(B4):
    g = GaugeSeq({2: Fraction(2, 5) * LiePoly.leftnormed((0, 1)),
                  3: Fraction(-1, 4) * LiePoly.leftnormed((0, 2, 1))}, 4)
    fam = gauge_act(g, B4)
    assert fam.lam == B4.lam
    assert all_residuals_zero(fam)


def test_gauge_group_axioms():
    g = GaugeSeq({2: Fraction(1, 3) * LiePoly.leftnormed((0, 1))}, 4)
    h = GaugeSeq({3: Fraction(1, 5) * LiePoly.leftnormed((0, 1, 2))}, 4)
    k = GaugeSeq({2: Fraction(-2) * LiePoly.leftnormed((0, 1))}, 4)
    ident = GaugeSeq({}, 4)     # the identity gauge: no entry past degree 1
    assert all(gauge_mul(g, ident).entry(n) == g.entry(n) for n in range(1, 5))
    assert all(gauge_mul(ident, g).entry(n) == g.entry(n) for n in range(1, 5))
    a1 = gauge_mul(gauge_mul(g, h), k)
    a2 = gauge_mul(g, gauge_mul(h, k))
    assert all(a1.entry(n) == a2.entry(n) for n in range(1, 5))
    gi = gauge_inverse(g)
    assert all(not gauge_mul(g, gi).entry(n) for n in range(2, 5))


def test_gauge_entry_past_max_degree_raises():
    """As for BFamily.entry, a gauge entry past max_degree is unknown, so
    reading it (or evaluating it) raises instead of reading zero; below
    it an unset entry is zero and P_1 is the generator."""
    g = GaugeSeq({2: Fraction(1, 3) * LiePoly.leftnormed((0, 1))}, 3)
    assert g.entry(1) == LiePoly.gen(0) and not g.entry(3)
    assert g.entry(2) == Fraction(1, 3) * LiePoly.leftnormed((0, 1))
    with pytest.raises(ValueError, match="entry 4 is past the gauge's max_degree 3"):
        g.entry(4)
    with pytest.raises(ValueError, match="past the gauge"):
        g.eval(4, tuple((i,) for i in range(4)))
    # the product reads no entry past the smaller degree
    assert gauge_mul(g, GaugeSeq({}, 2)).max_degree == 2


def test_connecting_gauge(B4, B4_rref):
    # rref-zero and the normalized gauge coincide at degree 4 (joint solve)
    P = connecting_gauge(B4_rref, B4)
    chk = gauge_act(P, B4_rref)
    assert all(chk.entry(p, q) == B4.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])
    # and a deliberately gauged family connects back
    g = GaugeSeq({2: Fraction(1, 3) * LiePoly.leftnormed((0, 1)),
                  3: Fraction(1, 5) * LiePoly.leftnormed((0, 2, 1))}, 4)
    fam = gauge_act(g, B4)
    P2 = connecting_gauge(fam, B4)
    chk2 = gauge_act(P2, fam)
    assert all(chk2.entry(p, q) == B4.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])
    # the degree-3 truncations are also gauge equivalent (via P_3)
    B3r = solve_bfamily(Fraction(1, 2), 3, "rref-zero")
    B3p = solve_bfamily(Fraction(1, 2), 3, "paper3")
    P3 = connecting_gauge(B3r, B3p)
    chk3 = gauge_act(P3, B3r)
    assert chk3.entry(2, 1) == B3p.entry(2, 1)
    assert chk3.entry(1, 2) == B3p.entry(1, 2)


@pytest.fixture(scope="module")
def B5():
    return solve_bfamily(Fraction(1, 2), 5, "paper3")


def random_gauge(rng, N):
    """A gauge with a seeded coefficient on every left-normed monomial of
    degrees 2..N."""
    return GaugeSeq({n: LiePoly({m: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                 for m in leftnormed_basis(range(n))})
                     for n in range(2, N + 1)}, N)


def same_entries(A, B, N):
    return all(A.entry(p, n - p) == B.entry(p, n - p)
               for n in range(2, N + 1) for p in range(1, n))


def test_connecting_gauge_degree_5(B5):
    """Families gauged from B5 connect back exactly: one gauge in degree
    2, one in degree 3 and three seeded ones in degrees 2..5."""
    gauges = [GaugeSeq({2: Fraction(1, 3) * LiePoly.leftnormed((0, 1))}, 5),
              GaugeSeq({3: Fraction(1, 5) * LiePoly.leftnormed((0, 2, 1))}, 5)]
    rng = random.Random(7)
    gauges += [random_gauge(rng, 5) for _ in range(3)]
    for g in gauges:
        fam = gauge_act(g, B5)
        assert not same_entries(fam, B5, 5)
        assert same_entries(gauge_act(connecting_gauge(fam, B5), fam), B5, 5)


def test_connecting_gauge_obstructed_on_inequivalent_families(B5):
    """The degree-5 solve and the stored family's degree-5 prefix are not
    gauge equivalent, so degree 5 is obstructed.  The degree-6
    associativity system with the solve's entries of degree <= 5 fixed is
    inconsistent, the stored prefix extends to degree 6, and the gauge
    action preserves associativity in every degree: a gauge between the
    two would carry the stored degree-6 extension to one of the solve."""
    with pytest.raises(Obstructed) as info:
        connecting_gauge(B5, bfamily.stored_family(5))
    e = info.value
    assert (e.degree, e.reason) == (5, "gauge")
    (p, q, mono), c = e.witness
    assert p + q == 5 and sorted(mono) == list(range(5)) and c


def test_gauged_family_quantizes(borel):
    """B' = P . B for a seeded P in degrees 2..4 stays associative, has a
    unique varrho to degree 3, and its quantizations at orders 2 and 3
    pass the QYBE and every semiclassical check."""
    fam = gauge_act(random_gauge(random.Random(11), 4), bfamily.stored_family(4))
    assert all_residuals_zero(fam)
    varrho = solve_varrho(fam, 3)
    for order in (2, 3):
        Q = Quantization(fam, borel, order=order, varrho=varrho)
        assert Q.check_qybe()
        assert all(Q.semiclassical_check(i) for i in range(borel.algebra.dim))


def test_involution(B4):
    assert all(B4.dual().dual().entry(p, q) == B4.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])
    assert B4.dual().entry(1, 1) == B4.entry(1, 1)
    # the normalized degree-3 entries are reversal symmetric
    assert B4.dual().entry(2, 1) == B4.entry(2, 1)


def test_scale(B4):
    assert scale(Fraction(1), B4).entry(1, 2) == B4.entry(1, 2)
    assert scale(Fraction(2), B4).entry(1, 1) == Fraction(2) * B4.entry(1, 1)
    assert scale(Fraction(2), B4).entry(1, 2) == Fraction(4) * B4.entry(1, 2)
    assert scale(Fraction(2), B4).lam == 1
    with pytest.raises(ValueError):
        scale(0, B4)


def test_cbh_check(B4):
    rep = cbh_check(B4)
    assert all(rep.values())
    zero_fam = BFamily(Fraction(0), 2, {(1, 1): LiePoly()})
    assert cbh_check(zero_fam)[(1, 1)] is False


def test_involution_scale_commute_with_gauge(B4):
    # scaling commutes with the gauge action under the scaled gauge
    g = GaugeSeq({2: Fraction(1, 3) * LiePoly.leftnormed((0, 1))}, 4)
    r = Fraction(3)
    lhs = scale(r, gauge_act(g, B4))
    g_scaled = GaugeSeq({n: (r ** (n - 1)) * e for n, e in g.table.items()}, 4)
    rhs = gauge_act(g_scaled, scale(r, B4))
    assert all(lhs.entry(p, q) == rhs.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])


def test_serialization_round_trip(B4):
    blob = json.dumps(bfamily_to_json(B4))
    back = bfamily_from_json(json.loads(blob))
    assert back.lam == B4.lam and back.max_degree == B4.max_degree
    assert all(back.entry(p, q) == B4.entry(p, q)
               for n in range(2, 5) for p in range(1, n) for q in [n - p])


# -- the per-degree solve against independent oracles -----------------------

@pytest.mark.parametrize("n, gauge", [(4, "rref-zero"), (4, "paper3"),
                                      (5, "paper3"), (5, "rref-zero")])
def test_solve_matches_stored_output(n, gauge):
    """Byte-equal to `bfamily solve` output stored from the joint Newton
    solve of all degrees, which the per-degree solve replaced."""
    fam = solve_bfamily(Fraction(1, 2), n, gauge)
    text = json.dumps(bfamily_to_json(fam), indent=2, sort_keys=True) + "\n"
    assert text.encode() == (DATA / ("bfamily_n%d_%s.json" % (n, gauge))).read_bytes()


STORED = Path(bfamily.__file__).resolve().parent / "data" / "bfamily_paper3.jsonl"


def stored_family_bytes():
    """The bytes of the stored family: a header line with lambda and
    max_degree, then one bfamily_to_json entry per line, ordered by p + q
    and then by p.  Regenerate the file with

        PYTHONPATH=src:tests python -c "import test_bfamily as t; t.STORED.write_bytes(t.stored_family_bytes())"
    """
    d = bfamily_to_json(solve_bfamily(Fraction(1, 2), 6, "paper3"))
    lines = [{"lambda": d["lambda"], "max_degree": d["max_degree"]}]
    lines += sorted(d["entries"], key=lambda e: (e["p"] + e["q"], e["p"]))
    return "".join(json.dumps(x) + "\n" for x in lines).encode()


def test_stored_family_is_the_degree_6_solve():
    assert STORED.read_bytes() == stored_family_bytes()


def test_stored_family_is_declared_package_data():
    import tomllib
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["liequant"]
    package = root / "src" / "liequant"
    assert STORED in {p.resolve() for g in globs for p in package.glob(g)}


@pytest.mark.parametrize("n", [2, 3])
def test_stored_prefix_equals_the_solve(n):
    """Up to degree 3 no solve reopens a kernel, so each prefix is the
    family solved to its degree."""
    assert (bfamily_to_json(bfamily.stored_family(n))
            == bfamily_to_json(solve_bfamily(Fraction(1, 2), n, "paper3")))


def test_stored_family_stops_at_degree_6():
    assert bfamily.stored_family(6).max_degree == 6
    with pytest.raises(ValueError, match="degree 7 is above 6"):
        bfamily.stored_family(7)


STORED_VARRHO = STORED.parent / "varrho_paper3.jsonl"


def stored_varrho_bytes():
    """The bytes of the stored rho: one uelem_to_json line per degree 1..4
    of the universal solution on the stored family.  Regenerate the file
    with

        PYTHONPATH=src:tests python -c "import test_bfamily as t; t.STORED_VARRHO.write_bytes(t.stored_varrho_bytes())"
    """
    varrho = solve_varrho(bfamily.stored_family(5), 4)
    return "".join(json.dumps(uelem_to_json(varrho[n])) + "\n" for n in range(1, 5)).encode()


def test_stored_varrho_is_the_degree_4_solve():
    """solve_varrho(B, 4) reads B to degree 5, so the prefix to degree 5
    gives the stored rho, byte for byte."""
    assert STORED_VARRHO.read_bytes() == stored_varrho_bytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stored_varrho_is_the_solve_to_its_degree(m):
    """The stored rho to degree m is the solve from the family to m + 1,
    the depth quantize reads, and for m <= 3 also the solve from the
    family to m + 2: one degree more of the family does not move it."""
    want = bfamily.stored_varrho(m)
    assert sorted(want) == list(range(1, m + 1))
    assert solve_varrho(bfamily.stored_family(m + 1), m) == want
    if m <= 3:
        assert solve_varrho(bfamily.stored_family(m + 2), m) == want


def test_stored_varrho_stops_at_degree_4():
    assert len(bfamily.stored_varrho(4)[4].terms) == 2
    with pytest.raises(ValueError, match="degree 5 is above 4"):
        bfamily.stored_varrho(5)


def degree_residuals(B, n):
    """Every degree-n associativity residual of B, keyed (p, q, r, mono)."""
    out = {}
    for p in range(1, n - 1):
        for q in range(1, n - p):
            for mono, c in assoc_residual(B, p, q, n - p - q).terms.items():
                out[(p, q, n - p - q, mono)] = c
    return out


def finite_difference(B, n, bump):
    """degree_residuals(B + bump) - degree_residuals(B), bump {(p, q): LiePoly}."""
    table = dict(B.table)
    for pq, e in bump.items():
        table[pq] = table.get(pq, LiePoly()) + e
    col = degree_residuals(BFamily(B.lam, n, table), n)
    for k, c in degree_residuals(BFamily(B.lam, n, B.table), n).items():
        add_term(col, k, -c)
    return col


def test_shuffle_columns_are_finite_differences(B4):
    """Every degree-4 column of L_n, and a seeded sample of degree-5 ones,
    equals assoc_residual(B + e_slot) - assoc_residual(B)."""
    slots5 = random.Random(12).sample(_unknown_slots(5), 12)
    for n, slots in ((4, _unknown_slots(4)), (5, slots5)):
        for (pq, mono) in slots:
            col = finite_difference(B4, n, {pq: LiePoly({mono: Fraction(1)})})
            assert col and _shuffle_column((pq, mono)) == col


def test_previous_degree_enters_linearly_through_b11(B4):
    """A change D of the degree-(n-1) entries moves the degree-n residuals
    of B by the degree-n residuals of {B_11, D}: the reopened columns."""
    rng = random.Random(5)
    for n in (4, 5):
        bump = {}
        for pq, mono in _unknown_slots(n - 1):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            bump[pq] = bump.get(pq, LiePoly()) + c * LiePoly({mono: Fraction(1)})
        alone = BFamily(B4.lam, n, {**bump, (1, 1): B4.entry(1, 1)})
        moved = finite_difference(B4, n, bump)
        assert moved and degree_residuals(alone, n) == moved


def test_solve_reports_obstruction_witness(monkeypatch):
    """Pins off the solution set leave degree 3 inconsistent; the witness
    is one equation term of the pinned family's residual."""
    monkeypatch.setattr(bfamily, "PAPER3_B21", 2 * PAPER3_B21)
    with pytest.raises(Obstructed) as info:
        solve_bfamily(Fraction(1, 2), 3, "paper3")
    e = info.value
    assert (e.degree, e.reason) == (3, "assoc")
    (p, q, r, mono), c = e.witness
    pinned = BFamily(Fraction(1, 2), 3, {**lam_half_table(), (2, 1): 2 * PAPER3_B21,
                                         (1, 2): PAPER3_B12})
    assert c and assoc_residual(pinned, p, q, r).terms[mono] == c


def _random_letters(rng, n, pids):
    """n Lie letters on distinct atoms (pid, side) of the pids, the atoms
    spread over the letters in random order, each letter minimal atom first."""
    atoms = rng.sample([(p, s) for p in pids for s in (0, 1)], n + rng.randint(0, 2))
    cuts = [0] + sorted(rng.sample(range(1, len(atoms)), n - 1)) + [len(atoms)]
    letters = [atoms[i:j] for i, j in zip(cuts, cuts[1:])]
    return tuple(tuple(sorted(l)[:1] + [a for a in l if a != min(l)]) for l in letters)


def as_liepolys(letters):
    """Each Lie letter as the LiePoly of its left-normed monomial."""
    return [LiePoly({x: Fraction(1)}) for x in letters]


def test_eval_is_substitute_on_the_entry(B4):
    """BFamily.eval on Lie letters is substitute on entry(p, q), each
    letter read as its left-normed monomial: at the boundary entries
    (1, 0), (0, 1), (p, 0), (0, q) and (0, 0) and at every stored entry.
    Past max_degree an entry is not known, and reading it raises, through
    eval too.  eval keys its memo on (p, q) too: B_21 and B_12 on one
    tuple of letters differ."""
    rng = random.Random(29)
    nonzero = 0
    for p, q in [(1, 0), (0, 1), (3, 0), (0, 2), (0, 0)] + sorted(B4.table):
        n = p + q
        letters = tuple(rng.choice(((i,), (i, n))) for i in range(n))
        got = B4.eval(p, q, letters)
        assert got == substitute(B4.entry(p, q), as_liepolys(letters))
        nonzero += bool(got)
    assert nonzero == 2 + len(B4.table)
    for p, q in [(2, 3), (1, 4)]:
        with pytest.raises(ValueError, match=r"\(%d, %d\) is past the family's max_degree 4"
                           % (p, q)):
            B4.entry(p, q)
        with pytest.raises(ValueError, match="past the family"):
            B4.eval(p, q, tuple((i,) for i in range(p + q)))
    fam = BFamily(B4.lam, B4.max_degree, B4.table)
    letters = (((0, 0),), ((1, 0),), ((2, 0),))
    for p, q in ((2, 1), (1, 2)):
        want = B4.entry(p, q).relabel({i: (i, 0) for i in range(3)})
        assert want and fam.eval(p, q, letters) == want


def test_family_entries_must_be_multilinear(B4):
    """A family is built only from entries (p, q) multilinear in the
    generators 0..p+q-1: a repeated letter, a letter past p+q-1 and a
    missing generator each raise a ValueError naming the entry."""
    bad = {(2, 1): LiePoly({(0, 1, 1): Fraction(1)}),
           (1, 1): LiePoly({(0, 2): Fraction(1)}),
           (1, 2): LiePoly({(0, 1): Fraction(1)})}
    for pq, e in bad.items():
        with pytest.raises(ValueError, match=r"entry \(%d, %d\) is not multilinear in %d "
                                             r"generators" % (*pq, sum(pq))):
            BFamily(B4.lam, 4, {**B4.table, pq: e})
    assert BFamily(B4.lam, 4, B4.table).table == B4.table


def test_eval_memo_on_order_type(B4):
    """BFamily.eval is memoized on the letters' order type: letters
    shifted by a pid offset (the R13/R23 copies) and letters on pids
    spread monotonically between others (fresh pids per degree) reuse the
    first evaluation and equal substitute on the entry, which has no
    memo.  The negative control: the stored result relabeled by a
    non-monotone map is not the evaluation on the relabeled letters."""
    rng = random.Random(17)
    fam = BFamily(B4.lam, B4.max_degree, B4.table)

    def direct(p, q, letters):
        return substitute(B4.entry(p, q), as_liepolys(letters))

    def moved(letters, f):
        return tuple(tuple((f(p), s) for p, s in l) for l in letters)

    nonzero = wrong = 0
    for p, q in sorted(B4.table):
        for _ in range(4):
            letters = _random_letters(rng, p + q, range(5))
            base = fam.eval(p, q, letters)
            assert base == direct(p, q, letters)
            evals = len(fam._evals)
            spread = sorted(rng.sample(range(100), 5))
            for m in (moved(letters, lambda p: p + 2000), moved(letters, spread.__getitem__)):
                assert fam.eval(p, q, m) == direct(p, q, m)
            assert len(fam._evals) == evals
            perm = rng.sample(range(5), 5)
            m = moved(letters, perm.__getitem__)
            assert fam.eval(p, q, m) == direct(p, q, m)
            naive = LiePoly({tuple((perm[p], s) for p, s in w): c for w, c in base.terms.items()})
            wrong += naive != direct(p, q, m)
            nonzero += bool(base)
    assert nonzero > 10 and wrong > 5


def test_tables_are_read_only(B4):
    """A family's and a gauge's tables are read-only, since each owns a
    memo of evaluations keyed by entry: assigning an entry raises."""
    g = GaugeSeq({2: LiePoly.leftnormed((0, 1))}, 3)
    with pytest.raises(TypeError):
        B4.table[(1, 1)] = LiePoly()
    with pytest.raises(TypeError):
        g.table[3] = LiePoly.leftnormed((0, 1, 2))
    assert B4.entry(1, 1) and not g.entry(3)


def test_gauge_inverse_degree_5():
    """gauge_inverse builds a two-sided inverse to degree 5, one new
    sequence per degree; at degree 2 it is -P_2."""
    P = random_gauge(random.Random(23), 5)
    inv = gauge_inverse(P)
    assert inv.entry(2) == -P.entry(2) and inv.entry(5)
    for prod in (gauge_mul(P, inv), gauge_mul(inv, P)):
        assert prod.max_degree == 5
        assert not any(prod.entry(n) for n in range(2, 6))


def test_gauge_eval_is_substitute_on_the_entry():
    """GaugeSeq.eval on Lie letters is substitute on entry(n), memoized on
    n and the letters' order type: shifted letters reuse the evaluation."""
    P = random_gauge(random.Random(31), 4)
    rng = random.Random(37)
    for n in range(1, 5):
        letters = tuple(rng.choice(((i,), (i, n + i))) for i in range(n))
        got = P.eval(n, letters)
        assert got and got == substitute(P.entry(n), as_liepolys(letters))
        evals = len(P._evals)
        moved = tuple(tuple(a + 100 for a in l) for l in letters)
        assert P.eval(n, moved) == substitute(P.entry(n), as_liepolys(moved))
        assert len(P._evals) == evals


# -- the Lie-letter route against the LiePoly route ---------------------------

def residual_on_liepolys(B, p, q, r):
    """assoc_residual through deformed_word_product with the LiePoly
    block rule on free-Lie generators, each entry substituted with no memo."""
    block = liepoly_block(B)
    gens = tuple(LiePoly.gen(i) for i in range(p + q + r))
    xs, ys, zs = gens[:p], gens[p:p + q], gens[p + q:]
    out = LiePoly()
    for w, c in deformed_word_product(xs, ys, block):
        out = out + c * substitute(B.entry(len(w), r), w + zs)
    for w, c in deformed_word_product(ys, zs, block):
        out = out - c * substitute(B.entry(p, len(w)), xs + w)
    return out


def blocks_on_liepolys(P, word):
    """i_P on a word of LiePoly letters: its nonzero block-words."""
    out = []
    for k in range(1, len(word) + 1):
        for nc in positive_compositions(len(word), k):
            offs = itertools.accumulate(nc, initial=0)
            vals = tuple(substitute(P.entry(nb), word[o:o + nb]) for nb, o in zip(nc, offs))
            if all(vals):
                out.append(vals)
    return out


def gauge_act_on_liepolys(P, B):
    """The entries of gauge_act(P, B) through the LiePoly route."""
    Pinv = gauge_inverse(P)
    block = liepoly_block(B)
    out = {}
    for n in range(2, B.max_degree + 1):
        gens = tuple(LiePoly.gen(i) for i in range(n))
        for p in range(1, n):
            acc = LiePoly()
            for wu in blocks_on_liepolys(Pinv, gens[:p]):
                for wv in blocks_on_liepolys(Pinv, gens[p:]):
                    for w, c in deformed_word_product(wu, wv, block):
                        acc = acc + c * substitute(P.entry(len(w)), w)
            out[(p, n - p)] = acc
    return out


def test_letter_route_is_the_liepoly_route(B4):
    """assoc_residual and gauge_act, which multiply words of Lie letters in
    the family's word algebra, equal the LiePoly route: on B4 and on B4
    with a perturbed degree-4 entry (whose residuals are nonzero), and
    under a seeded gauge of degree 4 (which moves B4)."""
    bumped = BFamily(B4.lam, 4, {**B4.table, (2, 2): B4.entry(2, 2)
                                 + LiePoly.leftnormed((0, 2, 1, 3))})
    nonzero = 0
    for fam in (B4, bumped):
        for p, q, r in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            got = assoc_residual(fam, p, q, r)
            assert got == residual_on_liepolys(fam, p, q, r)
            nonzero += bool(got)
    assert nonzero == 2
    P = random_gauge(random.Random(41), 4)
    moved = gauge_act(P, B4)
    want = gauge_act_on_liepolys(P, B4)
    assert all(moved.entry(*pq) == e for pq, e in want.items())
    assert not same_entries(moved, B4, 4)
