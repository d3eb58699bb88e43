"""Finite-dimensional Lie algebras, bialgebras and the double, over Q.

Elements are sparse dicts {basis index: coefficient}; coefficients are
Fraction or HSeries.  Tensors are dicts {multi-index tuple: coefficient}.
Both follow scalars.add_term: no key holds a zero coefficient.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import add_term, distribute, lincomb


def tensor_add(t, u):
    out = dict(t)
    for k, c in u.items():
        add_term(out, k, c)
    return out


def tensor_smul(c, t):
    if not c:
        return {}
    return {k: c * v for k, v in t.items()}


def _exact(c):
    """c with an int in place of a Fraction of denominator 1.  The two
    compare and hash alike, and int products and sums skip Fraction's
    gcds; a true division `/` of two ints would give a float, so no
    value read off a LieAlgebra is ever divided."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class LieAlgebra:
    """Structure constants [e_i, e_j] = sum_k c_ij^k e_k.

    brackets: dict (i, j) -> {k: c} given for i < j; antisymmetry fills
    the rest.  A constant of denominator 1 is stored as an int (`_exact`)
    and basis(i) is {i: 1}, so on integral structure constants every
    bracket of basis vectors is int.  Jacobi is verified at
    construction.  The algebra is its own bracket carrier (chain and
    lincomb on sparse dicts), so freealg.substitute and BFamily.eval take
    it directly; its chains read one memo of left-normed basis brackets
    per instance.
    """

    lincomb = staticmethod(lincomb)

    def __init__(self, dim, basis_names, brackets):
        self.dim = dim
        self.basis_names = list(basis_names)
        self.brackets = {}
        for (i, j), v in brackets.items():
            if i == j:
                raise ValueError("diagonal bracket entry")
            v = {k: _exact(c) for k, c in v.items()}
            if i > j:
                i, j, v = j, i, {k: -c for k, c in v.items()}
            cur = self.brackets.get((i, j))
            self.brackets[(i, j)] = tensor_add(cur, v) if cur else v
        # both orders of every pair, for bracket_basis and bracket
        self._table = {}
        for (i, j), v in self.brackets.items():
            self._table[(i, j)] = v
            self._table[(j, i)] = {k: -c for k, c in v.items()}
        if not self.jacobi_ok():
            raise ValueError("Jacobi identity fails")
        self._leftnormed = {}

    def basis(self, i):
        return {i: 1}

    def bracket_basis(self, i, j):
        """[e_i, e_j] as the algebra's own dict: no caller may mutate it."""
        return self._table.get((i, j), {})

    def bracket(self, u, v):
        table = self._table
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                br = table.get((i, j))
                if br:
                    ab = a * b
                    for k, c in br.items():
                        add_term(out, k, ab * c)
        return out

    def leftnormed(self, idx):
        """[[e_i0, e_i1], ..., e_ik] for the basis-index tuple idx, as one
        bracket of the memoized prefix with e_ik.  The memo is this
        algebra's own, and its dicts are shared: no caller may mutate one."""
        hit = self._leftnormed.get(idx)
        if hit is None:
            hit = self.basis(idx[0]) if len(idx) == 1 else self.bracket(
                self.leftnormed(idx[:-1]), self.basis(idx[-1]))
            self._leftnormed[idx] = hit
        return hit

    def chain(self, args):
        """[[u_0, u_1], ..., u_k] for sparse vectors u_i, read off the
        memo by multilinearity; on basis vectors it is the memo's dict."""
        idx = []
        for u in args:
            if len(u) != 1:
                break
            (i, c), = u.items()
            if c != 1:
                break
            idx.append(i)
        else:
            return self.leftnormed(tuple(idx))
        terms = [tuple(u.items()) for u in args]
        return lincomb((c, self.leftnormed(idx)) for idx, c in distribute(terms))

    def jacobi_ok(self):
        """The Jacobi sum J(a, b, c) = [a, [b, c]] + [b, [c, a]] + [c, [a, b]]
        is trilinear and, the bracket being antisymmetric, alternating:
        it vanishes on every basis triple iff it does on those with
        i < j < k."""
        for i, j, k in itertools.combinations(range(self.dim), 3):
            s = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                s = tensor_add(s, self.bracket(self.basis(a), self.bracket_basis(b, c)))
            if s:
                return False
        return True


def abelian(dim):
    return LieAlgebra(dim, ["e%d" % i for i in range(dim)], {})


def sl2():
    """Basis (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(3, ["e", "f", "h"], {
        (0, 1): {2: Fraction(1)},
        (2, 0): {0: Fraction(2)},
        (2, 1): {1: Fraction(-2)},
    })


class LieBialgebra:
    """Lie algebra with a cobracket delta(e_i) = sum c_i^{jk} e_j x e_k."""

    def __init__(self, algebra, cobracket):
        self.algebra = algebra
        self.cobracket = {i: {jk: c for jk, c in t.items() if c}
                          for i, t in cobracket.items()}

    def delta(self, u):
        out = {}
        for i, a in u.items():
            for jk, c in self.cobracket.get(i, {}).items():
                add_term(out, jk, a * c)
        return out


def borel2():
    """[h, e] = e, delta(h) = 0, delta(e) = h^e - e^h."""
    alg = LieAlgebra(2, ["h", "e"], {(0, 1): {1: Fraction(1)}})
    cob = {1: {(0, 1): Fraction(1), (1, 0): Fraction(-1)}}
    return LieBialgebra(alg, cob)


def abelian_bialgebra(dim):
    return LieBialgebra(abelian(dim), {})


# ---------------------------------------------------------------------------
# tensors over a Lie algebra
# ---------------------------------------------------------------------------

def placed_bracket(alg, t, spots_t, u, spots_u, degree):
    """[t^(spots_t), u^(spots_u)] in A^(x degree); overlap must be one slot.

    spots are 1-based slot tuples, len(spots) = tensor degree of the
    argument.  The single shared slot receives the bracket; the others
    copy their component.
    """
    shared = set(spots_t) & set(spots_u)
    if len(shared) != 1:
        raise ValueError("placed_bracket needs exactly one shared slot")
    s = shared.pop()
    out = {}
    for k1, c1 in t.items():
        for k2, c2 in u.items():
            a = k1[spots_t.index(s)]
            b = k2[spots_u.index(s)]
            br = alg.bracket_basis(a, b)
            if not br:
                continue
            for m, cb in br.items():
                idx = [None] * degree
                for spot, comp in zip(spots_t, k1):
                    idx[spot - 1] = comp
                for spot, comp in zip(spots_u, k2):
                    idx[spot - 1] = comp
                idx[s - 1] = m
                if any(v is None for v in idx):
                    raise ValueError("slots do not cover the target degree")
                add_term(out, tuple(idx), c1 * c2 * cb)
    return out


# The Yang-Baxter coboundary tables, shared by the Lie (here and the
# tests' lie_oracle), associative (deform) and universal calculi.  A term
# (s, t, sign) stands for sign * [r^(s), x^(t)]: r in the 1-based slots
# s, x in the slots t, the two sharing one slot.

# CYB(r) = [r12,r13] + [r12,r23] + [r13,r23], with x = r
CYBE = (((1, 2), (1, 3), 1), ((1, 2), (2, 3), 1), ((1, 3), (2, 3), 1))

# the polarization of CYBE: delta3(r, x) = CYB(r + x) - CYB(r) - CYB(x),
# since [x^(s), r^(t)] = -[r^(t), x^(s)]
DELTA3 = CYBE + tuple((t, s, -sign) for s, t, sign in CYBE)

# The four-slot table: the linear term of the tetrahedron identity
# (deform.delta_p(., ., 3)) and, up to scale, the only combination of the
# twelve brackets [r^(ij), x^(klm)] that kills CYB(r) for every r.  For r
# solving CYBE it is injective on the span of [r13,r23] and [r12,r13]
# (H^3_2 = 0).
DELTA4 = (((1, 2), (2, 3, 4), 1), ((1, 3), (2, 3, 4), 1), ((1, 4), (2, 3, 4), 1),
          ((1, 2), (1, 3, 4), 1), ((2, 3), (1, 3, 4), -1), ((2, 4), (1, 3, 4), -1),
          ((1, 3), (1, 2, 4), -1), ((2, 3), (1, 2, 4), -1), ((3, 4), (1, 2, 4), 1),
          ((1, 4), (1, 2, 3), 1), ((2, 4), (1, 2, 3), 1), ((3, 4), (1, 2, 3), 1))


def coboundary(table, bracket):
    """sum of sign * bracket(s, t) over the terms of a table; bracket
    returns a sparse dict, and so does this.  Every table sign is +-1, so
    a term is added or negated, never multiplied."""
    out = {}
    for s, t, sign in table:
        for k, c in bracket(s, t).items():
            add_term(out, k, c if sign > 0 else -c)
    return out


def cybe_residual(alg, r):
    return coboundary(CYBE, lambda s, t: placed_bracket(alg, r, s, r, t, 3))


# ---------------------------------------------------------------------------
# bialgebra validation and the double
# ---------------------------------------------------------------------------

def validate_bialgebra(bia):
    """List of violated identities (empty = valid)."""
    alg = bia.algebra
    bad = []
    for i in range(alg.dim):
        d = bia.delta(alg.basis(i))
        flip = {(k, j): c for (j, k), c in d.items()}
        if tensor_add(d, flip):
            bad.append(("co-antisymmetry", i))
    # co-Jacobi: (1 + rot + rot^2) (delta x id) delta = 0
    for i in range(alg.dim):
        t3 = {}
        for (j, k), c in bia.delta(alg.basis(i)).items():
            for (a, b), c2 in bia.delta(alg.basis(j)).items():
                add_term(t3, (a, b, k), c * c2)
        total = {}
        for (a, b, k), c in t3.items():
            add_term(total, (a, b, k), c)
            add_term(total, (k, a, b), c)
            add_term(total, (b, k, a), c)
        if total:
            bad.append(("co-Jacobi", i))
    # cocycle: delta([x,y]) = x.delta(y) - y.delta(x) with the adjoint action
    def ad_act(i, t):
        out = {}
        for (j, k), c in t.items():
            for m, cb in alg.bracket_basis(i, j).items():
                add_term(out, (m, k), c * cb)
            for m, cb in alg.bracket_basis(i, k).items():
                add_term(out, (j, m), c * cb)
        return out

    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = bia.delta(alg.bracket_basis(i, j))
            rhs = tensor_add(ad_act(i, bia.delta(alg.basis(j))),
                             tensor_smul(Fraction(-1), ad_act(j, bia.delta(alg.basis(i)))))
            if tensor_add(lhs, tensor_smul(Fraction(-1), rhs)):
                bad.append(("cocycle", (i, j)))
    return bad


class DoubleAlgebra:
    def __init__(self, base, algebra, form, r):
        self.base = base
        self.algebra = algebra
        self.form = form      # dict (i, j) -> Fraction, the pairing matrix
        self.r = r            # canonical element in D x D

    def pair(self, u, v):
        s = 0
        for i, a in u.items():
            for j, b in v.items():
                s += a * b * self.form.get((i, j), 0)
        return s


def build_double(bia):
    """Double D = g + g*; mixed brackets forced by invariance of the form.

    Basis order: e_0..e_{d-1} (g), then e^0..e^{d-1} (g*).  All double
    axioms are verified before returning.
    """
    bad = validate_bialgebra(bia)
    if bad:
        raise ValueError("invalid bialgebra: %r" % (bad,))
    alg = bia.algebra
    d = alg.dim
    br = {}
    for (i, j), v in alg.brackets.items():
        br[(i, j)] = dict(v)
    # [e^i, e^j] = sum_k f^{ij}_k e^k  with  delta(e_k) = sum f^{ij}_k e_i x e_j
    for i in range(d):
        for j in range(i + 1, d):
            out = {}
            for k in range(d):
                c = bia.delta(alg.basis(k)).get((i, j), Fraction(0))
                if c:
                    out[d + k] = c
            if out:
                br[(d + i, d + j)] = out
    # [e_i, e^j] = sum_l f^{jl}_i e_l - sum_l c_{il}^j e^l
    for i in range(d):
        for j in range(d):
            out = {}
            di = bia.delta(alg.basis(i))
            for l in range(d):
                c = di.get((j, l), Fraction(0))
                if c:
                    out[l] = c
            for l in range(d):
                c = alg.bracket_basis(i, l).get(j, Fraction(0))
                add_term(out, d + l, -c)
            if out:
                br[(i, d + j)] = out
    dd = LieAlgebra(2 * d, alg.basis_names + [n + "*" for n in alg.basis_names], br)
    form = {}
    for i in range(d):
        form[(i, d + i)] = Fraction(1)
        form[(d + i, i)] = Fraction(1)
    r = {(i, d + i): Fraction(1) for i in range(d)}
    dbl = DoubleAlgebra(bia, dd, form, r)
    _verify_double(dbl, bia)
    return dbl


def _verify_double(dbl, bia):
    dd = dbl.algebra
    d = bia.algebra.dim
    # invariance <[x,y],z> + <y,[x,z]> = 0: for a symmetric form the sum
    # is symmetric in (y, z), so the pairs j <= k cover every triple
    if any(dbl.form.get((j, i)) != c for (i, j), c in dbl.form.items()):
        raise ValueError("form not symmetric")
    for i in range(2 * d):
        for j in range(2 * d):
            for k in range(j, 2 * d):
                s = dbl.pair(dd.bracket_basis(i, j), dd.basis(k)) \
                    + dbl.pair(dd.basis(j), dd.bracket_basis(i, k))
                if s:
                    raise ValueError("form not invariant at (%d,%d,%d)" % (i, j, k))
    # delta_D(x) = [x x 1 + 1 x x, r] with delta_D = delta on g, -delta_{g*} on g*
    for i in range(2 * d):
        xi = {(i,): Fraction(1)}
        lhs = tensor_add(placed_bracket(dd, xi, (1,), dbl.r, (1, 2), 2),
                         placed_bracket(dd, xi, (2,), dbl.r, (1, 2), 2))
        if i < d:
            rhs = bia.delta(bia.algebra.basis(i))
        else:
            # -delta_{g*}(e^j) with delta_{g*} dual to the bracket of g
            j = i - d
            rhs = {}
            for a in range(d):
                for b in range(d):
                    c = bia.algebra.bracket_basis(a, b).get(j, Fraction(0))
                    add_term(rhs, (d + a, d + b), -c)
        if tensor_add(lhs, tensor_smul(Fraction(-1), rhs)):
            raise ValueError("delta_D(x) != [x x 1 + 1 x x, r] at basis %d" % i)
    if cybe_residual(dd, dbl.r):
        raise ValueError("canonical r fails CYBE")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def bialgebra_to_json(bia):
    alg = bia.algebra
    return {
        "dim": alg.dim,
        "basis": alg.basis_names,
        "bracket": [{"i": i, "j": j,
                     "out": [{"k": k, "c": str(c)} for k, c in sorted(v.items())]}
                    for (i, j), v in sorted(alg.brackets.items())],
        "cobracket": [{"i": i,
                       "out": [{"j": j, "k": k, "c": str(c)}
                               for (j, k), c in sorted(t.items())]}
                      for i, t in sorted(bia.cobracket.items())],
    }


def bialgebra_from_json(d):
    """Inverse of bialgebra_to_json; raises ValueError when a basis index
    lies outside range(dim) or the basis does not name dim elements."""
    dim = d["dim"]
    if len(d["basis"]) != dim:
        raise ValueError("basis has %d names for dim %r" % (len(d["basis"]), dim))

    def idx(v):
        if v not in range(dim):
            raise ValueError("index %r outside range(%d)" % (v, dim))
        return v

    brackets = {}
    for e in d["bracket"]:
        brackets[(idx(e["i"]), idx(e["j"]))] = {idx(o["k"]): Fraction(o["c"])
                                                for o in e["out"]}
    alg = LieAlgebra(dim, d["basis"], brackets)
    cob = {}
    for e in d.get("cobracket", []):
        cob[idx(e["i"])] = {(idx(o["j"]), idx(o["k"])): Fraction(o["c"])
                            for o in e["out"]}
    return LieBialgebra(alg, cob)
