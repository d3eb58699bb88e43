"""Universal R-matrix terms in shuffle algebras.

The recursion table lambda assigns to each degree n an element lambda_n
of the coinvariant space: a sum of terms with k first-leg Lie factors
and one last factor.  R'_j is assembled from the lambda_m with legwise
products, one step at a time (R'_j = sum_m R'_(j-m) lambda_m), and
reversing its second leg yields the terms R_n satisfying the
quasitriangularity identities.  The table stops at its degree: an R'_j
past it is an error, never a truncated sum.  Table entries are kept as
raw representatives; only their classes modulo relabeling of the formal
pairs (unitensor.canonical) are meaningful.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .scalars import add_term
from .unitensor import (UElem, a_atom, b_atom, u_mul, canonical,
                        normalize_letters, _relabel_term)


def pair_elem(pid):
    """The elementary pair a_pid x b_pid as a 2-leg element."""
    return UElem.single(2, (((a_atom(pid),),), ((b_atom(pid),),)))


class LambdaTable:
    """lambda_n for n = 1..max_degree, one entry per degree (absent when
    zero), and the R'_j they assemble, read only up to max_degree.

    R'_j = sum_{m=1..j} R'_(j-m) * lambda_m, the legwise (deformed
    product x concatenation) product with lambda_m's pids raised past
    those of R'_(j-m), and R'_0 = 1: the sum over the compositions of j
    of the ordered products of their parts, grouped by the last part."""

    def __init__(self, bfam, max_degree):
        self.bfam = bfam
        self.bdual = bfam.dual()
        self.max_degree = 1
        self.entries = {1: pair_elem(0)}
        self._rprime = {0: UElem.unit(2)}
        self.grow(max_degree)

    def grow(self, N):
        """Build the degrees max_degree+1..N in place.  A degree's entry
        depends only on lower degrees, so the entries and R'_j already
        built stay as they are."""
        for n in range(self.max_degree + 1, N + 1):
            self._build_degree(n)
            self.max_degree = n

    def rprime(self, j):
        """R'_j by the one-step recursion; ValueError past max_degree."""
        hit = self._rprime.get(j)
        if hit is not None:
            return hit
        if j > self.max_degree:
            raise ValueError("R'_%d is past the lambda table; it stops at %d"
                             % (j, self.max_degree))
        total = UElem.zero(2)
        for m, lam in self.entries.items():
            if m <= j:
                total = total + u_mul(self.rprime(j - m), _shift_pids(lam, j - m),
                                      (self.bfam.letters, "conc"))
        self._rprime[j] = total
        return total

    def _build_degree(self, n):
        """kappa(lambda_n) = sum_k (conc~ x pr) (R'_k^(13) R'_(n-k)^(23)),
        split by the composition of the first-leg letter supports; lambda_n
        is the sum of the parts whose class is nonzero."""
        acc = {}
        for k in range(1, n):
            r1 = self.rprime(k)
            r2 = _shift_pids(self.rprime(n - k), k)
            for (a1, bword1), c1 in r1.terms.items():
                for (a2, bword2), c2 in r2.terms.items():
                    prb = self.bdual.letter_eval(len(bword1), len(bword2), bword1 + bword2)
                    if not prb:
                        continue
                    weight = Fraction(1, len(a1) + len(a2) - 1) * c1 * c2
                    aword = a1 + a2
                    for mono, cm in prb.terms.items():
                        add_term(acc, (aword, (tuple(mono),)), weight * cm)
        # split by composition of the first-leg letter supports
        buckets = {}
        for key, c in acc.items():
            aword = key[0]
            blocks = [sorted(p for (p, _s) in letter) for letter in aword]
            comp = tuple(len(b) for b in blocks)
            # relabel pids so block i owns the contiguous range
            mapping = {}
            pos = 0
            for b in blocks:
                for p in b:
                    mapping[p] = pos
                    pos += 1
            add_term(buckets.setdefault(comp, {}), _relabel_term(key, mapping), c)
        lam = UElem.zero(2)
        for comp, raw in buckets.items():
            total = normalize_letters(UElem(2, raw))
            if canonical(total):
                if len(comp) == 1:
                    raise AssertionError("single-block entry should vanish")
                lam = lam + total
        if lam:
            self.entries[n] = lam

    def rmatrix(self, n):
        """R_n: reversal of the second leg of R'_n."""
        return self.rprime(n).reverse_leg(1)


def _shift_pids(elem, offset):
    """elem with every pid raised by offset."""
    if offset == 0:
        return elem
    return _relabel_in_order(elem, {p: p + offset for p in elem.pids()})


def _relabel_in_order(elem, mapping):
    """elem with its pids renamed by an increasing mapping.  Such a map
    keeps the atom order inside each letter, so letters in the left-normed
    basis (minimal atom first) stay in it and need no renormalizing."""
    return UElem(elem.legs, {_relabel_term(k, mapping): c
                             for k, c in elem.terms.items()})


def lambda_table(bfam, N):
    """The family's table, grown in place to degree N: only the missing
    degrees are built, and entries are only added, so a table a caller
    already holds stays valid and equals a fresh LambdaTable(bfam, N)."""
    if bfam.lambdas is None:
        bfam.lambdas = LambdaTable(bfam, N)
    bfam.lambdas.grow(N)
    return bfam.lambdas


def rmatrix_terms(bfam, N):
    """[R_0, ..., R_N] as universal 2-leg elements."""
    table = lambda_table(bfam, N)
    return [table.rmatrix(n) for n in range(N + 1)]


def quasitri_residual(bfam, rlist, n):
    """Residuals of the two coproduct identities and the antipode identity.

    Returns a dict with keys "delta1", "delta2", "antipode"; zero elements
    certify the identities at index n.
    """
    sh = bfam.letters
    rn = rlist[n]
    out = {}
    for name, leg, spots in (("delta1", 0, (2, 3)), ("delta2", 1, (1, 2))):
        rhs = UElem.zero(3)
        for k in range(0, n + 1):
            x = rlist[k].place((1, 3), 3)
            y = _shift_pids(rlist[n - k], k).place(spots, 3)
            rhs = rhs + u_mul(x, y, (sh, sh, sh))
        out[name] = canonical(rn.comul_leg(leg) - rhs)
    lhs3 = rn.map_leg(0, bfam.letters.antipode)
    rhs3 = rn.map_leg(1, lambda w: bfam.letters.antipode(w, inverse=True))
    out["antipode"] = canonical(lhs3 - rhs3)
    return out


def independent_subset(elems, cls):
    """Greedy exact rank filter: the elements whose classes cls(e) are
    independent of those of the elements before them."""
    classes = [cls(e).terms for e in elems]
    return [elems[j] for j in linalg.rref(classes, len(classes)).kept]


class NonUnique(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization and display
# ---------------------------------------------------------------------------

def uelem_to_json(elem):
    return {"legs": elem.legs,
            "terms": [{"key": [[[list(a) for a in letter] for letter in leg]
                               for leg in k],
                       "coeff": str(c)}
                      for k, c in sorted(elem.terms.items())]}


def uelem_from_json(d):
    terms = {}
    for t in d["terms"]:
        key = tuple(tuple(tuple(tuple(a) for a in letter) for letter in leg)
                    for leg in t["key"])
        terms[key] = Fraction(t["coeff"])
    return UElem(d["legs"], terms)


def pretty_rmatrix(elem):
    """Paper-style rendering (a...)x(b...) of a universal 2-leg element."""
    def letter_str(letter, nm):
        if len(letter) == 1:
            return "%s%d" % (nm, letter[0][0] + 1)
        s = "%s%d" % (nm, letter[0][0] + 1)
        for (p, _s) in letter[1:]:
            s = "[%s,%s%d]" % (s, nm, p + 1)
        return s
    bits = []
    for (la, lb), c in sorted(elem.terms.items()):
        wa = "(" + " ".join(letter_str(x, "a") for x in la) + ")"
        wb = "(" + " ".join(letter_str(x, "b") for x in lb) + ")"
        bits.append("%s %s(x)%s" % (c, wa, wb))
    return " + ".join(bits) if bits else "0"
