"""Free associative and free Lie algebras over exact scalars.

Words are plain tuples of generator labels.  Labels are usually the
integers 0..n-1, but any ordered hashable labels work (the universal
machinery uses (pair, side) tuples as labels).

LiePoly storage convention (per homogeneous multidegree component):

* multilinear components (all letters distinct) are stored on the
  left-normed basis {[[x_s(1),x_s(2)],...,x_s(n)] : s(1) = min}, keyed by
  the letter sequence (s(1),...,s(n));
* components with repeated letters are stored on the Lyndon basis, keyed
  by the Lyndon word, which stands for its standard bracketing.

The multidegree of a key decides its interpretation, so the two kinds
coexist in one terms dict without ambiguity.

Multilinear keys stay on the left-normed basis, whose coordinates are the
coefficients of the words that start with the minimal letter (Reutenauer,
Free Lie Algebras, ch. 5):

* `lie_bracket`: keys on disjoint letters, head the one with the smaller
  first letter, bracket to head + t with sign s for each (t, s) in
  leftnormed_words(tail), negated when head is the right factor;
* `LiePoly.relabel` and `LiePoly.leftnormed`: a left-normed monomial on
  distinct letters is rewritten onto the min-first basis by
  `_min_first_words`.

Lyndon keys, bracket pairs on overlapping letters and maps that identify
letters of a key go through the associative algebra and `assoc_to_lie`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .scalars import LinComb, add_term, lincomb


def _multidegree(word):
    counts = {}
    for a in word:
        counts[a] = counts.get(a, 0) + 1
    return tuple(sorted(counts.items()))


def _is_multilinear(word):
    return len(set(word)) == len(word)


def label_str(a):
    if isinstance(a, int):
        return "x%d" % (a + 1)
    return str(a)


# ---------------------------------------------------------------------------
# associative side
# ---------------------------------------------------------------------------

def _word_terms(terms):
    """Tuple word keys, zero coefficients dropped."""
    return {tuple(w): c for w, c in (terms or {}).items() if c}


class AssocPoly(LinComb):
    """Sparse element of a free associative algebra: dict word -> coeff."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = _word_terms(terms)

    def _like(self, terms):
        return AssocPoly(terms)

    @staticmethod
    def unit(c=Fraction(1)):
        return AssocPoly({(): c})

    @staticmethod
    def gen(label):
        return AssocPoly({(label,): Fraction(1)})

    @staticmethod
    def word(letters, c=Fraction(1)):
        return AssocPoly({tuple(letters): c})

    def __mul__(self, other):
        """Concatenation product."""
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_term(out, w1 + w2, c1 * c2)
        return AssocPoly(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), tuple(map(str, w)))):
            bits.append("%s*%s" % (self.terms[w], "".join(label_str(a) for a in w) or "1"))
        return " + ".join(bits)


def assoc_commutator(a, b):
    return a * b - b * a


def leftnormed_words(letters):
    """Words of the left-normed bracket [[x1,x2],...,xk] as (word, sign)
    pairs: each later letter goes right with +1 or left with -1."""
    words = [(tuple(letters[:1]), 1)]
    for a in letters[1:]:
        words = ([(w + (a,), c) for w, c in words]
                 + [((a,) + w, -c) for w, c in words])
    return words


def leftnormed_basis(labels):
    """Left-normed basis monomials of the multilinear part of the free
    Lie algebra on the labels: the minimal label, then each order of the
    rest, in lexicographic order ([()] for no labels)."""
    labels = sorted(labels)
    return [tuple(labels[:1]) + rest for rest in itertools.permutations(labels[1:])]


def expand_leftnormed(letters):
    """AssocPoly expansion of the left-normed bracket [[x1,x2],...,xk]."""
    out = {}
    for w, c in leftnormed_words(letters):
        add_term(out, w, Fraction(c))
    return AssocPoly(out)


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def is_lyndon(w):
    """True for nonempty words strictly smaller than all proper suffixes."""
    n = len(w)
    if n == 0:
        return False
    return all(w < w[i:] for i in range(1, n))


def lyndon_standard_bracketing(w):
    """Nested-tuple standard bracketing of a Lyndon word.

    Returns the one-letter word itself for a single letter, else a pair
    (left, right) with right the longest proper Lyndon suffix.  Leaves
    are 1-tuples and nodes 2-tuples, so no label, a tuple label included,
    reads as a subtree.
    """
    if len(w) == 1:
        return tuple(w)
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return (lyndon_standard_bracketing(w[:i]), lyndon_standard_bracketing(w[i:]))
    raise ValueError("not a Lyndon word: %r" % (w,))


def _expand_tree(t):
    if len(t) == 1:
        return AssocPoly.gen(t[0])
    return assoc_commutator(_expand_tree(t[0]), _expand_tree(t[1]))


def expand_lyndon(w):
    return _expand_tree(lyndon_standard_bracketing(w))


# ---------------------------------------------------------------------------
# Lie side
# ---------------------------------------------------------------------------

class NotLieElement(ValueError):
    pass


class LiePoly(LinComb):
    """Canonical element of a free Lie algebra; see module docstring."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = _word_terms(terms)

    def _like(self, terms):
        return LiePoly(terms)

    @staticmethod
    def gen(label):
        return LiePoly({(label,): Fraction(1)})

    @staticmethod
    def leftnormed(letters, c=Fraction(1)):
        """c*[[x_a1,x_a2],...,x_ak] on the canonical bases: distinct letters
        by `_min_first_words`, repeated ones through `assoc_to_lie`."""
        letters = tuple(letters)
        if _is_multilinear(letters):
            return LiePoly({u: c if s > 0 else -c for u, s in _min_first_words(letters)})
        return assoc_to_lie(c * expand_leftnormed(letters))

    def relabel(self, mapping):
        """Apply a label substitution; labels outside mapping stay.  A
        multilinear key whose image keeps its letters distinct is rewritten
        by `_min_first_words`; any other key is expanded, its words mapped
        and the sum read back by `assoc_to_lie`, unchecked, since the image
        of a Lie element is one."""
        out = {}
        rest = {}
        for w, c in self.terms.items():
            y = tuple(mapping.get(a, a) for a in w)
            if _is_multilinear(w) and _is_multilinear(y):
                for u, s in _min_first_words(y):
                    add_term(out, u, c if s > 0 else -c)
            else:
                for u, cu in LiePoly({w: c}).expand().terms.items():
                    add_term(rest, tuple(mapping.get(a, a) for a in u), cu)
        return _with_assoc(out, rest)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), tuple(map(str, w)))):
            if _is_multilinear(w):
                s = label_str(w[0])
                for a in w[1:]:
                    s = "[%s,%s]" % (s, label_str(a))
            else:
                s = _tree_str(lyndon_standard_bracketing(w))
            bits.append("%s*%s" % (self.terms[w], s))
        return " + ".join(bits)

    def expand(self):
        """Canonical embedding into the free associative algebra."""
        out = AssocPoly()
        for w, c in self.terms.items():
            if _is_multilinear(w):
                out = out + c * expand_leftnormed(w)
            else:
                out = out + c * expand_lyndon(w)
        return out


def _tree_str(t):
    if len(t) == 1:
        return label_str(t[0])
    return "[%s,%s]" % (_tree_str(t[0]), _tree_str(t[1]))


def assoc_to_lie(p, check=True):
    """Rewrite a Lie element of the free associative algebra canonically.

    Multilinear components: read coefficients of the words starting with
    the minimal label (those words biject with the left-normed basis).
    Other components: triangular elimination against the Lyndon basis.
    Raises NotLieElement when the input fails to be a Lie polynomial and
    check is set.
    """
    terms = {}
    remaining_mdegs = {}
    for w, c in p.terms.items():
        remaining_mdegs.setdefault(_multidegree(w), AssocPoly()).terms[w] = c
    for mdeg, comp in remaining_mdegs.items():
        if sum(k for _, k in mdeg) == 0:
            if comp:
                raise NotLieElement("constant term present")
            continue
        if all(k == 1 for _, k in mdeg):
            lo = min(a for a, _ in mdeg)
            for w, c in comp.terms.items():
                if w[0] == lo:
                    terms[w] = c
            if check:
                agg = AssocPoly()
                for w, c in list(terms.items()):
                    if _multidegree(w) == mdeg:
                        agg = agg + c * expand_leftnormed(w)
                if agg.terms != comp.terms:
                    raise NotLieElement("not a Lie element (multilinear component)")
        else:
            rem = AssocPoly(dict(comp.terms))
            while rem:
                w = min(rem.terms)
                if not is_lyndon(w):
                    raise NotLieElement("not a Lie element (Lyndon conversion)")
                c = rem.terms[w]
                terms[w] = c
                rem = rem - c * expand_lyndon(w)
    return LiePoly(terms)


def _min_first_words(y):
    """The left-normed monomial on the distinct letters y as (key, sign)
    pairs on the min-first basis.  With the minimum m at position i > 0 it
    is [[X, m], y_(i+1), ...] for X the monomial on y_0..y_(i-1), and only
    the words of -m*X*y_(i+1)... start with m: 2^(i-1) keys, where the
    whole expansion has 2^(n-1) words."""
    i = y.index(min(y))
    if i == 0:
        return [(y, 1)]
    return [(y[i:i + 1] + u + y[i + 1:], -s) for u, s in leftnormed_words(y[:i])]


def _with_assoc(terms, rest):
    """LiePoly of terms plus the Lie element rest, a dict of words."""
    if rest:
        for w, c in assoc_to_lie(AssocPoly(rest), check=False).terms.items():
            add_term(terms, w, c)
    return LiePoly(terms)


def lie_bracket(a, b):
    """Bracket of two LiePoly, canonical output.  Multilinear keys on
    disjoint letters bracket on the left-normed basis (module docstring):
    of head*tail - tail*head only head*tail has words that start with the
    minimal letter, and of head's expansion only the word head itself.
    Every other term pair is multiplied out and read back by
    `assoc_to_lie`."""
    out = {}
    rest = {}
    for w, cw in a.terms.items():
        w_ml = _is_multilinear(w)
        for v, cv in b.terms.items():
            c = cw * cv
            if w_ml and _is_multilinear(v) and set(w).isdisjoint(v):
                if w[0] < v[0]:
                    head, tail = w, v
                else:
                    head, tail, c = v, w, -c
                for t, s in leftnormed_words(tail):
                    add_term(out, head + t, c if s > 0 else -c)
            else:
                ew, ev = LiePoly({w: cw}).expand(), LiePoly({v: cv}).expand()
                for u, cu in assoc_commutator(ew, ev).terms.items():
                    add_term(rest, u, cu)
    return _with_assoc(out, rest)


def dynkin(p):
    """Left-normed bracketing map on a homogeneous AssocPoly.

    Sends sum c_w * w to sum c_w * [[w_1,w_2],...,w_n].  On Lie elements
    of degree n this equals n times the identity (Dynkin-Specht-Wever),
    repeated letters included.
    """
    out = AssocPoly()
    degree = None
    for w, c in p.terms.items():
        if degree is None:
            degree = len(w)
        elif len(w) != degree:
            raise ValueError("dynkin needs a homogeneous polynomial")
        out = out + c * expand_leftnormed(w)
    return assoc_to_lie(out, check=False)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute(p, args):
    """Image of a multilinear LiePoly under generator -> args[generator],
    for LiePoly arguments.

    The generators of p must be integers 0..n-1 with n = len(args), and
    a word with any other letter raises ValueError, as does a word with
    a repeated letter (a Lyndon key).  Each word of p is a left-normed
    monomial, valued as its arguments bracketed left to right; the
    (coefficient, value) pairs are added up in one pass.
    """
    n = len(args)
    pairs = []
    for w, c in p.terms.items():
        for a in w:
            if not (isinstance(a, int) and 0 <= a < n):
                raise ValueError("substitute: arity mismatch for generator %r" % (a,))
        if not _is_multilinear(w):
            raise ValueError("substitute needs a multilinear polynomial, not the word %r"
                             % (w,))
        pairs.append((c, functools.reduce(lie_bracket, (args[a] for a in w)).terms))
    return LiePoly(lincomb(pairs))


def order_type(words):
    """(atoms, shape) of a tuple of words of labels: atoms the sorted
    distinct labels, shape the words with each label replaced by its rank
    among them, so words[i][j] == atoms[shape[i][j]].  Two tuples have
    one shape iff an order-preserving relabeling carries one to the other."""
    atoms = sorted({a for w in words for a in w})
    rank = {a: i for i, a in enumerate(atoms)}
    return atoms, tuple(tuple(rank[a] for a in w) for w in words)


def substitute_letters(p, letters, memo, key):
    """p with generator i replaced by the Lie letter letters[i] (a tuple
    of distinct labels, minimal first: the left-normed monomial on them).

    The free-Lie code only compares labels, so the substitution commutes
    with any order-preserving relabeling of the atoms: memo[key, shape]
    holds it on the letters' `order_type` shape, with key naming p for
    the memo's owner, and the result is relabeled back here.
    """
    atoms, shape = order_type(letters)
    hit = memo.get((key, shape))
    if hit is None:
        hit = memo[key, shape] = substitute(p, [LiePoly({x: Fraction(1)}) for x in shape])
    return LiePoly({tuple(atoms[i] for i in w): c for w, c in hit.terms.items()})


# ---------------------------------------------------------------------------
# Campbell-Baker-Hausdorff series
# ---------------------------------------------------------------------------

def _trunc_mul(a, b, n):
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            if len(w1) + len(w2) <= n:
                add_term(out, w1 + w2, c1 * c2)
    return AssocPoly(out)


def cbh(N):
    """CBH table {(p, q): LiePoly} with p+q <= N from log(exp(x) exp(y)).

    Generators are 0 (for x) and 1 (for y); the (p, q) entry is the
    bidegree-(p, q) part, recovered in Lie form by the Dynkin projection
    divided by p+q.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    ex = AssocPoly.unit()
    for k in range(1, N + 1):
        ex = ex + Fraction(1, math.factorial(k)) * AssocPoly.word((0,) * k)
    ey = AssocPoly.unit()
    for k in range(1, N + 1):
        ey = ey + Fraction(1, math.factorial(k)) * AssocPoly.word((1,) * k)
    prod = _trunc_mul(ex, ey, N)
    u = prod - AssocPoly.unit()
    log = AssocPoly()
    upow = AssocPoly.unit()
    for k in range(1, N + 1):
        upow = _trunc_mul(upow, u, N)
        log = log + Fraction((-1) ** (k + 1), k) * upow
    table = {}
    for p in range(0, N + 1):
        for q in range(0, N + 1 - p):
            if p + q == 0:
                continue
            comp = AssocPoly({w: c for w, c in log.terms.items()
                              if w.count(0) == p and w.count(1) == q})
            # log of a group-like is primitive, hence Lie: Dynkin recovers it
            table[(p, q)] = Fraction(1, p + q) * dynkin(comp)
    return table


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def lie_to_json(p):
    out = []
    for w, c in sorted(p.terms.items(), key=lambda kv: (len(kv[0]), tuple(map(str, kv[0])))):
        kind = "leftnormed" if _is_multilinear(w) else "lyndon"
        out.append({"monomial": {"kind": kind, "letters": list(w)},
                    "coeff": str(c)})
    return {"terms": out}


def lie_from_json(d):
    p = LiePoly()
    for m in d["terms"]:
        letters = tuple(m["monomial"]["letters"])
        c = Fraction(m["coeff"])
        if m["monomial"].get("kind", "leftnormed") == "leftnormed":
            p = p + LiePoly.leftnormed(letters, c)
        else:
            p = p + assoc_to_lie(c * expand_lyndon(letters))
    return p


def lie_text(p):
    """Nested-bracket text form, e.g. '1/8*[[x1,x2],x3]'."""
    return repr(p)
