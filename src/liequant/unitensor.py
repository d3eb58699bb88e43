"""Universal multilinear tensors over formal r-matrix pairs.

An atom is (pid, side) with side 0 for the first tensor factor of the
formal pair ("a") and 1 for the second ("b").  A letter is a flat tuple
of distinct atoms standing for the left-normed Lie monomial on them
(minimal atom first); single-atom letters are the atoms themselves.
A term assigns each leg a word (tuple) of letters; elements are dicts
{term key: Fraction}.

The same structure serves the shuffle legs of universal R-matrices
(letters = Lie monomials), and the F-space word calculus (letters =
single atoms) used by the normal-ordering rewriting.
"""

from __future__ import annotations

from fractions import Fraction

from .freealg import LiePoly, leftnormed_words
from .scalars import LinComb, add_term, distribute


def a_atom(pid):
    return (pid, 0)


def b_atom(pid):
    return (pid, 1)


class UElem(LinComb):
    """Formal sum of multi-leg word tensors over paired atoms."""

    __slots__ = ("legs",)

    def __init__(self, legs, terms=None):
        self.legs = legs
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def _like(self, terms, legs=None):
        return UElem(self.legs if legs is None else legs, terms)

    @staticmethod
    def zero(legs):
        return UElem(legs, {})

    @staticmethod
    def unit(legs, c=Fraction(1)):
        return UElem(legs, {((),) * legs: c})

    @staticmethod
    def single(legs, key, c=Fraction(1)):
        return UElem(legs, {key: c})

    def pids(self):
        out = set()
        for k in self.terms:
            for leg in k:
                for letter in leg:
                    for (pid, _side) in letter:
                        out.add(pid)
        return out


def normalize_letters(elem):
    """Renormalize every letter to the canonical left-normed basis.

    Needed after relabelings that can disturb the minimal-first
    convention.  Multi-distributes letters that decompose into several
    basis monomials.
    """
    out = UElem(elem.legs, {})
    for k, c in elem.terms.items():
        for key, cc in _normalize_term_letters(k):
            add_term(out.terms, key, c * cc)
    return out


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def u_mul(x, y, modes):
    """Legwise product; modes[i] is "conc" or a bfamily.WordAlgebra, such as
    B.letters, the deformed product of the family B on words of Lie letters."""
    out = UElem(x.legs, {})
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            legs = (((u + v, 1),) if mode == "conc" else mode.word_mul(u, v).items()
                    for mode, u, v in zip(modes, k1, k2))
            for key, c in distribute(legs, c1 * c2):
                add_term(out.terms, key, c)
    return out


# ---------------------------------------------------------------------------
# classes modulo relabeling of the formal pairs
# ---------------------------------------------------------------------------

def expand_letters(k):
    """Expand every letter of a term key into associative words in place;
    letter boundaries are kept.  List of (key, coeff)."""
    return distribute(distribute(map(leftnormed_words, leg)) for leg in k)


def class_key(key):
    """Rename the pids in order of first appearance: the orbit
    representative of a key of words with every atom once."""
    names = {}
    return tuple(tuple(tuple((names.setdefault(p, len(names)), s)
                             for (p, s) in letter)
                       for letter in leg)
                 for leg in key)


def canonical(elem):
    """Class coordinate of elem modulo relabeling of the formal pairs:
    `class_key` of every key after `expand_letters`.

    Letter boundaries are kept, so words of shuffle-leg letters stay
    distinct from words of letters.  Two elements have the same class iff
    their coordinates are equal; zero classes map to the empty element.
    The result's letters are associative words, not Lie monomials.
    """
    out = {}
    for k, c in elem.terms.items():
        for key, cw in expand_letters(k):
            add_term(out, class_key(key), c * cw)
    return UElem(elem.legs, out)


def _relabel_term(k, mapping):
    return tuple(tuple(tuple((mapping.get(p, p), s) for (p, s) in letter)
                       for letter in leg)
                 for leg in k)


def _normalize_term_letters(k):
    """Expand letters into the canonical basis; list of (term, coeff)."""
    return distribute((distribute(map(_letter_basis, leg)) for leg in k),
                      Fraction(1))


def _letter_basis(letter):
    """A letter as (basis monomial, coeff) pairs."""
    if len(letter) <= 1 or letter[0] == min(letter):
        return ((tuple(letter), 1),)
    return LiePoly.leftnormed(tuple(letter)).terms.items()


# ---------------------------------------------------------------------------
# kappa: pairs substituted for the formal pairs
# ---------------------------------------------------------------------------

def substitute_pairs(elem, pairs, letter):
    """kappa: a pair substituted for each formal pair of elem.

    pairs(p) lists the (pair, coeff) choices for the formal pair p, a pair
    indexed by side; letter(letter, sides) lists the (image, coeff) pairs
    of one letter, sides mapping each pid of the term to its chosen pair.
    Terms are walked in order, their pids sorted and their legs letter by
    letter; the result is {(word of images, ...): coeff}.  A choice whose
    coefficient vanishes (hbar series truncated to zero) is skipped.
    """
    out = {}
    for k, c in elem.terms.items():
        pids = sorted({p for leg in k for x in leg for (p, _s) in x})
        for choice, cc in distribute(map(pairs, pids), c):
            if not cc:
                continue
            sides = dict(zip(pids, choice))
            legs = (distribute(letter(x, sides) for x in leg) for leg in k)
            for key, cl in distribute(legs, cc):
                add_term(out, key, cl)
    return out


def instantiate_tensor(elem, alg, r):
    """kappa at a concrete pair r: dict {(i, j): coeff} in alg x alg.

    Every leg is a word of Lie letters; each letter, the left-normed
    monomial on its atoms, is read off alg's memo of left-normed basis
    brackets (`LieAlgebra.leftnormed`), so the result is the
    tuple-of-words tensor {(word, word, ...): coeff} over basis indices,
    one index per letter.
    """
    rterms = list(r.items())

    def letter(letter, sides):
        return alg.leftnormed(tuple(sides[p][s] for (p, s) in letter)).items()
    return substitute_pairs(elem, lambda p: rterms, letter)
