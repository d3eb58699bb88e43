"""The word-form class map of the universal spaces, an oracle for
universal.normal_order on the F-spaces: letters expanded into plain
words, then unitensor.canonical.  With it, the Lie reading of a
word-form class (lie_form) and kappa on word-form input (instantiate),
which the library takes in Lie letters only; and the renaming of pids,
`relabel`, under which every class is invariant."""

import math

from liequant import universal
from liequant.scalars import add_term
from liequant.unitensor import (UElem, _relabel_term, canonical, expand_letters,
                                normalize_letters)


def relabel(elem, mapping):
    """elem with its pids renamed by mapping, letters renormalized to the
    canonical basis."""
    out = {}
    for k, c in elem.terms.items():
        add_term(out, _relabel_term(k, mapping), c)
    return normalize_letters(UElem(elem.legs, out))


def expand_to_words(elem):
    """Expand every multi-atom letter into plain single-atom words."""
    out = {}
    for k, c in elem.terms.items():
        for key, cw in expand_letters(k):
            add_term(out, tuple(tuple((a,) for word in leg for a in word)
                                for leg in key), c * cw)
    return UElem(elem.legs, out)


def canonical_classes(elem):
    """Class coordinate of the plain word form: slots multiply
    associatively, so letter boundaries are dropped before comparing."""
    return canonical(expand_to_words(elem))


def lie_form(elem):
    """Read a word-form class as a tensor of Lie letters, with proof.

    Each slot word w is read as (1/|w|) [..[w1,w2],..,wk]
    (Dynkin-Specht-Wever), which fixes Lie polynomials and commutes with
    relabeling, so the class of a tensor of Lie polynomials maps to a
    tensor of Lie letters in the same class.  The classes are compared
    (raises AssertionError otherwise).  Multi-atom Lie letters are first
    expanded into plain words.
    """
    elem = expand_to_words(elem)
    out = {}
    for k, c in elem.terms.items():
        if all(k):
            key = tuple((tuple(letter[0] for letter in leg),) for leg in k)
            add_term(out, key, c / math.prod(len(leg) for leg in k))
    out = normalize_letters(UElem(elem.legs, out))
    assert canonical_classes(out) == canonical_classes(elem), \
        "element is not a tensor of Lie polynomials"
    return out


def instantiate(elem, alg, r):
    """universal.instantiate, with word-form input first read through
    lie_form (which proves the class is a tensor of Lie polynomials)."""
    if any(len(w) != 1 for k in elem.terms for w in k):
        elem = lie_form(elem)
    return universal.instantiate(elem, alg, r)
