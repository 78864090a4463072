"""Noncommutative 1-forms and double derivations over a free algebra.

Omega carries one form generator per algebra generator, same degree, so the
universal derivation d has degree 0 and needs no signs.  Der carries one
double derivation generator per algebra generator with degree -|x_i| - r;
its pairing against algebra words is the two-sided partial derivative.
d and the pairing take single words.

koszul_bracket turns a double Poisson bracket on A into double
Lie-Rinehart data on Omega by differentiating the table legwise.
sn_bracket equips A + Der with its Schouten-Nijenhuis-type bracket, read
off the pairing of each generating derivation with each generator.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import (
    Colour,
    FreeAlgebra,
    Generator,
    NCPoly,
    ShiftContext,
    Tensor2,
    Word,
    add_into,
    bilinear,
    sign_exp,
)
from .brackets import (
    BracketSpec,
    check_antisymmetry,
    check_double_jacobi,
)
from .dlr import BimoduleSpec, DLRData
from .reports import CheckReport


def _prefixed_bimodule(base: FreeAlgebra, prefix: str, degree_of) -> BimoduleSpec:
    names = {g.name for g in base.gens}
    mgens = []
    for g in base.gens:
        nm = prefix + g.name
        if nm in names:
            raise ValueError(f"generator name collision: '{nm}'")
        names.add(nm)
        mgens.append(Generator(nm, degree_of(g), Colour.MODULE))
    return BimoduleSpec(base, mgens)


class OmegaPresentation:
    """Bimodule of noncommutative 1-forms on a free base algebra."""

    def __init__(self, base: FreeAlgebra):
        self.base = base
        self.bimodule = _prefixed_bimodule(base, "d", lambda g: g.degree)
        n = len(base.gens)
        # ambient index of dx_i for base index i
        self.form_of = {i: n + i for i in range(n)}


def _d_words(omega: OmegaPresentation, w: Word):
    """The words of d(w): each letter of w in turn replaced by its form
    generator."""
    alg = omega.bimodule.ambient
    for j, letter in enumerate(w):
        if alg.is_module(letter):
            raise ValueError(f"not a base word: {alg.render_word(w)}")
        yield w[:j] + (omega.form_of[letter],) + w[j + 1:]


def universal_derivation(omega: OmegaPresentation, w: Word) -> NCPoly:
    """d(w) of a base word w replaces each letter of w by its form generator
    in turn."""
    # the words differ in the position of their one form letter
    return NCPoly(omega.bimodule.ambient, dict.fromkeys(_d_words(omega, w), 1))


def _legwise_d(omega: OmegaPresentation, t: Tensor2, leg: int) -> Tensor2:
    return Tensor2(omega.bimodule.ambient, add_into({}, (
        ((dw, v) if leg == 0 else (u, dw), c)
        for (u, v), c in t.terms.items() for dw in _d_words(omega, (u, v)[leg])
    )))


def koszul_bracket(spec: BracketSpec) -> DLRData:
    """Double Lie-Rinehart data on 1-forms induced by a double Poisson
    bracket: the anchor is the bracket table itself, the form bracket its
    legwise derivative.  The bracket must pass antisymmetry and double
    Jacobi on words up to length 2, else ValueError."""
    if not check_antisymmetry(spec, 2).ok or not check_double_jacobi(spec, 2).ok:
        raise ValueError("input is not double Poisson")
    base = spec.algebra
    omega = OmegaPresentation(base)
    amb = omega.bimodule.ambient
    anchor: dict = {}
    mbracket: dict = {}
    for i in range(len(base.gens)):
        for j in range(len(base.gens)):
            val = spec.elem(i, j)
            if not val:
                continue
            # base words keep their indices in the ambient algebra
            lifted = Tensor2(amb, val.terms)
            anchor[(omega.form_of[i], j)] = lifted
            l = _legwise_d(omega, lifted, 0)
            r = _legwise_d(omega, lifted, 1)
            if l or r:
                mbracket[(omega.form_of[i], omega.form_of[j])] = (l, r)
    return DLRData(omega.bimodule, spec.shift, anchor, mbracket)


def koszul_square_check(spec: BracketSpec, data: Optional[DLRData] = None,
                        max_len: int = 3) -> CheckReport:
    """Differentiating the bracket legwise agrees with bracketing the
    differentials, on all base word pairs."""
    if data is None:
        data = koszul_bracket(spec)
    omega = OmegaPresentation(spec.algebra)
    if omega.bimodule != data.bimodule:
        raise ValueError("data does not present the forms of this algebra")
    amb = omega.bimodule.ambient
    words = list(spec.algebra.words_up_to(max_len))

    def mb_terms(w1: Word, w2: Word) -> dict:
        # the M (x) A and A (x) M components: their keys differ in leg weights
        L, R = data.mb_eval(w1, w2)
        return {**L.terms, **R.terms}

    def failures():
        for u, v in itertools.product(words, words):
            t = Tensor2(amb, spec.eval_words(u, v).terms)
            lhs = _legwise_d(omega, t, 0) + _legwise_d(omega, t, 1)
            du = universal_derivation(omega, u)
            dv = universal_derivation(omega, v)
            diff = lhs - Tensor2(amb, bilinear({}, mb_terms, du.terms, dv.terms))
            if diff:
                yield spec.algebra.render_words(u, v), diff.render()

    return CheckReport("koszul-square", max_len).first_failure("koszul-square", failures())


class DerPresentation:
    """Bimodule of generating double derivations, degree -|x_i| - r."""

    def __init__(self, base: FreeAlgebra, shift: ShiftContext = ShiftContext(0)):
        self.base = base
        self.shift = shift
        self.bimodule = _prefixed_bimodule(
            base, "D", lambda g: -g.degree - shift.r
        )
        n = len(base.gens)
        self.der_of = {i: n + i for i in range(n)}


def double_partial(der: DerPresentation, i: int, w: Word) -> Tensor2:
    """Two-sided partial with respect to base generator i."""
    alg = der.bimodule.ambient
    dD = alg.gens[der.der_of[i]].degree
    return Tensor2(alg, add_into({}, (
        ((w[:j], w[j + 1:]), sign_exp(dD, alg.degree(w[:j])))
        for j, letter in enumerate(w) if letter == i
    )))


def sn_bracket(base: FreeAlgebra, shift: ShiftContext = ShiftContext(0)) -> BracketSpec:
    """Schouten-Nijenhuis-type bracket on the algebra of base generators
    and generating double derivations.

    The table holds {{D_i, x_i}}, the double partial of x_i with respect
    to itself, which is 1 (x) 1; every other pair of generators brackets to
    zero.
    """
    der = DerPresentation(base, shift)
    table = {(der.der_of[i], i): double_partial(der, i, (i,)) for i in range(len(base.gens))}
    return BracketSpec(der.bimodule.ambient, shift, table)
