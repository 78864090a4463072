"""Canonical example data used across the test suite and the fixture
corpus.  Builders return fresh objects so callers can mutate caches
freely."""

from __future__ import annotations

from .core import Colour, FreeAlgebra, Generator, ShiftContext, Tensor2, tensor2
from .brackets import BracketSpec
from .dlr import BimoduleSpec, DLRData


def f1_spec() -> BracketSpec:
    """QQ<x,y>, degree 0, r = 0, {{x,y}} = 1 (x) 1."""
    alg = FreeAlgebra((Generator("x"), Generator("y")))
    return BracketSpec(alg, ShiftContext(0), {("x", "y"): tensor2(alg, ("1", "1"))})


def f2_spec() -> BracketSpec:
    """QQ<x>, {{x,x}} = x (x) 1 - 1 (x) x."""
    alg = FreeAlgebra((Generator("x"),))
    return BracketSpec(
        alg, ShiftContext(0), {("x", "x"): tensor2(alg, ("x", "1"), ("1", "x", -1))}
    )


def graded_spec() -> BracketSpec:
    """QQ<a> with |a| = 1, r = -2, {{a,a}} = 1 (x) 1."""
    alg = FreeAlgebra((Generator("a", 1),))
    return BracketSpec(alg, ShiftContext(-2), {("a", "a"): tensor2(alg, ("1", "1"))})


def antisym_violator() -> BracketSpec:
    """{{x,x}} = x (x) x fails antisymmetry at (x, x)."""
    alg = FreeAlgebra((Generator("x"),))
    return BracketSpec(alg, ShiftContext(0), {("x", "x"): tensor2(alg, ("x", "x"))})


def jacobi_violator() -> BracketSpec:
    """{{x,y}} = x (x) y passes antisymmetry but fails double Jacobi
    first at (x, x, y) with residual - x (x) x (x) y."""
    alg = FreeAlgebra((Generator("x"), Generator("y")))
    return BracketSpec(alg, ShiftContext(0), {("x", "y"): tensor2(alg, ("x", "y"))})


def quadratic_spec() -> BracketSpec:
    """{{m,m}} = m (x) m on the one-generator module over the trivial
    base; its jacobiator at (m,m,m) is 3 m (x) m (x) m."""
    alg = FreeAlgebra((Generator("m", 0, Colour.MODULE),))
    return BracketSpec(alg, ShiftContext(0), {("m", "m"): tensor2(alg, ("m", "m"))})


# -- double Lie-Rinehart fixtures ----------------------------------------


def zero_dlr() -> DLRData:
    bm = BimoduleSpec(FreeAlgebra(()), [Generator("e")])
    return DLRData(bm, ShiftContext(0), {}, {})


def idempotent_dlr() -> DLRData:
    """The linear bracket encoding the product e.e = e."""
    bm = BimoduleSpec(FreeAlgebra(()), [Generator("e")])
    amb = bm.ambient
    return DLRData(
        bm, ShiftContext(0), {},
        {("e", "e"): (tensor2(amb, ("e", "1")), tensor2(amb, ("1", "e", -1)))},
    )


def koszul_f2_tables() -> DLRData:
    """The forms of f2_spec with their tables written out by hand; the
    koszul_bracket construction must reproduce these."""
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("dx")])
    amb = bm.ambient
    return DLRData(
        bm, ShiftContext(0),
        {("dx", "x"): tensor2(amb, ("x", "1"), ("1", "x", -1))},
        {("dx", "dx"): (tensor2(amb, ("dx", "1")), tensor2(amb, ("1", "dx", -1)))},
    )


def flipped_anchor_dlr() -> DLRData:
    """koszul_f2_tables with the anchor negated; condition (c) breaks."""
    d = koszul_f2_tables()
    bad = {k: v.scale(-1) for k, v in d.anchor.items()}
    return DLRData(d.bimodule, d.shift, bad, d.mbracket)


def dropped_term_dlr() -> DLRData:
    """koszul_f2_tables without the A (x) M half of the module bracket;
    conditions (a) and (d) break."""
    d = koszul_f2_tables()
    amb = d.bimodule.ambient
    bad = {k: (l, Tensor2(amb, {})) for k, (l, r) in d.mbracket.items()}
    return DLRData(d.bimodule, d.shift, d.anchor, bad)


def broken_dlr_fixtures():
    return [("flipped-anchor", flipped_anchor_dlr()),
            ("dropped-term", dropped_term_dlr())]


def dlr_fixtures():
    return [("zero", zero_dlr()), ("idempotent", idempotent_dlr()),
            ("koszul-f2", koszul_f2_tables())]


# -- product tables -------------------------------------------------------


def product_bimodule(names) -> BimoduleSpec:
    return BimoduleSpec(FreeAlgebra(()), [Generator(n) for n in names])


def product_idempotent():
    """e.e = e; associative."""
    return product_bimodule(["e"]), {("e", "e"): "e"}


def product_composition():
    """a.a = a, a.b = b, other products zero; associative."""
    return product_bimodule(["a", "b"]), {("a", "a"): "a", ("a", "b"): "b"}


def product_nonassoc():
    """f(e,e) = e, f(e,g) = e, f(g,e) = g; fails first at (e, g, g)."""
    return product_bimodule(["e", "g"]), {
        ("e", "e"): "e", ("e", "g"): "e", ("g", "e"): "g",
    }


def product_fixtures():
    return [("idempotent", *product_idempotent(), True),
            ("composition", *product_composition(), True),
            ("nonassoc", *product_nonassoc(), False)]
