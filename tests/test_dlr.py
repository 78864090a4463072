"""Anchored module brackets: validation, evaluation, the five-condition
checker, conversion to and from plain brackets, and product tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpoisson.core import Colour, FreeAlgebra, Generator, ShiftContext, Tensor2, tensor2
from dpoisson.brackets import BracketSpec, run_bracket_checks
from dpoisson.dlr import (
    BimoduleSpec,
    BracketClass,
    DLRData,
    assoc_product_check,
    bracket_is_zero,
    classify_bracket,
    dlr_check,
    dlr_to_linear,
    linear_to_dlr,
)

from conftest import block, broken_dlr_fixtures, dlr_fixtures
from test_acceptance import product_fixtures


# -- bimodule and data validation -----------------------------------------


def test_bimodule_coerces_module_colour():
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    assert bm.ambient.gens[1].colour is Colour.MODULE
    assert bm.ambient.gens[0].colour is Colour.BASE


def test_bimodule_word_generators():
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    base = list(bm.base_words(2))
    assert all(bm.ambient.weight(w) == 0 for w in base)
    mod = list(bm.module_words(2))
    assert all(bm.ambient.weight(w) == 1 for w in mod)
    assert bm.ambient.word("m") in mod
    assert bm.ambient.word("x.m") in mod


def test_anchor_must_pair_module_with_base():
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    amb = bm.ambient
    with pytest.raises(ValueError, match="base-coloured legs"):
        DLRData(bm, ShiftContext(0), {("m", "x"): tensor2(amb, ("m", "1"))}, {})


def test_mbracket_left_leg_profile_checked():
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    amb = bm.ambient
    good_l = tensor2(amb, ("m", "1"))
    bad_l = tensor2(amb, ("1", "m"))
    DLRData(bm, ShiftContext(0), {}, {("m", "m"): (good_l, Tensor2(amb, {}))})
    with pytest.raises(ValueError, match=r"left component must land in M \(x\) A"):
        DLRData(bm, ShiftContext(0), {}, {("m", "m"): (bad_l, Tensor2(amb, {}))})


def test_data_homogeneity_enforced():
    bm = BimoduleSpec(FreeAlgebra((Generator("x", 2),)), [Generator("m")])
    amb = bm.ambient
    bad = tensor2(amb, ("1", "1"), ("x", "1"))
    with pytest.raises(ValueError, match="homogeneous"):
        DLRData(bm, ShiftContext(0), {("m", "x"): bad}, {})


# -- evaluation oracles ---------------------------------------------------


def test_koszul_tables_anchor_on_generators():
    d = block("koszul_f2.dbr", "K")
    amb = d.bimodule.ambient
    got = d.anchor_eval(amb.word("dx"), amb.word("x"))
    assert got.render() == "- 1 (*) x + x (*) 1"


def test_anchor_derivation_in_second_slot():
    d = block("koszul_f2.dbr", "K")
    amb = d.bimodule.ambient
    # rho(dx, x.x) = rho(dx,x).x + x.rho(dx,x) with degree-0 signs trivial
    got = d.anchor_eval(amb.word("dx"), amb.word("x.x"))
    assert got == tensor2(amb, ("x.x", "1"), ("1", "x.x", -1))


def test_anchor_unit_slot_vanishes():
    d = block("koszul_f2.dbr", "K")
    amb = d.bimodule.ambient
    assert not d.anchor_eval(amb.word("dx"), ())


def test_anchor_left_module_action():
    d = block("koszul_f2.dbr", "K")
    amb = d.bimodule.ambient
    got = d.anchor_eval(amb.word("x.dx"), amb.word("x"))
    assert got == tensor2(amb, ("x", "x"), ("1", "x.x", -1))


def test_mb_eval_generators():
    d = block("koszul_f2.dbr", "K")
    amb = d.bimodule.ambient
    l, r = d.mb_eval(amb.word("dx"), amb.word("dx"))
    assert l.render() == "dx (*) 1"
    assert r.render() == "- 1 (*) dx"


def test_mb_eval_extension_weight_profile():
    # every term of l stays in M (x) A and every term of r in A (x) M
    d = block("koszul_f2.dbr", "K")
    amb = d.bimodule.ambient
    l, r = d.mb_eval(amb.word("x.dx"), amb.word("dx.x"))
    for w1, w2 in l.terms:
        assert amb.weight(w1) == 1 and amb.weight(w2) == 0
    for w1, w2 in r.terms:
        assert amb.weight(w1) == 0 and amb.weight(w2) == 1


def test_idempotent_tables():
    d = block("idempotent.dbr", "IDEM")
    amb = d.bimodule.ambient
    l, r = d.mb_eval(amb.word("e"), amb.word("e"))
    assert l.render() == "e (*) 1"
    assert r.render() == "- 1 (*) e"


# -- the five-condition checker -------------------------------------------


CONDITIONS = [
    "a-antisymmetry",
    "anchor-properties",
    "b-derivation-compat",
    "c-anchor-jacobi",
    "d-double-jacobi",
]


@pytest.mark.parametrize("name,data", dlr_fixtures())
def test_good_fixtures_pass_all_conditions(name, data):
    rep = dlr_check(data, max_len=3)
    assert [e.axiom for e in rep.entries] == CONDITIONS
    assert rep.ok, rep.render(show_time=False)


def test_flipped_anchor_generator_level_fails_only_c():
    rep = dlr_check(block("flipped_anchor.dbr", "KBAD"), max_len=1)
    verdicts = dict(rep.verdict_vector())
    assert verdicts == {
        "a-antisymmetry": True,
        "anchor-properties": True,
        "b-derivation-compat": True,
        "c-anchor-jacobi": False,
        "d-double-jacobi": True,
    }


def test_flipped_anchor_word_level_signature():
    rep = dlr_check(block("flipped_anchor.dbr", "KBAD"), max_len=3)
    c = rep.entry("c-anchor-jacobi")
    assert not c.passed
    assert c.witness == "(x, dx, dx)"
    assert c.residual == "2 * 1 (*) x (*) 1 - 2 * x (*) 1 (*) 1"
    # on longer words the broken anchor also leaks into condition (d)
    d = rep.entry("d-double-jacobi")
    assert not d.passed
    assert d.witness == "(dx, dx, dx.x)"


def test_dropped_term_generator_level_fails_a_and_d():
    rep = dlr_check(block("dropped_term.dbr", "KBAD"), max_len=1)
    verdicts = dict(rep.verdict_vector())
    assert verdicts == {
        "a-antisymmetry": False,
        "anchor-properties": True,
        "b-derivation-compat": True,
        "c-anchor-jacobi": True,
        "d-double-jacobi": False,
    }


def test_dropped_term_word_level_signature():
    rep = dlr_check(block("dropped_term.dbr", "KBAD"), max_len=3)
    assert rep.entry("a-antisymmetry").witness == "(dx, dx)"
    assert rep.entry("c-anchor-jacobi").witness == "(x, dx.x, dx)"
    assert rep.entry("d-double-jacobi").witness == "(dx, dx, dx)"


# -- conversion between presentations -------------------------------------


def test_dlr_to_linear_round_trip():
    for name, data in dlr_fixtures():
        spec = dlr_to_linear(data)
        back = linear_to_dlr(spec, data.bimodule)
        assert back == data, name


def test_dual_route_verdicts_agree():
    # own checker vs the generic double-bracket checker on the flattened spec
    for name, data in dlr_fixtures() + broken_dlr_fixtures():
        own = dlr_check(data, max_len=3).ok
        spec = dlr_to_linear(data)
        gen = run_bracket_checks(spec, max_len=3, necklace=False)
        generic = gen.entry("antisymmetry").passed and gen.entry("double-jacobi").passed
        assert own == generic, name


@st.composite
def graded_dlr_data(draw):
    """Base generators x(, y) and module generators m, n of degree 0 or 1,
    shift -2..1, small integer coefficients on legs of length <= 2.  The
    module bracket has the off-diagonal [m, n] rule only, so every [n, m]
    value comes from its antisymmetry partner."""
    bdeg = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    mdeg = draw(st.lists(st.integers(0, 1), min_size=2, max_size=2))
    bm = BimoduleSpec(FreeAlgebra(tuple(Generator(g, d) for g, d in zip("xy", bdeg))),
                      [Generator(g, d) for g, d in zip("mn", mdeg)])
    amb = bm.ambient
    r = draw(st.integers(-2, 1))
    base, module = list(bm.base_words(2)), list(bm.module_words(2))

    def value(i, j, left, right):
        want = amb.gens[i].degree + amb.gens[j].degree + r
        keys = [(u, v) for u in left for v in right if amb.degree(u) + amb.degree(v) == want]
        if not keys:
            return Tensor2(amb, {})
        return Tensor2(amb, draw(st.dictionaries(st.sampled_from(keys), st.integers(-2, 2),
                                                 max_size=3)))

    anchor = {(i, j): value(i, j, base, base)
              for i in amb.module_indices for j in amb.base_indices}
    m, n = amb.module_indices
    mbracket = {(m, n): (value(m, n, module, base), value(m, n, base, module))}
    return DLRData(bm, ShiftContext(r), anchor, mbracket)


@settings(max_examples=50, deadline=None)
@given(graded_dlr_data())
def test_dlr_evaluators_match_the_linear_bracket(d):
    # the dlr.py evaluators against BracketSpec.eval_words on the merged table
    spec = dlr_to_linear(d)
    mwords, bwords = list(d.bimodule.module_words(3)), list(d.bimodule.base_words(3))
    for w1 in mwords:
        for w2 in mwords:
            l, r = d.mb_eval(w1, w2)
            assert l + r == spec.eval_words(w1, w2)
        for wa in bwords:
            assert d.anchor_eval(w1, wa) == spec.eval_words(w1, wa)


def test_linear_to_dlr_rejects_higher_terms():
    with pytest.raises(ValueError, match="not a linear bracket"):
        linear_to_dlr(block("quadratic.dbr", "QB"), BimoduleSpec(FreeAlgebra(()), [Generator("m")]))


def test_linear_to_dlr_fills_missing_orientation():
    # store only (m, x); the (x, m) value must come from antisymmetry
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    amb = bm.ambient
    spec = BracketSpec(
        amb, ShiftContext(0), {("m", "x"): tensor2(amb, ("x", "1"), ("1", "x", -1))}
    )
    data = linear_to_dlr(spec, bm)
    assert data.anchor_gen("m", "x") is not None
    assert dlr_to_linear(data).eval_words(amb.word("x"), amb.word("m")) == spec.eval_words(
        amb.word("x"), amb.word("m")
    )


# -- classification -------------------------------------------------------


def test_classify_linear():
    spec = dlr_to_linear(block("koszul_f2.dbr", "K"))
    assert classify_bracket(spec) is BracketClass.LINEAR


def test_classify_zero():
    spec = dlr_to_linear(block("zero.dbr", "ZERO"))
    assert classify_bracket(spec) is BracketClass.CONSTANT
    assert bracket_is_zero(spec)


def test_classify_quadratic():
    assert classify_bracket(block("quadratic.dbr", "QB")) is BracketClass.QUADRATIC


def test_classify_requires_module_generators():
    with pytest.raises(ValueError, match="no module generators"):
        classify_bracket(block("f1.dbr", "B"))


# -- product tables -------------------------------------------------------


@pytest.mark.parametrize("name,bm,f,expected", product_fixtures())
def test_product_associativity_verdicts(name, bm, f, expected):
    rep = assoc_product_check(bm, f)
    assert rep.ok is expected, name


def test_nonassoc_witness_is_first_lex_triple():
    _, bm, f, _ = product_fixtures()[2]
    rep = assoc_product_check(bm, f)
    e = rep.entry("associativity")
    assert e.witness == "(e, g, g)"
    assert e.residual == "e"


def test_product_check_requires_trivial_base():
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    with pytest.raises(ValueError, match="base algebra must be trivial"):
        assoc_product_check(bm, {("m", "m"): "m"})
