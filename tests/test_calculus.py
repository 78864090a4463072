"""Noncommutative forms, the Koszul construction, and the double
Schouten-Nijenhuis bracket on derivations."""

from fractions import Fraction

import pytest

from dpoisson.core import FreeAlgebra, Generator, ShiftContext, Tensor2, tensor2
from dpoisson.brackets import necklace_bracket, render_cyclic, run_bracket_checks
from dpoisson.dlr import BracketClass, classify_bracket, dlr_check
from dpoisson.calculus import (
    DerPresentation,
    OmegaPresentation,
    double_partial,
    ev_pairing,
    koszul_bracket,
    koszul_square_check,
    lift_derivation,
    phi_composite,
    psi_composite,
    sn_bracket,
    universal_derivation,
)
from dpoisson.fixtures import koszul_f2_tables

from conftest import block


# -- forms and the universal derivation -----------------------------------


def test_omega_presentation_names_and_degrees():
    A = FreeAlgebra((Generator("x"), Generator("a", 1)))
    om = OmegaPresentation(A)
    names = [g.name for g in om.bimodule.mgens]
    assert names == ["dx", "da"]
    # d preserves degree
    assert om.bimodule.mgens[1].degree == 1


def test_omega_rejects_name_collision():
    A = FreeAlgebra((Generator("x"), Generator("dx")))
    with pytest.raises(ValueError, match="generator name collision: 'dx'"):
        OmegaPresentation(A)


def test_universal_derivation_leibniz():
    A = FreeAlgebra((Generator("x"),))
    om = OmegaPresentation(A)
    got = universal_derivation(om, A.word("x.x"))
    assert got.render() == "x.dx + dx.x"
    # d annihilates the unit
    assert not universal_derivation(om, ())


def test_universal_derivation_rejects_module_words():
    om = OmegaPresentation(FreeAlgebra((Generator("x"),)))
    amb = om.bimodule.ambient
    with pytest.raises(ValueError, match="not a base word"):
        universal_derivation(om, amb.word("dx"))


def test_lift_derivation_contraction():
    # i_h d on x.x reproduces {{x, x.x}} when h = {{x, -}}
    f2 = block("f2.dbr", "F2")
    A = f2.algebra
    om = OmegaPresentation(A)
    amb = om.bimodule.ambient
    h = {"x": Tensor2(amb, dict(f2.eval_words(A.word("x"), A.word("x")).terms))}
    contract = lift_derivation(om, h)
    got = contract(universal_derivation(om, A.word("x.x")))
    assert got.render() == "- 1 (*) x.x + x.x (*) 1"
    want = f2.eval_words(A.word("x"), A.word("x.x"))
    assert got.terms == want.terms


def test_lift_derivation_rejects_mixed_values():
    A = FreeAlgebra((Generator("x"), Generator("y")))
    om = OmegaPresentation(A)
    amb = om.bimodule.ambient
    h = {"x": Tensor2(amb, {((), ()): Fraction(1)}), "y": amb.one()}
    with pytest.raises(ValueError, match="mixed value kinds"):
        lift_derivation(om, h)


# -- koszul construction --------------------------------------------------


def test_koszul_bracket_f2_oracle():
    d = koszul_bracket(block("f2.dbr", "F2"))
    amb = d.bimodule.ambient
    dx, x = amb.index("dx"), amb.index("x")
    assert d.anchor_gen(dx, x).render() == "- 1 (*) x + x (*) 1"
    l, r = d.mb_gen(dx, dx)
    assert l.render() == "dx (*) 1"
    assert r.render() == "- 1 (*) dx"


def test_koszul_bracket_f2_equals_hand_tables():
    assert koszul_bracket(block("f2.dbr", "F2")) == block("koszul_f2.dbr", "K")


def test_python_koszul_f2_tables_match_the_corpus():
    # perfbench/ checks its answers against this copy, which must not drift
    assert koszul_f2_tables() == block("koszul_f2.dbr", "K")
    assert koszul_f2_tables() == koszul_bracket(block("f2.dbr", "F2"))


def test_koszul_bracket_f1_oracle():
    d = koszul_bracket(block("f1.dbr", "B"))
    amb = d.bimodule.ambient
    assert d.anchor_gen(amb.index("dx"), amb.index("y")).render() == "1 (*) 1"
    assert d.anchor_gen(amb.index("dy"), amb.index("x")).render() == "- 1 (*) 1"
    # missing pairs evaluate to the zero tensor
    assert not d.anchor_gen(amb.index("dx"), amb.index("x"))
    l, r = d.mb_eval(amb.word("dx"), amb.word("dy"))
    assert not l and not r


def test_koszul_guard_rejects_non_poisson():
    with pytest.raises(ValueError, match="input is not double Poisson"):
        koszul_bracket(block("fail_jacobi.dbr", "BAD"))


def test_koszul_passes_all_dlr_conditions():
    for spec in [block("f1.dbr", "B"), block("f2.dbr", "F2")]:
        assert dlr_check(koszul_bracket(spec), max_len=3).ok


def test_koszul_square_check():
    for spec in [block("f1.dbr", "B"), block("f2.dbr", "F2")]:
        rep = koszul_square_check(spec, max_len=3)
        assert rep.ok
        assert rep.entries[0].axiom == "koszul-square"


def test_koszul_square_check_rejects_foreign_data():
    with pytest.raises(ValueError, match="does not present the forms"):
        koszul_square_check(block("f2.dbr", "F2"), data=block("idempotent.dbr", "IDEM"))


def test_graded_koszul_bracket_is_consistent():
    # |a| = 1, r = -2 exercises every graded sign path
    d = koszul_bracket(block("graded.dbr", "GB"))
    assert d.bimodule.mgens[0].degree == 1
    assert dlr_check(d, max_len=3).ok


# -- double derivations ---------------------------------------------------


def test_der_presentation_degrees():
    A = FreeAlgebra((Generator("x"), Generator("a", 1)))
    der = DerPresentation(A, ShiftContext(-2))
    names = {g.name: g.degree for g in der.bimodule.mgens}
    # |D_i| = -|x_i| - r
    assert names == {"Dx": 2, "Da": 1}


def test_double_partial_oracle():
    A = FreeAlgebra((Generator("a", 1),))
    der = DerPresentation(A)
    # |Da| = -1, so the second occurrence pays (-1)^{|Da| |a|}
    got = double_partial(der, 0, A.word("a.a"))
    assert got.render() == "1 (*) a - a (*) 1"


def test_double_partial_degree_zero():
    A = FreeAlgebra((Generator("x"),))
    der = DerPresentation(A)
    got = double_partial(der, 0, A.word("x.x"))
    assert got.render() == "1 (*) x + x (*) 1"


def test_ev_pairing_generator():
    A = FreeAlgebra((Generator("x"), Generator("y")))
    der = DerPresentation(A)
    amb = der.bimodule.ambient
    assert ev_pairing(der, amb.word("Dx"), A.word("x")).render() == "1 (*) 1"
    assert not ev_pairing(der, amb.word("Dx"), A.word("y"))


def test_ev_pairing_sandwiched():
    A = FreeAlgebra((Generator("x"),))
    der = DerPresentation(A)
    amb = der.bimodule.ambient
    # (x Dx)(x) = x (x) 1 under p t' (x) t'' q
    got = ev_pairing(der, amb.word("x.Dx"), A.word("x"))
    assert got.render() == "x (*) 1"


def test_closure_composites_vanish():
    A = FreeAlgebra((Generator("x"), Generator("y")))
    der = DerPresentation(A)
    amb = der.bimodule.ambient
    for t1 in ["Dx", "Dy"]:
        for t2 in ["Dx", "Dy"]:
            for a in ["x", "y"]:
                assert not phi_composite(der, amb.word(t1), amb.word(t2), A.word(a))
                assert not psi_composite(der, amb.word(t1), amb.word(t2), A.word(a))


def test_sn_bracket_oracle():
    spec = sn_bracket(FreeAlgebra((Generator("x"), Generator("y"))))
    amb = spec.algebra
    assert spec.elem(amb.index("Dx"), amb.index("x")).render() == "1 (*) 1"
    assert not spec.elem(amb.index("Dx"), amb.index("y"))
    assert not spec.eval_words(amb.word("Dx"), amb.word("Dy"))


def test_sn_bracket_is_linear_and_antisymmetric():
    spec = sn_bracket(FreeAlgebra((Generator("x"), Generator("y"))))
    assert classify_bracket(spec) is BracketClass.LINEAR
    rep = run_bracket_checks(spec, max_len=2, necklace=False)
    assert rep.entry("antisymmetry").passed


def test_sn_necklace_oracles():
    spec = sn_bracket(FreeAlgebra((Generator("x"),)))
    amb = spec.algebra
    got = necklace_bracket(spec, amb.word("Dx"), amb.word("x"))
    assert render_cyclic(amb, got) == "[1]"
    got = necklace_bracket(spec, amb.word("x"), amb.word("Dx"))
    assert render_cyclic(amb, got) == "- [1]"
    got = necklace_bracket(spec, amb.word("x.Dx"), amb.word("x"))
    assert render_cyclic(amb, got) == "[x]"
