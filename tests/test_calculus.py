"""Noncommutative forms, the Koszul construction, and the double
Schouten-Nijenhuis bracket on derivations."""

import pytest

from dpoisson.core import Colour, FreeAlgebra, Generator, ShiftContext
from dpoisson.brackets import (
    check_necklace_jacobi,
    necklace_bracket,
    render_cyclic,
    run_bracket_checks,
)
from dpoisson.dlr import dlr_check, linear_to_dlr
from dpoisson.calculus import (
    DerPresentation,
    OmegaPresentation,
    double_partial,
    koszul_bracket,
    koszul_square_check,
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


@pytest.mark.parametrize("build", [OmegaPresentation, DerPresentation])
def test_presentations_reject_module_generators_in_the_base(build):
    A = FreeAlgebra((Generator("x"), Generator("m", 0, Colour.MODULE)))
    with pytest.raises(ValueError, match="base algebra must have BASE generators only"):
        build(A)


def test_module_generator_in_the_base_reports_its_name_collision():
    # the prefixed name is checked before the bimodule is built
    A = FreeAlgebra((Generator("x"), Generator("dx", 0, Colour.MODULE)))
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


def test_sn_bracket_oracle():
    spec = sn_bracket(FreeAlgebra((Generator("x"), Generator("y"))))
    amb = spec.algebra
    assert spec.elem(amb.index("Dx"), amb.index("x")).render() == "1 (*) 1"
    assert not spec.elem(amb.index("Dx"), amb.index("y"))
    assert not spec.eval_words(amb.word("Dx"), amb.word("Dy"))


SN_CASES = [  # (|x|, |y|, r); the odd shifts exercise the signs of the suite
    (0, 0, 0),
    (1, 0, -1),
    (1, 0, 0),
    (0, 1, 1),
    (1, 1, -2),
]
SUITE = ["antisymmetry", "extension-order", "double-jacobi", "jacobi-cyclic-stability",
         "left-leibniz", "necklace-representativity", "necklace-jacobi"]


def test_sn_bracket_is_linear_and_antisymmetric():
    for dx, dy, r in SN_CASES:
        base = FreeAlgebra((Generator("x", dx), Generator("y", dy)))
        spec = sn_bracket(base, ShiftContext(r))
        # linear: linear_to_dlr rejects any other table
        linear_to_dlr(spec, DerPresentation(base, ShiftContext(r)).bimodule)
        rep = run_bracket_checks(spec, max_len=2)
        assert [e.line() for e in rep.entries] == [f"{a}: PASS" for a in SUITE], (dx, dy, r)


def test_sn_necklace_oracles():
    spec = sn_bracket(FreeAlgebra((Generator("x"),)))
    amb = spec.algebra
    got = necklace_bracket(spec, amb.word("Dx"), amb.word("x"))
    assert render_cyclic(amb, got) == "[1]"
    got = necklace_bracket(spec, amb.word("x"), amb.word("Dx"))
    assert render_cyclic(amb, got) == "- [1]"
    got = necklace_bracket(spec, amb.word("x.Dx"), amb.word("x"))
    assert render_cyclic(amb, got) == "[x]"


@pytest.mark.parametrize("r", [0, -2])
def test_sn_necklace_jacobi_on_an_odd_generator(r):
    # the sign (-1)^((r+|a|)(r+|b|)) of necklace Jacobi is -1 on [x], [Dx]
    # here; replaced by 1 it leaves 2 * [1] at ([x], [Dx], [x.Dx])
    spec = sn_bracket(FreeAlgebra((Generator("x", 1),)), ShiftContext(r))
    assert [e.line() for e in check_necklace_jacobi(spec, 3).entries] == [
        "necklace-representativity: PASS",
        "necklace-jacobi: PASS",
    ]
