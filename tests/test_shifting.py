"""Degree shifting of anchored module brackets and the equivalence of the
shifted and unshifted axiom verdicts."""

import pytest

from dpoisson.calculus import koszul_bracket
from dpoisson.dlr import dlr_check
from dpoisson.shifting import shift_dlr, verify_shift_equivalence

from conftest import block, broken_dlr_fixtures, dlr_fixtures


DELTAS = [-2, -1, 1, 2]


def test_shift_moves_module_degrees_and_r():
    d = block("koszul_f2.dbr", "K")
    s = shift_dlr(d, 1)
    assert s.shift.r == d.shift.r - 1
    assert [g.degree for g in s.bimodule.mgens] == [g.degree + 1 for g in d.bimodule.mgens]
    # base generators are untouched
    assert s.bimodule.base == d.bimodule.base


def test_shift_idempotent_tables_oracle():
    # shifting e.e = e into degree 1 keeps both components: the right one,
    # - 1 (x) e, has an empty first leg, so its sign is +1 for every delta
    s = shift_dlr(block("idempotent.dbr", "IDEM"), 1)
    assert s.shift.r == -1
    amb = s.bimodule.ambient
    l, r = s.mb_gen(amb.index("e"), amb.index("e"))
    assert l.render() == "e (*) 1"
    assert r.render() == "- 1 (*) e"


def test_shift_signs_the_anchor_by_delta_times_r_plus_module_degree():
    # koszul of graded: |da| = 1, r = -2, so (-1)^(delta (r + |da|)) = -1
    # for delta = 1
    s = shift_dlr(koszul_bracket(block("graded.dbr", "GB")), 1)
    amb = s.bimodule.ambient
    assert s.anchor[(amb.index("da"), amb.index("a"))].render() == "- 1 (*) 1"


def test_shift_zero_delta_is_identity():
    for name, d in dlr_fixtures():
        assert shift_dlr(d, 0) == d, name


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize(
    "name,data", dlr_fixtures() + broken_dlr_fixtures()
)
def test_shift_involution_exact(name, data, delta):
    assert shift_dlr(shift_dlr(data, delta), -delta) == data


@pytest.mark.parametrize("delta", DELTAS)
def test_shift_composes_additively(delta):
    d = block("koszul_f2.dbr", "K")
    assert shift_dlr(shift_dlr(d, delta), 1) == shift_dlr(d, delta + 1)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name,data", dlr_fixtures())
def test_equivalence_on_good_fixtures(name, data, delta):
    rep = verify_shift_equivalence(data, delta, max_len=3)
    assert rep.ok, (name, delta)


@pytest.mark.parametrize("delta", [-1, 1, 2])
def test_equivalence_holds_on_broken_data(delta):
    # the shifted data fails exactly the same conditions as the unshifted
    for name, data in broken_dlr_fixtures():
        rep = verify_shift_equivalence(data, delta, max_len=3)
        assert rep.ok, (name, delta)


def test_equivalence_report_subject():
    rep = verify_shift_equivalence(block("zero.dbr", "ZERO"), 2, max_len=2)
    assert rep.subject == "shift-equivalence (delta 2)"
    assert [e.axiom for e in rep.entries] == [
        "a-antisymmetry",
        "anchor-properties",
        "b-derivation-compat",
        "c-anchor-jacobi",
        "d-double-jacobi",
    ]


def test_shifted_koszul_data_still_checks():
    # |dx| = 1, r = -1 exercises the graded sign paths end to end
    s = shift_dlr(block("koszul_f2.dbr", "K"), 1)
    assert s.bimodule.mgens[0].degree == 1
    assert dlr_check(s, max_len=3).ok


def test_shift_preserves_homogeneity_invariant():
    # every table entry of the shifted data revalidates on construction
    for name, data in dlr_fixtures():
        for delta in DELTAS:
            s = shift_dlr(data, delta)
            r = s.shift.r
            amb = s.bimodule.ambient
            for (i, j), t in s.anchor.items():
                want = amb.gens[i].degree + amb.gens[j].degree + r
                for (w1, w2) in t.terms:
                    assert amb.degree(w1) + amb.degree(w2) == want
