"""Anchored module brackets: validation, evaluation, the five-condition
checker, conversion to and from plain brackets, and product tables."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpoisson import dlr
from dpoisson.calculus import koszul_bracket
from dpoisson.core import (Colour, FreeAlgebra, Generator, ShiftContext, Tensor2, Tensor3,
                           sign_exp, tensor2)
from dpoisson.brackets import BracketSpec, run_bracket_checks
from dpoisson.dlr import (
    BimoduleSpec,
    DLRData,
    assoc_product_check,
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


@pytest.mark.parametrize("base, mgens", [("xy", "mn"), ("", "m")])
@pytest.mark.parametrize("max_len", [0, 1, 2, 3])
def test_module_words_order(base, mgens, max_len):
    # every weight-one word p m q, by length, then length of p, then p, m, q
    bm = BimoduleSpec(FreeAlgebra(tuple(map(Generator, base))), list(map(Generator, mgens)))
    amb = bm.ambient
    want = sorted((w for w in amb.words_up_to(max_len) if amb.weight(w) == 1),
                  key=lambda w: (len(w), list(map(amb.is_module, w)).index(True), w))
    assert list(bm.module_words(max_len)) == want


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
def graded_dlr_data(draw, max_base=2):
    """Base generators x(, y) and module generators m, n of degree 0 or 1,
    shift -2..1, small integer coefficients on legs of length <= 2.  The
    module bracket has the off-diagonal [m, n] rule only, so every [n, m]
    value comes from its antisymmetry partner.  At most max_base base
    generators."""
    bdeg = draw(st.lists(st.integers(0, 1), min_size=1, max_size=max_base))
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


# -- conditions (c) and (d) against their word-keyed references ---------


def reference_c_anchor_jacobi(d, max_len):
    """Every failure of (c) on (base, module, module) word triples in
    product order, keyed by words and asking the evaluators per term."""
    alg, r = d.bimodule.ambient, d.shift.r
    deg, odd = alg.degree, alg.has_odd

    def rho_tau(wa, wm):
        """The swapped anchor -tau rho tau."""
        return d.anchor_eval(wm, wa).permute((1, 0), -sign_exp(r + deg(wa), r + deg(wm)))

    mwords, bwords = list(d.bimodule.module_words(max_len)), list(d.bimodule.base_words(max_len))
    for wa, wm, wn in itertools.product(bwords, mwords, mwords):
        da, dm, dn = deg(wa), deg(wm), deg(wn)
        terms: dict = {}
        L, _R = d.mb_eval(wm, wn)
        for (u, v), c in L.terms.items():
            for (t1, t2), c2 in rho_tau(wa, u).terms.items():
                k3 = (t1, t2, v)
                terms[k3] = terms.get(k3, 0) + c * c2
        s2 = sign_exp(da + r, (dm + r) + (dn + r))
        for (p, q), c in d.anchor_eval(wn, wa).terms.items():
            for (t1, t2), c2 in d.anchor_eval(wm, p).terms.items():
                s = s2 * sign_exp(deg(t1) + deg(t2), deg(q)) if odd else s2
                k3 = (q, t1, t2)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        s3 = sign_exp((da + r) + (dm + r), dn + r)
        for (p, q), c in rho_tau(wa, wm).terms.items():
            for (t1, t2), c2 in d.anchor_eval(wn, p).terms.items():
                s = s3 * sign_exp(deg(t1), deg(t2) + deg(q)) if odd else s3
                k3 = (t2, q, t1)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        if any(terms.values()):
            yield alg.render_words(wa, wm, wn), Tensor3(alg, terms).render()


def reference_d_double_jacobi(d, max_len):
    """Every failure of (d) on module word triples in product order, keyed
    by words and asking the evaluators per term."""
    alg, r = d.bimodule.ambient, d.shift.r
    deg, odd = alg.degree, alg.has_odd
    mwords = list(d.bimodule.module_words(max_len))
    for w1, w2, w3 in itertools.product(mwords, mwords, mwords):
        d1, d2, d3 = deg(w1), deg(w2), deg(w3)
        terms = {}
        L23, _ = d.mb_eval(w2, w3)
        for (u, v), c in L23.terms.items():
            Lu, _ = d.mb_eval(w1, u)
            for (s1, t1), c2 in Lu.terms.items():
                k3 = (s1, t1, v)
                terms[k3] = terms.get(k3, 0) + c * c2
        s2 = sign_exp((d1 + r) + (d2 + r), d3 + r)
        L12, _ = d.mb_eval(w1, w2)
        for (u, v), c in L12.terms.items():
            _, Ru = d.mb_eval(w3, u)
            for (p, q), c2 in Ru.terms.items():
                s = s2 * sign_exp(deg(p), deg(q) + deg(v)) if odd else s2
                k3 = (q, v, p)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        s3 = sign_exp(d1 + r, (d2 + r) + (d3 + r))
        _, R31 = d.mb_eval(w3, w1)
        for (p, q), c in R31.terms.items():
            for (t1, t2), c2 in d.anchor_eval(w2, p).terms.items():
                s = s3 * sign_exp(deg(t1) + deg(t2), deg(q)) if odd else s3
                k3 = (q, t1, t2)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        if any(terms.values()):
            yield alg.render_words(w1, w2, w3), Tensor3(alg, terms).render()


def c_and_d_failures(d, max_len):
    """Every failure of the id-keyed (c) and (d) on one table, as dlr_check
    builds it."""
    mwords, bwords = list(d.bimodule.module_words(max_len)), list(d.bimodule.base_words(max_len))
    table = dlr._word_ids(d, mwords, bwords)
    return (list(dlr._c_anchor_jacobi(d, table, len(mwords), len(bwords))),
            list(dlr._d_double_jacobi(d, table, len(mwords))))


def reference_failures(d, max_len):
    return (list(reference_c_anchor_jacobi(d, max_len)),
            list(reference_d_double_jacobi(d, max_len)))


@settings(max_examples=25, deadline=None)
@given(graded_dlr_data())
def test_c_and_d_match_the_word_keyed_references(d):
    assert c_and_d_failures(d, 2) == reference_failures(d, 2)


# at length 3 a second base generator makes a failing table take seconds,
# most of it rendering thousands of failures, so the sample keeps one
@settings(max_examples=6, deadline=None)
@given(graded_dlr_data(max_base=1))
def test_c_and_d_match_the_word_keyed_references_at_length_3(d):
    assert c_and_d_failures(d, 3) == reference_failures(d, 3)


@pytest.mark.parametrize("max_len", [2, 3])
@pytest.mark.parametrize("make", [
    lambda: koszul_bracket(block("graded.dbr", "GB")),  # |a| = 1, r = -2
    lambda: block("flipped_anchor.dbr", "KBAD"),
    lambda: block("dropped_term.dbr", "KBAD"),
], ids=["koszul-graded", "flipped-anchor", "dropped-term"])
def test_c_and_d_match_the_word_keyed_references_on_fixtures(make, max_len):
    d = make()
    assert c_and_d_failures(d, max_len) == reference_failures(d, max_len)


def test_c_and_d_read_each_pair_once():
    # (c) and (d) ask mb_eval and anchor_eval once per pair of words and
    # read every later term from their pair tables; only outermost calls
    # count, as the evaluators recurse through themselves
    d = koszul_bracket(block("f1.dbr", "B"))
    calls = collections.Counter()
    depth = [0]

    def counted(name):
        fn = getattr(dlr.DLRData, name)

        def wrapper(self, *words):
            if not depth[0]:
                calls[name, words] += 1
            depth[0] += 1
            try:
                return fn(self, *words)
            finally:
                depth[0] -= 1
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("mb_eval", "anchor_eval"):
            mp.setattr(dlr.DLRData, name, counted(name))
        assert c_and_d_failures(d, 3) == ([], [])
    assert {name for name, _ in calls} == {"mb_eval", "anchor_eval"}
    assert max(calls.values()) == 1


def test_linear_to_dlr_rejects_higher_terms():
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("m")])
    amb = bm.ambient
    shapes = {  # one table that is not linear per shape
        "module pair of weight 0": {("m", "m"): tensor2(amb, ("1", "1"))},
        "nonzero base pair": {("x", "x"): tensor2(amb, ("x", "1"))},
        "anchor with a module leg": {("m", "x"): tensor2(amb, ("m", "1"))},
    }
    cases = [("quadratic module pair", block("quadratic.dbr", "QB"),
              BimoduleSpec(FreeAlgebra(()), [Generator("m")]))]
    cases += [(name, BracketSpec(amb, ShiftContext(0), table), bm)
              for name, table in shapes.items()]
    for name, spec, bimodule in cases:
        with pytest.raises(ValueError, match="not a linear bracket"):
            linear_to_dlr(spec, bimodule)
            pytest.fail(name)


def test_linear_to_dlr_fills_missing_orientation():
    # store only (x, m); the anchor value (m, x) must come from antisymmetry
    for dx, dm, r in [(0, 0, 0), (1, 0, 0), (1, 1, -1)]:
        bm = BimoduleSpec(FreeAlgebra((Generator("x", dx),)), [Generator("m", dm)])
        amb = bm.ambient
        x, m = amb.word("x"), amb.word("m")
        mx = tensor2(amb, ("x", "1"), ("1", "x", -1))
        xm = BracketSpec(amb, ShiftContext(r), {("m", "x"): mx}).eval_words(x, m)
        spec = BracketSpec(amb, ShiftContext(r), {("x", "m"): xm})
        data = linear_to_dlr(spec, bm)
        assert data.anchor_gen(amb.index("m"), amb.index("x")) == mx, (dx, dm, r)
        assert dlr_to_linear(data).eval_words(x, m) == spec.eval_words(x, m)


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


def test_product_check_rejects_a_value_off_the_generators():
    bm = BimoduleSpec(FreeAlgebra(()), [Generator("m")])
    with pytest.raises(ValueError, match=r"product value for \(m, m\) must be a "
                                         "combination of generators"):
        assoc_product_check(bm, {("m", "m"): bm.ambient.one()})
