"""Double bracket evaluation, the axiom checkers, and the necklace bracket.

Expected values in this file were first computed by hand with Sweedler
components and only then frozen here; the suite fails if the evaluator
drifts from them.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dpoisson import brackets
from dpoisson.calculus import sn_bracket
from dpoisson.core import (FreeAlgebra, Generator, ShiftContext, Tensor2, Tensor3, cyclic_class,
                           exact_scalar, sign_exp, tensor2)
from dpoisson.dlr import dlr_to_linear
from dpoisson.brackets import (
    BracketSpec,
    antisym_partner,
    check_antisymmetry,
    check_double_jacobi,
    check_extension_order,
    check_left_leibniz,
    check_necklace_jacobi,
    double_jacobiator,
    leibniz_bracket,
    necklace_bracket,
    project_cyclic,
    render_cyclic,
    run_bracket_checks,
)

from conftest import block


# -- construction and validation ------------------------------------------


def test_spec_normalizes_keys_to_indices():
    f1 = block("f1.dbr", "B")
    assert list(f1.table.keys()) == [(0, 1)]


def test_transpose_derived_at_evaluation():
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    # {{y,x}} = -swap({{x,y}}) in degree 0, even though only (x,y) is stored
    assert f1.eval_words(A.word("y"), A.word("x")) == tensor2(A, ("1", "1", -1))


def test_spec_rejects_inhomogeneous_value():
    A = FreeAlgebra((Generator("x", 1), Generator("y", 1)))
    bad = tensor2(A, ("1", "1"), ("x", "1"))
    with pytest.raises(ValueError, match="homogeneous"):
        BracketSpec(A, ShiftContext(-2), {("x", "y"): bad})


def test_spec_rejects_inconsistent_transpose():
    A = FreeAlgebra((Generator("x"), Generator("y")))
    with pytest.raises(ValueError, match="transpose"):
        BracketSpec(
            A,
            ShiftContext(0),
            {("x", "y"): tensor2(A, ("1", "1")), ("y", "x"): tensor2(A, ("1", "1"))},
        )


def test_spec_unknown_generator_key():
    A = FreeAlgebra((Generator("x"),))
    with pytest.raises(KeyError):
        BracketSpec(A, ShiftContext(0), {("x", "z"): tensor2(A, ("1", "1"))})


@pytest.mark.parametrize("i", [5, -1])
def test_spec_rejects_an_index_out_of_range(i):
    # an out-of-range index is an unknown generator, like an unknown name;
    # -1 would otherwise key an entry that no lookup reads
    A = FreeAlgebra((Generator("x"),))
    with pytest.raises(KeyError, match=f"unknown generator {i}"):
        BracketSpec(A, ShiftContext(0), {(0, i): tensor2(A, ("1", "1"))})


def test_antisym_partner_degree_zero_is_negated_swap():
    A = FreeAlgebra((Generator("x"), Generator("y")))
    t = tensor2(A, ("x", "y"))
    got = antisym_partner(t, 0, 0, 0)
    assert got == tensor2(A, ("y", "x", -1))


def test_antisym_partner_shifted_sign():
    # r = -1, both degrees 0: overall sign -(-1)^{(-1)(-1)} = +1
    A = FreeAlgebra((Generator("x"),))
    t = tensor2(A, ("x", "1"))
    assert antisym_partner(t, 0, 0, -1) == t.permute((1, 0))


# -- evaluation oracles ---------------------------------------------------


def test_f1_eval_right_extension():
    # {{x, y.x}} = 1 (x) x by the right Leibniz extension
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    got = f1.eval_words(A.word("x"), A.word("y.x"))
    assert got == tensor2(A, ("1", "x"))
    assert got.render() == "1 (*) x"


def test_f1_eval_left_extension():
    # first-slot extension acts through the inner bimodule structure
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    assert f1.eval_words(A.word("x.y"), A.word("y")) == tensor2(A, ("y", "1"))
    assert f1.eval_words(A.word("x.y"), A.word("x")) == tensor2(A, ("1", "x", -1))


def test_f1_eval_unit_slot_vanishes():
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    assert not f1.eval_words((), A.word("x"))
    assert not f1.eval_words(A.word("x"), ())


def test_f2_eval_on_square():
    f2 = block("f2.dbr", "F2")
    A = f2.algebra
    # {{x, x.x}} = x.x (x) 1 - 1 (x) x.x  by the derivation rule
    got = f2.eval_words(A.word("x"), A.word("x.x"))
    assert got == tensor2(A, ("x.x", "1"), ("1", "x.x", -1))


def test_graded_eval_antisymmetry_sign():
    # |a| = 1, r = -2: {{a,a}} = 1 (x) 1 is its own antisymmetric partner
    g = block("graded.dbr", "GB")
    A = g.algebra
    val = g.eval_words(A.word("a"), A.word("a"))
    assert val == tensor2(A, ("1", "1"))
    assert antisym_partner(val, 1, 1, -2) == val


def recursion_keys(w1, w2, keys):
    """The cache keys a recursive evaluation of {{w1, w2}} fills: the key
    itself and, unless a slot is the unit or both are letters, the two keys
    its rule reads, splitting the first (left) slot when it has two or more
    letters."""
    if (w1, w2) in keys:
        return keys
    if w1 and w2 and (len(w1) > 1 or len(w2) > 1):
        if len(w1) > 1:
            reads = ((w1[1:], w2), (w1[:1], w2))
        else:
            reads = ((w1, w2[:1]), (w1, w2[1:]))
        for k in reads:
            recursion_keys(*k, keys)
    keys.add((w1, w2))
    return keys


# the ids keep the name of the expansion order, first slot first
@pytest.mark.parametrize("file,name", [("f1.dbr", "B"), ("graded.dbr", "GB"),
                                       ("quadratic.dbr", "QB")],
                         ids=["left-f1_spec", "left-graded_spec", "left-quadratic_spec"])
def test_eval_words_fills_the_recursion_keys(file, name):
    spec = block(file, name)
    words = list(spec.algebra.words_up_to(3))
    for w1, w2 in itertools.product(words, words):
        fresh = BracketSpec(spec.algebra, spec.shift, spec.table)
        fresh.eval_words(w1, w2)
        assert set(fresh._cache) == recursion_keys(w1, w2, set())


def test_jacobiator_f2_vanishes_on_generator_triple():
    f2 = block("f2.dbr", "F2")
    A = f2.algebra
    x = A.monomial("x")
    assert not double_jacobiator(f2, x, x, x)


def test_jacobiator_violator_residual():
    bad = block("fail_jacobi.dbr", "BAD")
    A = bad.algebra
    x, y = A.monomial("x"), A.monomial("y")
    got = double_jacobiator(bad, x, x, y)
    assert got.render() == "- x (*) x (*) y"


def test_jacobiator_rejects_inhomogeneous_input():
    spec = block("graded.dbr", "GB")
    A = spec.algebra
    a = A.monomial("a")
    with pytest.raises(ValueError, match="inhomogeneous input"):
        double_jacobiator(spec, a, a + A.one(), a)


def test_leibniz_bracket_oracle():
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    got = leibniz_bracket(f1, A.monomial("x"), A.monomial("x.y"))
    assert got == A.monomial("x")


# -- checker verdicts -----------------------------------------------------


def test_f1_full_suite_passes():
    rep = run_bracket_checks(block("f1.dbr", "B"), max_len=3)
    assert rep.ok
    names = [e.axiom for e in rep.entries]
    assert names == [
        "antisymmetry",
        "extension-order",
        "double-jacobi",
        "jacobi-cyclic-stability",
        "left-leibniz",
        "necklace-representativity",
        "necklace-jacobi",
    ]


def test_graded_suite_passes():
    assert run_bracket_checks(block("graded.dbr", "GB"), max_len=3).ok


def test_antisym_violator_signature():
    rep = run_bracket_checks(block("fail_antisym.dbr", "BAD"), max_len=3)
    e = rep.entry("antisymmetry")
    assert not e.passed
    assert e.witness == "(x, x)"
    assert e.residual == "2 * x (*) x"
    assert not rep.entry("double-jacobi").passed
    assert not rep.entry("left-leibniz").passed


def test_jacobi_violator_signature():
    rep = run_bracket_checks(block("fail_jacobi.dbr", "BAD"), max_len=3)
    assert rep.entry("antisymmetry").passed
    e = rep.entry("double-jacobi")
    assert not e.passed
    assert e.witness == "(x, x, y)"
    assert e.residual == "- x (*) x (*) y"


def test_quadratic_jacobiator_and_stability():
    rep = run_bracket_checks(block("quadratic.dbr", "QB"), max_len=3, necklace=False)
    e = rep.entry("double-jacobi")
    assert not e.passed
    assert e.witness == "(m, m, m)"
    assert e.residual == "3 * m (*) m (*) m"
    # the nonzero jacobiator is still cyclically stable
    assert rep.entry("jacobi-cyclic-stability").passed


def test_extension_order_checker_runs_both_orders():
    assert check_extension_order(block("f1.dbr", "B"), max_len=3).ok
    assert check_extension_order(block("f2.dbr", "F2"), max_len=3).ok


def test_checkers_respect_max_len():
    rep = check_antisymmetry(block("f1.dbr", "B"), max_len=1)
    assert rep.max_len == 1 and rep.ok


# -- necklace bracket -----------------------------------------------------


def test_necklace_oracle_f1():
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    got = necklace_bracket(f1, A.word("x"), A.word("y"))
    assert got == {(): Fraction(1)}
    assert render_cyclic(A, got) == "[1]"
    # antisymmetry of the induced Lie bracket
    assert necklace_bracket(f1, A.word("y"), A.word("x")) == {(): Fraction(-1)}


def test_necklace_depends_only_on_class():
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    w = A.word("x.y")
    for rot in [A.word("x.y"), A.word("y.x")]:
        assert necklace_bracket(f1, rot, A.word("x")) == necklace_bracket(f1, w, A.word("x"))


def test_project_cyclic_merges_rotations():
    A = FreeAlgebra((Generator("x"), Generator("y")))
    p = A.monomial("x.y") + A.monomial("y.x")
    got = project_cyclic(A, p)
    assert got == {A.word("x.y"): Fraction(2)}


def test_necklace_jacobi_check_passes_f1():
    assert check_necklace_jacobi(block("f1.dbr", "B"), max_len=3).ok


def test_left_leibniz_residual_on_violator():
    rep = check_left_leibniz(block("fail_antisym.dbr", "BAD"), max_len=3)
    e = rep.entry("left-leibniz")
    assert not e.passed
    assert e.residual == "- 2 * x.x.x"


# -- properties -----------------------------------------------------------


def words_of(alg, max_len=2):
    return st.lists(st.integers(0, len(alg.gens) - 1), max_size=max_len).map(tuple)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_antisymmetry_closure_under_extension(data):
    # the evaluator extension preserves the generator-level antisymmetry
    spec = block("f1.dbr", "B")
    A = spec.algebra
    w1 = data.draw(words_of(A))
    w2 = data.draw(words_of(A))
    lhs = spec.eval_words(w1, w2)
    rhs = antisym_partner(
        spec.eval_words(w2, w1), A.degree(w1), A.degree(w2), spec.shift.r
    )
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_unit_annihilates_bracket(data):
    spec = block("f2.dbr", "F2")
    w = data.draw(words_of(spec.algebra, 3))
    assert not spec.eval_words((), w)
    assert not spec.eval_words(w, ())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_eval_scales_bilinearly(c1, c2):
    spec = block("f1.dbr", "B")
    A = spec.algebra
    base = spec.eval_words(A.word("x"), A.word("y.x"))
    scaled = BracketSpec(
        A,
        spec.shift,
        {("x", "y"): spec.table[(0, 1)].scale(Fraction(c1 * c2))},
    )
    got = scaled.eval_words(A.word("x"), A.word("y.x"))
    assert got == base.scale(Fraction(c1 * c2))


@st.composite
def same_degree_sums(draw, alg, max_len=2):
    """A sum of one to three words of one degree and length <= max_len, with
    nonzero rational coefficients."""
    by_degree = {}
    for w in alg.words_up_to(max_len):
        by_degree.setdefault(alg.degree(w), []).append(w)
    words = by_degree[draw(st.sampled_from(sorted(by_degree)))]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return alg.poly(draw(st.dictionaries(st.sampled_from(words), coeffs,
                                         min_size=1, max_size=3)))


# the jacobiators of f1 and graded vanish; fail_jacobi's do not
@pytest.mark.parametrize("file, name", [("f1.dbr", "B"), ("graded.dbr", "GB"),
                                        ("fail_jacobi.dbr", "BAD")])
@pytest.mark.parametrize("f, slots", [(leibniz_bracket, 2), (double_jacobiator, 3)],
                         ids=["leibniz_bracket", "double_jacobiator"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_linear_in_each_slot_on_sums(file, name, f, slots, data):
    # f on sums is the coefficient-weighted sum of f on their words
    spec = block(file, name)
    A = spec.algebra
    sums = [data.draw(same_degree_sums(A)) for _ in range(slots)]
    want = f(spec, *(A.zero() for _ in range(slots)))
    for picks in itertools.product(*(p.terms.items() for p in sums)):
        c = math.prod(cw for _, cw in picks)
        want = want + f(spec, *(A.poly({w: 1}) for w, _ in picks)).scale(c)
    assert f(spec, *sums) == want


NON_INTEGRAL = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(
    lambda c: c.denominator != 1)


def random_tables(alg):
    """Integral generator tables {{x_i, x_j}} for i <= j; the transposes
    are synthesized by antisymmetry."""
    words = st.lists(st.integers(0, len(alg.gens) - 1), max_size=1).map(tuple)
    value = st.dictionaries(st.tuples(words, words), st.integers(-2, 2), max_size=3)
    pairs = [(i, j) for i in range(len(alg.gens)) for j in range(i, len(alg.gens))]
    return st.fixed_dictionaries(
        {p: value.map(lambda t: Tensor2(alg, t)) for p in pairs})


def scaled_spec(spec, c):
    return BracketSpec(spec.algebra, spec.shift,
                       {k: v.scale(c) for k, v in spec.table.items()})


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rational_scaling_keeps_verdicts(data):
    # every axiom residual is a polynomial without constant term in the
    # table, so scaling by a nonzero c cannot change which inputs fail
    A = FreeAlgebra((Generator("x"), Generator("y")))
    spec = BracketSpec(A, ShiftContext(0), data.draw(random_tables(A)))
    c = data.draw(NON_INTEGRAL)
    base = run_bracket_checks(spec, max_len=2)
    scaled = run_bracket_checks(scaled_spec(spec, c), max_len=2)
    assert scaled.verdict_vector() == base.verdict_vector()
    assert [e.witness for e in scaled.entries] == [e.witness for e in base.entries]


@settings(max_examples=10, deadline=None)
@given(NON_INTEGRAL)
def test_rational_scaling_of_jacobi_residual(c):
    spec = block("fail_jacobi.dbr", "BAD")
    A = spec.algebra
    x, y = A.gen("x"), A.gen("y")
    got = check_double_jacobi(scaled_spec(spec, c), max_len=2).entry("double-jacobi")
    assert got.witness == "(x, x, y)"
    assert got.residual == double_jacobiator(spec, x, x, y).scale(c * c).render()
    assert got.residual == f"- {c * c} * x (*) x (*) y"


# -- double Jacobi, one rotation orbit at a time ---------------------------


# coefficients of drawn tables: a table with a non-integral one is checked
# on its integral multiple, and the references below evaluate it as drawn
RATIONAL = st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 3), 1, Fraction(3, 2), 2])


@st.composite
def homogeneous_specs(draw, coefficients=RATIONAL):
    """Tables on one or two generators of degree -1..2, shift -2..1, with
    small coefficients on leg words of length <= 2; {{x_i, x_j}} is drawn
    for i <= j and the transposes are synthesized by antisymmetry.  The
    degrees give all-even algebras of nonzero degree, on which the kernels
    skip their leg signs, and odd generators of negative degree."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=2))
    A = FreeAlgebra(tuple(Generator(n, d) for n, d in zip("xy", degrees)))
    r = draw(st.integers(-2, 1))
    legs = list(A.words_up_to(2))
    table = {}
    for i, j in itertools.combinations_with_replacement(range(len(degrees)), 2):
        keys = [(u, v) for u in legs for v in legs
                if A.degree(u) + A.degree(v) == degrees[i] + degrees[j] + r]
        if keys:
            table[(i, j)] = Tensor2(A, draw(st.dictionaries(
                st.sampled_from(keys), coefficients, max_size=3)))
    return BracketSpec(A, ShiftContext(r), table)


def test_integral_multiple_is_memoised():
    f1 = block("f1.dbr", "B")
    assert f1.integral() == (f1, 1) and f1.integral()[0] is f1
    odd = block("rational.dbr", "ODD")
    multiple, d = odd.integral()
    assert d == 6 and odd.integral()[0] is multiple
    assert multiple.table == {k: t.scale(6) for k, t in odd.table.items()}
    assert all(type(c) is int for t in multiple.table.values() for c in t.terms.values())
    sub = type("Sub", (BracketSpec,), {})(odd.algebra, odd.shift, odd.table)
    assert type(sub.integral()[0]) is type(sub)


def reference_antisymmetry(spec, max_len):
    """The antisymmetry entry straight from eval_words of the table as
    drawn, on every word pair in product order: the first nonzero residual
    {{a,b}} minus the partner antisymmetry forces from {{b,a}}, or None."""
    A, r = spec.algebra, spec.shift.r
    words = list(A.words_up_to(max_len))
    for w1, w2 in itertools.product(words, words):
        res = spec.eval_words(w1, w2) - antisym_partner(
            spec.eval_words(w2, w1), A.degree(w1), A.degree(w2), r)
        if res:
            return A.render_words(w1, w2), res.render()
    return None


@settings(max_examples=40, deadline=None)
@given(homogeneous_specs())
def test_antisymmetry_matches_eval_words_on_every_pair(spec):
    e = check_antisymmetry(spec, max_len=2).entry("antisymmetry")
    assert (None if e.passed else (e.witness, e.residual)) == reference_antisymmetry(spec, 2)


def reference_double_jacobi(spec, max_len, bump=None):
    """Both double-Jacobi entries straight from double_jacobiator on every
    monomial triple in product order: the first nonzero jacobiator, and the
    first one not fixed by the signed rotation; None for a pass.  A bump
    (triple, key) adds 1 at key to the jacobiator of that triple."""
    A, r = spec.algebra, spec.shift.r
    words = list(A.words_up_to(max_len))
    jac = {t: double_jacobiator(spec, *(A.poly({w: 1}) for w in t))
           for t in itertools.product(words, repeat=3)}
    if bump is not None:
        t, key = bump
        jac[t] = jac[t] + Tensor3(A, {key: 1})

    def rotation_residual(t):
        d1, d2, d3 = (A.degree(w) + r for w in t)
        return jac[t] - jac[(t[2], t[0], t[1])].permute((1, 2, 0), sign_exp(d1 + d2, d3))

    nonzero = ((t, jac[t]) for t in jac)
    unstable = ((t, rotation_residual(t)) for t in jac)
    return [next(((A.render_words(*t), v.render()) for t, v in failing if v), None)
            for failing in (nonzero, unstable)]


# homogeneous_specs draws at most two generators; this table has three, e
# odd.  {{x, y}} fails double Jacobi (first at (x, x, y)), and {{x, x}},
# {{y, y}} and {{y, e}} vanish, so the orbit of (x, x, x) has no inner
# bracket
WIDE_A = FreeAlgebra((Generator("x"), Generator("y"), Generator("e", 1)))
WIDE = BracketSpec(WIDE_A, ShiftContext(0), {
    ("x", "y"): tensor2(WIDE_A, ("x", "y")),
    ("x", "e"): tensor2(WIDE_A, ("1", "e"), ("e", "x", 2)),
    ("e", "e"): tensor2(WIDE_A, ("e", "e"), ("x", "e.e", -1)),
})


@settings(max_examples=40, deadline=None)
@given(homogeneous_specs())
@example(WIDE)
def test_double_jacobi_matches_jacobiator_on_every_triple(spec):
    rep = check_double_jacobi(spec, max_len=2)
    got = [None if e.passed else (e.witness, e.residual) for e in rep.entries]
    assert got == reference_double_jacobi(spec, 2)


@pytest.mark.parametrize("triple", ["x, y, 1", "y, 1, x", "1, x, y", "y, x.y, x", "x, x, x"])
def test_cyclic_stability_witness_is_first_in_enumeration_order(monkeypatch, triple):
    # a jacobiator corrupted at one triple breaks stability there and at the
    # triple that rotates onto it, which its orbit may visit out of order
    f1 = block("f1.dbr", "B")
    A = f1.algebra
    bad = tuple(A.word(w) for w in triple.split(", "))
    orbit = brackets._orbit_jacobiators
    key = (A.word("x"), (), A.word("y"))
    # the kernel keys by word ids: the enumerated words are 0..n-1 in order
    ids = {w: p for p, w in enumerate(A.words_up_to(2))}
    bad_ids, key_ids = (tuple(ids[w] for w in ws) for ws in (bad, key))

    def corrupted(*args):
        jacs = orbit(*args)
        i, j, k = args[-3:]
        for jac, t in zip(jacs, ((i, j, k), (k, i, j), (j, k, i))):
            if t == bad_ids:
                jac[key_ids] = jac.get(key_ids, 0) + 1
        return jacs

    monkeypatch.setattr(brackets, "_orbit_jacobiators", corrupted)
    rep = check_double_jacobi(f1, max_len=2)
    assert ([(e.witness, e.residual) for e in rep.entries]
            == reference_double_jacobi(f1, 2, bump=(bad, key)))


def test_double_jacobi_first_terms_once_per_orbit(monkeypatch):
    # one orbit-kernel call walks the first terms of its three rotations:
    # n^3 - n triples lie in orbits of three and n in orbits of one, so n
    # words take (n^3 + 2n) / 3 calls, whose rotations cover every triple
    seen = []
    orbit = brackets._orbit_jacobiators

    def counted(*args):
        seen.append(args[-3:])  # the word ids of the orbit's least rotation
        return orbit(*args)

    monkeypatch.setattr(brackets, "_orbit_jacobiators", counted)
    spec = block("f1.dbr", "B")
    check_double_jacobi(spec, max_len=2)
    n = len(list(spec.algebra.words_up_to(2)))
    assert n == 7 and len(seen) == (n ** 3 + 2 * n) // 3 == 119
    assert len({r for a, b, c in seen for r in ((a, b, c), (c, a, b), (b, c, a))}) == n ** 3


# -- left Leibniz per swap orbit, necklace brackets once per pair -----------


def leibniz_residual(spec, t):
    """{a,{b,c}} - {{a,b},c} - s {b,{a,c}} at the word triple t, from
    leibniz_bracket."""
    A, r = spec.algebra, spec.shift.r
    a, b, c = (A.poly({w: 1}) for w in t)
    s = sign_exp(r + A.degree(t[0]), r + A.degree(t[1]))

    def lb(x, y):
        return leibniz_bracket(spec, x, y)

    return lb(a, lb(b, c)) - lb(lb(a, b), c) - lb(b, lb(a, c)).scale(s)


def reference_left_leibniz(spec, max_len):
    """The left-leibniz entry straight from leibniz_bracket on every monomial
    triple in product order: the first nonzero residual, or None."""
    A = spec.algebra
    for t in itertools.product(A.words_up_to(max_len), repeat=3):
        res = leibniz_residual(spec, t)
        if res:
            return A.render_words(*t), res.render()
    return None


# {{x, x}} = 1 (x) 1 is not antisymmetric, so the left Leibniz residuals of
# (a, b, c) and (b, a, c) differ, and the first failing triple (x.x, x, x)
# is the swap partner of (x, x.x, x), evaluated in an earlier row
SWAP_FIRST = BracketSpec(FreeAlgebra((Generator("x"),)), ShiftContext(0),
                         {(0, 0): tensor2(FreeAlgebra((Generator("x"),)), ("1", "1"))})


@settings(max_examples=40, deadline=None)
@given(homogeneous_specs())
@example(SWAP_FIRST)
@example(WIDE)
def test_left_leibniz_matches_leibniz_bracket_on_every_triple(spec):
    e = check_left_leibniz(spec, max_len=2).entry("left-leibniz")
    assert (None if e.passed else (e.witness, e.residual)) == reference_left_leibniz(spec, 2)


def test_quadratic_checks_evaluate_each_pair_once(monkeypatch):
    # the id tables ask eval_words (double Jacobi) and _leibniz_words (left
    # Leibniz) once per pair of words; a per-term lookup would ask again
    calls = []
    ev, lw = BracketSpec.eval_words, brackets._leibniz_words

    def counted_ev(spec, w1, w2):
        calls.append((w1, w2))
        return ev(spec, w1, w2)

    def counted_lw(spec, w1, w2):
        calls.append((w1, w2))
        return lw(spec, w1, w2)

    monkeypatch.setattr(BracketSpec, "eval_words", counted_ev)
    check_double_jacobi(block("f1.dbr", "B"), max_len=2)
    assert calls and len(calls) == len(set(calls))
    monkeypatch.setattr(BracketSpec, "eval_words", ev)
    calls.clear()
    monkeypatch.setattr(brackets, "_leibniz_words", counted_lw)
    check_left_leibniz(block("f1.dbr", "B"), max_len=2)
    assert calls and len(calls) == len(set(calls))


def test_necklace_brackets_once_per_pair(monkeypatch):
    seen = []
    nb = brackets.necklace_bracket

    def counted(spec, w1, w2):
        seen.append((w1, w2))
        return nb(spec, w1, w2)

    monkeypatch.setattr(brackets, "necklace_bracket", counted)
    spec = block("f1.dbr", "B")
    check_necklace_jacobi(spec, max_len=2)
    # unmemoised, the check asks 669 times for these 36 pairs
    words = [w for w in spec.algebra.words_up_to(2) if w]
    assert len(seen) == len(set(seen)) == 36
    assert set(seen) == set(itertools.product(words, words))


# -- left Leibniz and necklace Jacobi from vanishing jacobiators ------------


def necklace_residual(spec, t):
    """The same residual at the classes of the words t, from necklace_bracket
    extended bilinearly to maps class -> coefficient; the unit class
    brackets to zero."""
    A, r = spec.algebra, spec.shift.r
    a, b, c = ({w: 1} for w in t)
    s = sign_exp(r + A.degree(t[0]), r + A.degree(t[1]))

    def nb(xs, ys):
        out = {}
        for (u, cu), (v, cv) in itertools.product(xs.items(), ys.items()):
            for w, cw in (necklace_bracket(spec, u, v) if u and v else {}).items():
                out[w] = out.get(w, 0) + cu * cv * cw
        return out

    out = {}
    for m, f in ((nb(a, nb(b, c)), 1), (nb(nb(a, b), c), -1), (nb(b, nb(a, c)), -s)):
        for w, cw in m.items():
            out[w] = out.get(w, 0) + f * cw
    return {w: exact_scalar(cw) for w, cw in out.items() if cw}


def classes_of(A, max_len):
    """Canonical words of the cyclic classes up to max_len, in the order
    their first representative is enumerated."""
    return list(dict.fromkeys(cls[0] for cls in (cyclic_class(A, w)
                                                 for w in A.words_up_to(max_len) if w) if cls))


def reference_necklace_jacobi(spec, max_len):
    """The necklace-jacobi entry straight from necklace_bracket on every
    class triple in product order: the first nonzero residual, or None."""
    A = spec.algebra
    for t in itertools.product(classes_of(A, max_len), repeat=3):
        res = necklace_residual(spec, t)
        if res:
            return "(" + ", ".join(f"[{A.render_word(w)}]" for w in t) + ")", render_cyclic(A, res)
    return None


def mu(t):
    """p1 (x) p2 (x) p3 -> p1 p2 p3, with no sign."""
    A = t.algebra
    return sum((A.poly({p1 + p2 + p3: c}) for (p1, p2, p3), c in t.terms.items()), A.poly({}))


def antisymmetric_diagonal(spec):
    """spec with each {{x, x}} = t replaced by t + the partner antisymmetry
    forces from it, which is antisymmetric; off the diagonal _validate and
    elem already make the table antisymmetric."""
    A, r = spec.algebra, spec.shift.r
    return BracketSpec(A, spec.shift, {
        (i, j): t + antisym_partner(t, A.gens[i].degree, A.gens[i].degree, r) if i == j else t
        for (i, j), t in spec.table.items()})


SN_ODD = sn_bracket(FreeAlgebra((Generator("x", 1),)), ShiftContext(-1))
# {{x, x}} = 1 (x) x is not antisymmetric; every jacobiator of words of length
# <= 1 vanishes, and left Leibniz fails at (x, x, x) with residual - x
ONE_X = FreeAlgebra((Generator("x"),))
DIAGONAL = BracketSpec(ONE_X, ShiftContext(0), {(0, 0): tensor2(ONE_X, ("1", "x"))})
# {{x, x}} = x (x) 1 - 1 (x) x is antisymmetric and every jacobiator vanishes,
# so left Leibniz passes with no enumeration only if the diagonal guard reads
# the sign of antisym_partner right
LINE = BracketSpec(ONE_X, ShiftContext(0), {(0, 0): tensor2(ONE_X, ("x", "1"), ("1", "x", -1))})


@settings(max_examples=10, deadline=None)
@given(homogeneous_specs().filter(lambda spec: spec.algebra.has_odd))
def test_left_leibniz_residual_is_the_product_of_two_jacobiators(spec):
    # Van den Bergh, Double Poisson algebras, section 2, with this code's
    # signs: on an antisymmetric table the left Leibniz residual at
    # (a, b, c) is mu J(a, b, c) - s mu J(b, a, c)
    spec = antisymmetric_diagonal(spec)
    A, r = spec.algebra, spec.shift.r
    triples = list(itertools.product(A.words_up_to(2), repeat=3))
    mu_jac = {t: mu(double_jacobiator(spec, *(A.poly({w: 1}) for w in t))) for t in triples}
    for a, b, c in triples:
        s = sign_exp(r + A.degree(a), r + A.degree(b))
        assert leibniz_residual(spec, (a, b, c)) == mu_jac[a, b, c] - mu_jac[b, a, c].scale(s)


@settings(max_examples=10, deadline=None)
@given(homogeneous_specs().filter(lambda spec: spec.algebra.has_odd))
def test_necklace_residual_is_the_cyclic_projection_of_left_leibniz(spec):
    A = spec.algebra
    for t in itertools.product(classes_of(A, 2), repeat=3):
        assert necklace_residual(spec, t) == project_cyclic(A, leibniz_residual(spec, t))


def fresh(spec):
    """A copy of spec that has run no check, so it holds no vanishing fact."""
    return type(spec)(spec.algebra, spec.shift, spec.table)


@settings(max_examples=30, deadline=None)
@given(homogeneous_specs(), st.integers(1, 2))
@example(block("f1.dbr", "B"), 2)
@example(WIDE, 2)
@example(SWAP_FIRST, 2)
@example(DIAGONAL, 1)  # passes double Jacobi, fails the diagonal guard
@example(LINE, 2)
@example(SN_ODD, 2)
@example(dlr_to_linear(block("koszul_f2.dbr", "K")), 2)
def test_left_leibniz_and_necklace_after_double_jacobi(spec, max_len):
    # on one spec the two checks may pass by the facts double Jacobi and
    # then left Leibniz record; each entry is still what the references find
    spec = fresh(spec)
    check_double_jacobi(spec, max_len)
    e = check_left_leibniz(spec, max_len).entry("left-leibniz")
    assert (None if e.passed else (e.witness, e.residual)) == reference_left_leibniz(spec, max_len)
    e = check_necklace_jacobi(spec, max_len).entry("necklace-jacobi")
    assert ((None if e.passed else (e.witness, e.residual))
            == reference_necklace_jacobi(spec, max_len))


@pytest.mark.parametrize("spec, max_len, enumerates", [
    (block("f1.dbr", "B"), 2, False),
    (SWAP_FIRST, 2, True),  # fails double Jacobi, {{x, x}} is not antisymmetric
    (block("fail_jacobi.dbr", "BAD"), 2, True),  # fails double Jacobi
    (DIAGONAL, 1, True),  # passes double Jacobi, {{x, x}} is not antisymmetric
    (LINE, 2, False),
], ids=["f1", "swap-first", "fail-jacobi", "diagonal", "line"])
def test_left_leibniz_enumerates_unless_the_jacobiators_vanish(monkeypatch, spec, max_len,
                                                               enumerates):
    spec, calls = fresh(spec), []
    lw = brackets._leibniz_words

    def counted(*args):
        calls.append(args)
        return lw(*args)

    check_double_jacobi(spec, max_len)
    monkeypatch.setattr(brackets, "_leibniz_words", counted)
    check_left_leibniz(spec, max_len)
    assert bool(calls) == enumerates
    # a fact at one length does not serve a longer one
    calls.clear()
    check_left_leibniz(spec, max_len + 1)
    assert calls


# -- extension order against the second-slot-first expansion ---------------


def reference_extension_order(spec, max_len):
    """The extension-order entry from a second-slot-first expansion, which
    splits the second slot when it has two or more letters and the first
    slot otherwise: the first pair in product order where it differs from
    spec.eval_words, as (witness, residual), or None."""
    A = spec.algebra

    @functools.cache
    def second_first(w1, w2):
        if not w1 or not w2:
            return Tensor2(A, {})
        if len(w2) > 1:
            return spec._right_rule(w1, w2, second_first(w1, w2[:1]),
                                    second_first(w1, w2[1:]))
        if len(w1) > 1:
            return spec._left_rule(w1, w2, second_first(w1[1:], w2),
                                   second_first(w1[:1], w2))
        return spec.elem(w1[0], w2[0])

    words = list(A.words_up_to(max_len))
    for w1, w2 in itertools.product(words, words):
        res = spec.eval_words(w1, w2) - second_first(w1, w2)
        if res:
            return A.render_words(w1, w2), res.render()
    return None


def drifted(spec, rule, at, drift=lambda t: t + tensor2(t.algebra, ("1", "1"))):
    """spec with the output t of its derivation rule `rule` (the method
    name) replaced by drift(t) at the word pair `at`; by default 1 (x) 1 is
    added."""
    plain = getattr(BracketSpec, rule)

    def rule_with_drift(self, w1, w2, x, y):
        out = plain(self, w1, w2, x, y)
        return drift(out) if (w1, w2) == at else out

    return type("Drifted", (BracketSpec,), {rule: rule_with_drift})(
        spec.algebra, spec.shift, spec.table)


@st.composite
def drifted_specs(draw, max_len=3):
    """A homogeneous spec, as drawn or with one rule drifted at a pair
    whose split slot has two or more letters.  Its coefficients are
    integers: the drift is added to a rule, not to the table, so it does
    not scale with the table as the check's integral multiple does."""
    spec = draw(homogeneous_specs(st.integers(-2, 2)))
    rule = draw(st.sampled_from([None, "_left_rule", "_right_rule"]))
    if rule is None:
        return spec
    words = [w for w in spec.algebra.words_up_to(max_len) if w]
    split = draw(st.sampled_from([w for w in words if len(w) > 1]))
    other = draw(st.sampled_from(words))
    return drifted(spec, rule, (split, other) if rule == "_left_rule" else (other, split))


@settings(max_examples=60, deadline=None)
@given(drifted_specs())
def test_extension_order_matches_the_second_slot_first_expansion(spec):
    e = check_extension_order(spec, max_len=3).entry("extension-order")
    assert (None if e.passed else (e.witness, e.residual)) == reference_extension_order(spec, 3)


def test_extension_order_residual_of_a_rational_table_is_scaled_back():
    # a left rule doubled at one pair drifts by an amount linear in the
    # table, so the check's integral multiple (D = 6) fails at the same
    # pair with 6 times the residual of the table as given
    spec = block("rational.dbr", "P")
    A = spec.algebra
    bad = drifted(spec, "_left_rule", (A.word("x.x"), A.word("x")), lambda t: t.scale(2))
    e = check_extension_order(bad, max_len=3).entry("extension-order")
    assert (e.witness, e.residual) == reference_extension_order(bad, 3)
    assert e.witness == "(x.x, x.x)"
    assert e.residual == ("1/2 * 1 (*) x.x.x + 1/2 * x (*) x.x"
                          " - 1/2 * x.x (*) x - 1/2 * x.x.x (*) 1")
