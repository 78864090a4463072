"""Core arithmetic: words, signs, polynomials, tensors, cyclic words."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpoisson.core import (
    Colour,
    FreeAlgebra,
    Generator,
    NCPoly,
    Tensor2,
    Tensor3,
    cyclic_class,
    inner,
    outer,
    poly_mul,
    sign_exp,
    tensor2,
)


def alg_xy():
    return FreeAlgebra((Generator("x"), Generator("y")))


def alg_graded():
    return FreeAlgebra((Generator("a", 1), Generator("b", 2)))


# -- signs ----------------------------------------------------------------


def test_sign_exp_parity():
    assert sign_exp(0, 0) == 1
    assert sign_exp(1, 1) == -1
    assert sign_exp(1, 2) == 1
    assert sign_exp(3, 5) == -1
    assert sign_exp(-1, 1) == -1


@pytest.mark.parametrize("degrees, odd", [((0, 2), False), ((-1,), True), ((2, 1), True)])
def test_has_odd_is_true_exactly_when_a_generator_is_odd(degrees, odd):
    A = FreeAlgebra(tuple(Generator(f"g{i}", d) for i, d in enumerate(degrees)))
    assert A.has_odd is odd


# -- words ----------------------------------------------------------------


def test_word_parse_render_roundtrip():
    A = alg_xy()
    for text in ["1", "x", "y", "x.y.x", "y.y"]:
        assert A.render_word(A.word(text)) == text


def test_word_unknown_generator():
    A = alg_xy()
    with pytest.raises(KeyError, match="unknown generator 'z'"):
        A.word("x.z")


def test_index_reads_names_and_indices():
    A = alg_xy()
    assert (A.index("y"), A.index(1)) == (1, 1)
    with pytest.raises(KeyError, match="unknown generator 'z'"):
        A.index("z")


def test_degree_additive_under_concatenation():
    A = alg_graded()
    w1, w2 = A.word("a.b"), A.word("b.a.a")
    assert A.degree(w1) == 3
    assert A.degree(w2) == 4
    assert A.degree(w1 + w2) == A.degree(w1) + A.degree(w2)


def test_weight_counts_module_letters():
    A = FreeAlgebra((Generator("x"), Generator("m", 0, Colour.MODULE)))
    assert A.weight(A.word("x.m.x")) == 1
    assert A.weight(A.word("m.m")) == 2
    assert A.weight(()) == 0


def test_words_up_to_count_and_order():
    A = alg_xy()
    ws = list(A.words_up_to(2))
    # 1 + 2 + 4
    assert len(ws) == 7
    assert ws[0] == ()
    assert ws[1] == A.word("x")
    # deterministic: two runs identical
    assert ws == list(A.words_up_to(2))


def test_words_up_to_letter_restriction():
    A = FreeAlgebra((Generator("x"), Generator("m", 0, Colour.MODULE)))
    base_only = list(A.words_up_to(2, letters=[0]))
    assert all(A.weight(w) == 0 for w in base_only)
    assert len(base_only) == 3


# -- polynomials ----------------------------------------------------------


def test_poly_add_cancels_to_zero():
    A = alg_xy()
    p = A.monomial("x.y")
    assert not (p + p.scale(Fraction(-1)))


def test_poly_mul_unit():
    A = alg_xy()
    p = A.monomial("x.y", Fraction(2, 3))
    assert poly_mul(A.one(), p) == p
    assert poly_mul(p, A.one()) == p


def test_poly_render():
    A = alg_xy()
    p = A.poly({A.word("x"): Fraction(1), A.word("y.x"): Fraction(-2)})
    assert p.render() == "x - 2 * y.x"


def small_polys(alg):
    words = st.lists(st.integers(0, len(alg.gens) - 1), max_size=3).map(tuple)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return st.dictionaries(words, coeffs, max_size=3).map(alg.poly)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_mul_associative(data):
    A = alg_xy()
    p = data.draw(small_polys(A))
    q = data.draw(small_polys(A))
    r = data.draw(small_polys(A))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_mul_distributes(data):
    A = alg_xy()
    p = data.draw(small_polys(A))
    q = data.draw(small_polys(A))
    r = data.draw(small_polys(A))
    assert poly_mul(p, q + r) == poly_mul(p, q) + poly_mul(p, r)


def test_integral_coefficients_are_stored_as_int():
    A = alg_xy()
    x, xy = A.word("x"), A.word("x.y")
    assert type(A.monomial("x.y", Fraction(4, 2)).terms[xy]) is int
    assert type(A.one().terms[()]) is int
    half = A.monomial("x", Fraction(1, 2))
    assert type(half.terms[x]) is Fraction
    # arithmetic that lands on an integer stores an int again
    assert type((half + half).terms[x]) is int
    assert type(half.scale(Fraction(4, 3)).terms[x]) is Fraction
    assert type(half.scale(4).terms[x]) is int
    assert type(half.scale(2.0).terms[x]) is int  # never a float
    assert type(poly_mul(half, A.monomial("y", 2)).terms[A.word("x.y")]) is int
    t = tensor2(A, ("x", "1", Fraction(6, 3)), ("1", "x", "1/3"))
    assert type(t.terms[(x, ())]) is int
    assert t.terms[((), x)] == Fraction(1, 3)
    assert type(Tensor3(A, {(x, (), ()): Fraction(-3, 3)}).terms[(x, (), ())]) is int
    # equal values, equal rendering, whichever type holds them
    assert A.monomial("x", Fraction(2)) == A.monomial("x", 2)
    assert A.monomial("x", Fraction(-2)).render() == "- 2 * x"


def test_signs_are_ints():
    A = alg_graded()
    assert type(sign_exp(1, 1)) is int
    assert type(cyclic_class(A, A.word("b.a"))[1]) is int


# -- tensors --------------------------------------------------------------


def test_tensor2_builder_and_render():
    A = alg_xy()
    t = tensor2(A, ("x", "1"), ("1", "x", -1))
    assert t.render() == "- 1 (*) x + x (*) 1"


def test_tensor2_add_scale():
    A = alg_xy()
    t = tensor2(A, ("x", "y"))
    assert not (t + t.scale(Fraction(-1)))
    assert t.scale(Fraction(2)).terms[(A.word("x"), A.word("y"))] == 2


def test_tensor3_is_zero_on_empty():
    A = alg_xy()
    assert not Tensor3(A, {})
    assert Tensor3(A, {(A.word("x"), (), ()): Fraction(1)})


def test_render_terms_sorted_by_length_then_word():
    A = alg_xy()
    t = tensor2(A, ("y.x", "1"), ("x", "1"))
    # shorter first leg sorts first
    assert t.render() == "x (*) 1 + y.x (*) 1"


def test_render_terms_past_the_digit_limit():
    # the interpreter's default int/str digit limit (4300) stays in force
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    A = alg_xy()
    big = "1" + "0" * 4999 + "7"
    assert A.monomial("x", 10**5000 + 7).render() == f"{big} * x"
    # 5000 digits above and below the bar, coprime
    num, den = 10**4999 + 1, 10**4999 + 3
    q = "1" + "0" * 4998 + "1/" + "1" + "0" * 4998 + "3"
    t = tensor2(A, ("x", "y", Fraction(-num, den)), ("1", "1", 2))
    assert t.render() == f"2 * 1 (*) 1 - {q} * x (*) y"
    assert sys.get_int_max_str_digits() == limit


# -- signed leg permutation -------------------------------------------------


@st.composite
def graded_tensors(draw, legs):
    """A random 2- or 3-leg tensor over generators of degree -1..2: all-even
    algebras of nonzero degree take the unsigned path, odd negative degrees
    the signed one."""
    degs = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))
    A = FreeAlgebra(tuple(Generator(f"g{i}", d) for i, d in enumerate(degs)))
    word = st.lists(st.integers(0, len(degs) - 1), max_size=3).map(tuple)
    terms = draw(st.dictionaries(st.tuples(*[word] * legs),
                                 st.integers(-3, 3).filter(bool), max_size=5))
    return (Tensor2 if legs == 2 else Tensor3)(A, terms)


def tensors_with_orders():
    return st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(
        graded_tensors(n), st.permutations(range(n)), st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(tensors_with_orders())
def test_permute_inverse_is_identity(case):
    t, p, _ = case
    inverse = tuple(sorted(range(len(p)), key=lambda i: p[i]))
    assert t.permute(p).permute(inverse) == t


@settings(max_examples=60, deadline=None)
@given(tensors_with_orders(), st.sampled_from([1, -1, Fraction(2, 3)]))
def test_permute_composes(case, c):
    t, p, q = case
    composed = tuple(p[i] for i in q)
    assert t.permute(p).permute(q) == t.permute(composed)
    assert t.permute(p, c) == t.permute(p).scale(c)


@settings(max_examples=60, deadline=None)
@given(graded_tensors(2))
def test_permute_swap_matches_explicit_formula(t):
    # tau: u (x) v -> (-1)^(|u||v|) v (x) u
    deg = t.algebra.degree
    want = Tensor2(t.algebra, {(v, u): sign_exp(deg(u), deg(v)) * c
                               for (u, v), c in t.terms.items()})
    assert t.permute((1, 0)) == want


@st.composite
def tensors_with_actors(draw):
    """A nonzero 2-leg tensor over an algebra with a generator of nonzero
    degree, odd or even, and two words p, q over that algebra."""
    t = draw(graded_tensors(2).filter(lambda t: t and any(g.degree for g in t.algebra.gens)))
    word = st.lists(st.integers(0, len(t.algebra.gens) - 1), max_size=3).map(tuple)
    return t, draw(word), draw(word)


@settings(max_examples=60, deadline=None)
@given(tensors_with_actors(), st.sampled_from([1, -1, Fraction(2, 3)]))
def test_bimodule_actions_match_explicit_formulas(case, c):
    # outer: p (u (x) v) q = pu (x) vq; the inner action is the outer one
    # conjugated by the signed swap tau: p * (u (x) v) * q = tau(p tau(u (x) v) q)
    t, p, q = case
    want = Tensor2(t.algebra, {(p + u, v + q): c * a for (u, v), a in t.terms.items()})
    assert Tensor2(t.algebra, outer({}, t, p, q, c)) == want
    swapped = Tensor2(t.algebra, outer({}, t.permute((1, 0)), p, q, c)).permute((1, 0))
    assert Tensor2(t.algebra, inner({}, t, p, q, c)) == swapped


@settings(max_examples=60, deadline=None)
@given(graded_tensors(3))
def test_permute_rotation_matches_explicit_formula(t):
    # (P1,P2,P3) -> (-1)^(|P1|(|P2|+|P3|)) (P2,P3,P1)
    deg = t.algebra.degree
    want = Tensor3(t.algebra, {(p2, p3, p1): sign_exp(deg(p1), deg(p2) + deg(p3)) * c
                               for (p1, p2, p3), c in t.terms.items()})
    assert t.permute((1, 2, 0)) == want


# -- cyclic words ---------------------------------------------------------


def test_cyclic_class_rotation_invariant():
    A = alg_xy()
    w = A.word("y.x.x")
    canon, sign = cyclic_class(A, w)
    assert canon == A.word("x.x.y")
    assert sign == 1
    for rot in [A.word("x.y.x"), A.word("x.x.y")]:
        assert cyclic_class(A, rot) == (canon, Fraction(1))


def test_cyclic_class_unit_rejected():
    A = alg_xy()
    with pytest.raises(ValueError):
        cyclic_class(A, ())


def test_cyclic_class_graded_sign():
    # one odd letter: rotating a.a past itself costs -1, so [a.a] = -[a.a]
    A = FreeAlgebra((Generator("a", 1),))
    assert cyclic_class(A, A.word("a.a")) is None
    # a single letter is its own class
    assert cyclic_class(A, A.word("a")) == (A.word("a"), Fraction(1))


def test_cyclic_class_even_degree_never_torsion():
    A = FreeAlgebra((Generator("b", 2),))
    got = cyclic_class(A, A.word("b.b"))
    assert got == (A.word("b.b"), Fraction(1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
def test_cyclic_class_idempotent(letters):
    # every letter has degree 0, so no class is killed by its rotation signs
    A = alg_xy()
    w = tuple(letters)
    canon, sign = cyclic_class(A, w)
    canon2, sign2 = cyclic_class(A, canon)
    assert canon2 == canon
    assert sign2 == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_cyclic_class_consistent_across_rotations(letters):
    A = FreeAlgebra((Generator("a", 1), Generator("b", 2)))
    w = tuple(letters)
    ref = cyclic_class(A, w)
    deg = A.degree
    cur, sign = w, Fraction(1)
    for _ in range(len(w)):
        last, rest = cur[-1], cur[:-1]
        sign *= sign_exp(deg((last,)), deg(rest))
        cur = (last,) + rest
        got = cyclic_class(A, cur)
        if ref is None:
            assert got is None
        else:
            canon, s = ref
            assert got is not None and got[0] == canon
