"""Shifted double brackets defined by generator tables.

A bracket {{-,-}} of shift r is given on generator pairs and extended to all
words by the derivation rules; the unit in either slot gives zero.  The
evaluator splits the first slot first; check_extension_order verifies,
rather than assumes, that the second-slot rule holds on its values.

Sign conventions (one suspension symbol of degree r on each slot, one on the
output).  The rules are written with the two actions of `core` on A (x) A:
the outer action p Y q and the inner action p * Y * q, which carries its
own Koszul sign; the signs written below are those of the rules.

  left rule, splitting the first slot at its first letter g, w1 = g u:
    {{g u, c}} = g * {{u, c}} + (-1)^(|u|(r+|c|)) {{g, c}} * u

  right rule, splitting the second slot at its first letter h, w2 = h v:
    {{a, h v}} = {{a, h}} v + (-1)^(|h|(r+|a|)) h {{a, v}}

  antisymmetry: {{a,b}} = -(-1)^((r+|a|)(r+|b|)) tau({{b,a}}) where tau is
  the signed leg swap u (x) v -> (-1)^(|u||v|) v (x) u.

The axiom checks run on the integral multiple of the table
(`BracketSpec.integral`): the table times D, the least common denominator
of its coefficients, so their kernels multiply ints, not Fractions.  Every
identity checked is homogeneous in the bracket, so the multiple fails on
exactly the same inputs, and each residual is D^k times the true one,
scaled back by 1/D^k before it is rendered: k = 1 for antisymmetry and
extension order, k = 2 for double Jacobi, cyclic stability, left Leibniz
and necklace Jacobi.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, Tuple

from .core import (
    FreeAlgebra,
    NCPoly,
    Scalar,
    ShiftContext,
    Tensor2,
    Tensor3,
    Word,
    _clean,
    add_into,
    bilinear,
    cyclic_class,
    inner,
    outer,
    render_terms,
    sign_exp,
)
from .reports import CheckReport


def antisym_partner(t: Tensor2, d_first: int, d_second: int, r: int) -> Tensor2:
    """Given t = {{b,a}}, return {{a,b}} forced by antisymmetry.

    d_first, d_second are the degrees of a and b (the output orientation).
    """
    return t.permute((1, 0), -sign_exp(r + d_first, r + d_second))


class BracketSpec:
    """Generator table for a shifted double bracket.

    table maps generator-index pairs to Tensor2 values.  Missing pairs are
    zero.  If both orientations of an off-diagonal pair are given they must
    agree with antisymmetry; a single stored orientation has its partner
    synthesized on demand.  Diagonal entries are taken as given: whether
    {{x,x}} is actually antisymmetric is what check_antisymmetry decides.
    """

    def __init__(self, algebra: FreeAlgebra, shift: ShiftContext, table: Dict):
        self.algebra = algebra
        self.shift = shift
        self.table: Dict[Tuple[int, int], Tensor2] = {}
        for key, val in table.items():
            i, j = map(algebra.index, key)
            if not val:
                continue
            if val.algebra != algebra:
                raise ValueError("incompatible algebras")
            self.table[(i, j)] = val
        self._validate()
        self._cache: dict = {}
        self._integral = None  # () when the table is integral, else (multiple, D)

    def __eq__(self, other):
        return (
            isinstance(other, BracketSpec)
            and self.algebra == other.algebra
            and self.shift == other.shift
            and self.table == other.table
        )

    def _validate(self):
        alg, r = self.algebra, self.shift.r
        for (i, j), val in self.table.items():
            want = alg.gens[i].degree + alg.gens[j].degree + r
            if not val.is_homogeneous_of(want):
                raise ValueError(
                    f"bracket value for ({alg.gens[i].name}, {alg.gens[j].name}) "
                    f"must be homogeneous of degree {want}, got degrees {sorted(val.degrees())}"
                )
        for (i, j) in list(self.table):
            if i == j or (j, i) not in self.table:
                continue
            derived = antisym_partner(
                self.table[(j, i)], alg.gens[i].degree, alg.gens[j].degree, r
            )
            if derived != self.table[(i, j)]:
                raise ValueError(
                    f"entries for ({alg.gens[i].name}, {alg.gens[j].name}) and its "
                    f"transpose are inconsistent with antisymmetry"
                )

    def elem(self, i: int, j: int) -> Tensor2:
        """Generator-level bracket {{x_i, x_j}}, synthesizing the missing
        orientation by antisymmetry."""
        if (i, j) in self.table:
            return self.table[(i, j)]
        if (j, i) in self.table:
            alg, r = self.algebra, self.shift.r
            return antisym_partner(
                self.table[(j, i)], alg.gens[i].degree, alg.gens[j].degree, r
            )
        return Tensor2(self.algebra, {})

    def integral(self) -> tuple:
        """(multiple, D): D is the least common denominator of the table's
        coefficients and multiple a spec of the same type holding the table
        times D; (self, 1) when D is 1.  Computed once per spec, so the
        checks run on one spec share the multiple's evaluator cache."""
        if self._integral is None:
            d = math.lcm(*(c.denominator for t in self.table.values() for c in t.terms.values()))
            self._integral = () if d == 1 else (type(self)(
                self.algebra, self.shift, {k: t.scale(d) for k, t in self.table.items()}), d)
        return self._integral or (self, 1)

    # -- word-level evaluation -------------------------------------------

    def eval_words(self, w1: Word, w2: Word) -> Tensor2:
        """{{w1, w2}}, splitting the first slot while it has two or more letters."""
        cache = self._cache
        hit = cache.get((w1, w2))
        if hit is not None:
            return hit
        # a stack, not recursion, so no word is too long: a path of keys, each
        # read by the one below, the top evaluated once both its reads are cached
        stack = [(w1, w2)]
        while stack:
            a, b = stack[-1]
            if not a or not b:
                out = Tensor2(self.algebra, {})
            elif len(a) == 1 and len(b) == 1:
                out = self.elem(a[0], b[0])
            else:
                left = len(a) > 1
                r1, r2 = ((a[1:], b), (a[:1], b)) if left else ((a, b[:1]), (a, b[1:]))
                if r1 not in cache:
                    stack.append(r1)
                    continue
                if r2 not in cache:
                    stack.append(r2)
                    continue
                out = (self._left_rule if left else self._right_rule)(a, b, cache[r1], cache[r2])
            cache[stack.pop()] = out
        return out

    def _left_rule(self, w1: Word, w2: Word, tail: Tensor2, head: Tensor2) -> Tensor2:
        """{{g u, w2}} = g * tail + (-1)^(|u|(r+|w2|)) head * u, from
        tail = {{u, w2}} and head = {{g, w2}}."""
        deg = self.algebra.degree
        g, u = w1[:1], w1[1:]
        terms = inner({}, tail, p=g)
        return Tensor2(self.algebra, inner(terms, head, q=u,
                                          c=sign_exp(deg(u), self.shift.r + deg(w2))))

    def _right_rule(self, w1: Word, w2: Word, head: Tensor2, tail: Tensor2) -> Tensor2:
        """{{w1, h v}} = head v + (-1)^(|h|(r+|w1|)) h tail, from
        head = {{w1, h}} and tail = {{w1, v}}."""
        deg = self.algebra.degree
        h, v = w2[:1], w2[1:]
        terms = outer({}, head, q=v)
        return Tensor2(self.algebra, outer(terms, tail, p=h,
                                          c=sign_exp(deg(h), self.shift.r + deg(w1))))


def _first_term_words(spec: BracketSpec, wa: Word, wb: Word, wc: Word) -> dict:
    """Raw terms of {{wa, {{wb,wc}}'}} (x) {{wb,wc}}'' in legs (1,2) (x) 3."""
    out: dict = {}
    for (y1, y2), cy in spec.eval_words(wb, wc).terms.items():
        for (p1, p2), cp in spec.eval_words(wa, y1).terms.items():
            key = (p1, p2, y2)
            out[key] = out.get(key, 0) + cy * cp
    return out


def _orbit_jacobiators(spec: BracketSpec, wa: Word, wb: Word, wc: Word) -> tuple:
    """Raw jacobiators of the rotations (wa, wb, wc), (wc, wa, wb), (wb, wc, wa).

    Rotation m adds to its first term F_m the terms F_m+1 and F_m+2 with
    output legs rotated once and twice, p1 (x) p2 (x) p3 -> p2 (x) p3 (x) p1.
    The first term of (x, y, z) is walked once, straight from the evaluator:
    each term y1 (x) y2 of {{y, z}} and p1 (x) p2 of {{x, y1}} add their
    product at p1 (x) p2 (x) y2 into their own jacobiator and, rotated, into
    the other two.  The leg signs of the rotations are computed only on an
    algebra with an odd generator; on any other they are +1."""
    alg, r = spec.algebra, spec.shift.r
    deg, odd, ev = alg.degree, alg.has_odd, spec.eval_words
    a, b, c = deg(wa) + r, deg(wb) + r, deg(wc) + r  # shifted slot degrees
    # rotation n, of shifted degrees (A, B, C), takes F_n+1 with the sign
    # s[n] = (-1)^((A+B)C) and F_n+2 with (-1)^(A(B+C)) = s[n - 1]
    s = (sign_exp(a + b, c), sign_exp(c + a, b), sign_exp(b + c, a))
    jacs = ({}, {}, {})
    for m, (x, y, z) in enumerate(((wa, wb, wc), (wc, wa, wb), (wb, wc, wa))):
        # F_m is the F_n+1 of rotation n = m - 1 and the F_n+2 of n = m - 2
        own, once, twice = jacs[m], jacs[m - 1], jacs[m - 2]
        s_once, s_twice = s[m - 1], s[m]
        for (y1, y2), cy in ev(y, z).terms.items():
            d3 = deg(y2) if odd else 0
            for (p1, p2), cp in ev(x, y1).terms.items():
                cf = cy * cp
                key = (p1, p2, y2)
                own[key] = own.get(key, 0) + cf
                c_once, c_twice = s_once * cf, s_twice * cf
                if odd:
                    d1, d2 = deg(p1), deg(p2)
                    c_once *= sign_exp(d1, d2 + d3)
                    c_twice *= sign_exp(d1 + d2, d3)
                key = (p2, y2, p1)
                once[key] = once.get(key, 0) + c_once
                key = (y2, p1, p2)
                twice[key] = twice.get(key, 0) + c_twice
    return jacs


def double_jacobiator(spec: BracketSpec, a: NCPoly, b: NCPoly, c: NCPoly) -> Tensor3:
    """Three-term cyclic sum whose vanishing is the double Jacobi identity,
    from its definition and independently of the orbit kernel of
    check_double_jacobi, so that each tests the other:

      J(a, b, c) = F(a, b, c) + (-1)^((A+B)C) rot F(c, a, b)
                              + (-1)^((B+C)A) rot^2 F(b, c, a)

    F is the first term {{a, {{b, c}}'}} (x) {{b, c}}''.  Input rotations
    move whole shifted slots, of degrees A, B, C = |x| + r; the signed leg
    rotation rot, p1 (x) p2 (x) p3 -> p2 (x) p3 (x) p1, acts on plain
    algebra factors.
    """
    alg, r = spec.algebra, spec.shift.r
    for x in (a, b, c):
        if x.algebra != alg:
            raise ValueError("incompatible algebras")
    for x in (a, b, c):
        if len(x.degrees()) > 1:
            raise ValueError("inhomogeneous input (Koszul signs undefined)")

    def words(wa: Word, wb: Word, wc: Word) -> dict:
        A, B, C = (alg.degree(w) + r for w in (wa, wb, wc))
        F = [Tensor3(alg, _first_term_words(spec, *t))
             for t in ((wa, wb, wc), (wc, wa, wb), (wb, wc, wa))]
        return (F[0] + F[1].permute((1, 2, 0), sign_exp(A + B, C))
                + F[2].permute((2, 0, 1), sign_exp(B + C, A))).terms

    return Tensor3(alg, add_into({}, (
        (key, ca * cb * cc * cf)
        for wa, ca in a.terms.items() for wb, cb in b.terms.items() for wc, cc in c.terms.items()
        for key, cf in words(wa, wb, wc).items()
    )))


def _leibniz_words(spec: BracketSpec, w1: Word, w2: Word) -> dict:
    """Raw terms of {w1, w2}: the two legs of {{w1, w2}} multiplied together."""
    return add_into({}, ((u + v, c) for (u, v), c in spec.eval_words(w1, w2).terms.items()))


def leibniz_bracket(spec: BracketSpec, a: NCPoly, b: NCPoly) -> NCPoly:
    """{a,b} := multiply the two legs of {{a,b}} together, extended
    bilinearly from words."""
    if a.algebra != spec.algebra or b.algebra != spec.algebra:
        raise ValueError("incompatible algebras")
    return NCPoly(spec.algebra,
                  bilinear({}, functools.partial(_leibniz_words, spec), a.terms, b.terms))


def necklace_bracket(spec: BracketSpec, w1: Word, w2: Word) -> Dict[Word, Scalar]:
    """Bracket of two cyclic word classes, as a map canonical word -> coeff.

    Evaluates the Leibniz bracket on the given representatives and projects
    every output word to its cyclic class; rotation-killed classes drop out,
    the empty word keys the unit class.
    """
    for w in (w1, w2):
        if not w:
            raise ValueError("unit has no cyclic class")
    return project_cyclic(spec.algebra, NCPoly(spec.algebra, _leibniz_words(spec, w1, w2)))


def project_cyclic(alg: FreeAlgebra, p: NCPoly) -> Dict[Word, Scalar]:
    out: Dict[Word, Scalar] = {}
    for w, c in p.terms.items():
        if not w:
            out[()] = out.get((), 0) + c
            continue
        cls = cyclic_class(alg, w)
        if cls is None:
            continue
        key, s = cls
        out[key] = out.get(key, 0) + s * c
    return _clean(out)


def render_cyclic(alg: FreeAlgebra, m: Dict[Word, Scalar]) -> str:
    """A map cyclic class -> coefficient, each class rendered as ``[w]``."""
    return render_terms(alg, m, legs=1, cyclic=True)


# -- axiom checks --------------------------------------------------------


def _word_pairs(alg: FreeAlgebra, max_len: int):
    words = list(alg.words_up_to(max_len))
    return itertools.product(words, words)


def check_antisymmetry(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    spec, d = spec.integral()
    alg, r = spec.algebra, spec.shift.r

    def failures():
        for w1, w2 in _word_pairs(alg, max_len):
            d1, d2 = alg.degree(w1), alg.degree(w2)
            res = spec.eval_words(w1, w2) + spec.eval_words(w2, w1).permute(
                (1, 0), sign_exp(r + d1, r + d2)
            )
            if res:
                yield alg.render_words(w1, w2), res.scale(Fraction(1, d)).render()

    return CheckReport("antisymmetry", max_len).first_failure("antisymmetry", failures())


def check_extension_order(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    """The evaluator's values obey the right rule: {{w1, h v}} is the right
    rule of {{w1, h}} and {{w1, v}} for w1 != 1.  This is the agreement of
    the first-slot-first and second-slot-first expansions: each pair either
    one reads has a shorter slot, so it comes earlier in product order; by
    induction the rule holds before a pair exactly when the expansions
    agree there, and at the first failure both residuals are one tensor.
    It only shows that the two rules commute: both expansions send a
    single-letter first slot through the right rule, so a right rule off by
    a constant factor passes here (antisymmetry catches it)."""
    spec, d = spec.integral()
    alg = spec.algebra
    ev = spec.eval_words

    def failures():
        for w1, w2 in _word_pairs(alg, max_len):
            if w1 and len(w2) > 1:
                diff = ev(w1, w2) - spec._right_rule(w1, w2, ev(w1, w2[:1]), ev(w1, w2[1:]))
                if diff:
                    yield alg.render_words(w1, w2), diff.scale(Fraction(1, d)).render()

    return CheckReport("extension-order", max_len).first_failure("extension-order", failures())


def check_double_jacobi(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    """Double Jacobi on word triples, then the cyclic stability of the
    jacobiator; unlike the other checks it evaluates every triple, once per
    orbit of the rotation (a, b, c) -> (c, a, b), whose three jacobiators
    share their three first terms."""
    spec, d = spec.integral()
    alg, r = spec.algebra, spec.shift.r
    words = list(alg.words_up_to(max_len))
    degs = [alg.degree(w) + r for w in words]  # shifted slot degrees
    n = len(words)
    # (word positions, residual) of the least failing triple of each entry:
    # the least positions are the first triple in enumeration order
    nonzero = unstable = None
    for i in range(n):
        for j in range(i, n):
            for k in range(i if j == i else i + 1, n):
                jacs = _orbit_jacobiators(spec, words[i], words[j], words[k])
                if not any(map(any, map(dict.values, jacs))):
                    continue
                orbit = ((i, j, k), (k, i, j), (j, k, i))
                vals = [Tensor3(alg, jac) for jac in jacs]
                # the jacobiator must be fixed by the signed cyclic rotation
                # of inputs and output legs simultaneously (output legs are
                # bare algebra factors, so their rotation pays no shift);
                # the rotation of orbit[m] is orbit[m + 1]
                for m, (t, val) in enumerate(zip(orbit, vals)):
                    if val and (nonzero is None or t < nonzero[0]):
                        nonzero = t, val
                    s_in = sign_exp(degs[t[0]] + degs[t[1]], degs[t[2]])
                    other = vals[(m + 1) % 3].permute((1, 2, 0), s_in)
                    if val != other and (unstable is None or t < unstable[0]):
                        unstable = t, val - other

    def found(least) -> list:
        return [] if least is None else [
            (alg.render_words(*(words[p] for p in least[0])),
             least[1].scale(Fraction(1, d * d)).render())]

    rep = CheckReport("double-jacobi", max_len)
    rep.first_failure("double-jacobi", found(nonzero))
    return rep.first_failure("jacobi-cyclic-stability", found(unstable))


def check_left_leibniz(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    """{a,{b,c}} = {{a,b},c} + (-1)^((r+|a|)(r+|b|)) {b,{a,c}} on words."""
    spec, d = spec.integral()
    back = Fraction(1, d * d)
    alg, r = spec.algebra, spec.shift.r
    words = list(alg.words_up_to(max_len))

    lb = functools.cache(functools.partial(_leibniz_words, spec))

    def failures():
        # row i evaluates (i, j, k) and its swap (j, i, k) for every j >= i
        # from the shared terms {a,{b,c}} and {b,{a,c}} (the sign is
        # symmetric in a and b); a swap failure waits in later[j], in
        # enumeration order, for row j, which it precedes
        later: list = [[] for _ in words]
        for i, wa in enumerate(words):
            for wb, wc, res in later[i]:
                yield alg.render_words(wa, wb, wc), res.scale(back).render()
            for j in range(i, len(words)):
                wb = words[j]
                s = sign_exp(r + alg.degree(wa), r + alg.degree(wb))
                for wc in words:
                    a_bc = bilinear({}, lb, {wa: 1}, lb(wb, wc))
                    b_ac = a_bc if j == i else bilinear({}, lb, {wb: 1}, lb(wa, wc))
                    res = bilinear(dict(a_bc), lb, lb(wa, wb), {wc: 1}, -1)
                    for w, c in b_ac.items():
                        res[w] = res.get(w, 0) - s * c
                    if any(res.values()):
                        yield alg.render_words(wa, wb, wc), NCPoly(alg, res).scale(back).render()
                    if j != i:
                        res = bilinear(dict(b_ac), lb, lb(wb, wa), {wc: 1}, -1)
                        for w, c in a_bc.items():
                            res[w] = res.get(w, 0) - s * c
                        if any(res.values()):
                            later[j].append((wa, wc, NCPoly(alg, res)))

    return CheckReport("left-leibniz", max_len).first_failure("left-leibniz", failures())


def check_necklace_jacobi(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    spec, d = spec.integral()
    alg, r = spec.algebra, spec.shift.r
    words = [w for w in alg.words_up_to(max_len) if w]
    # necklace_bracket once per pair; its values are only read, and the
    # bracket with the unit class vanishes
    @functools.cache
    def nb(w1: Word, w2: Word) -> dict:
        return necklace_bracket(spec, w1, w2) if w1 and w2 else {}

    # representative independence: one rotation step in either slot changes
    # the result by exactly the rotation sign
    def misrepresented():
        for w1, w2 in itertools.product(words, words):
            base = nb(w1, w2)
            for slot, w in ((0, w1), (1, w2)):
                if len(w) < 2:
                    continue
                rot = (w[-1],) + w[:-1]
                s = sign_exp(alg.degree((w[-1],)), alg.degree(w[:-1]))
                got = nb(rot if slot == 0 else w1, w2 if slot == 0 else rot)
                scaled = {k: s * v for k, v in got.items()}
                if scaled != base:
                    yield f"{alg.render_words(w1, w2)} slot {slot + 1}", None

    rep = CheckReport("necklace", max_len)
    rep.first_failure("necklace-representativity", misrepresented())

    classes = []
    seen = set()
    for w in words:
        cls = cyclic_class(alg, w)
        if cls is None or cls[0] in seen:
            continue
        seen.add(cls[0])
        classes.append(cls[0])

    def failures():
        # {a,{b,c}} = {{a,b},c} + s {b,{a,c}} on classes
        for a, b, c in itertools.product(classes, classes, classes):
            s = sign_exp(r + alg.degree(a), r + alg.degree(b))
            res = bilinear(bilinear({}, nb, {a: 1}, nb(b, c)), nb, nb(a, b), {c: 1}, -1)
            res = _clean(bilinear(res, nb, {b: 1}, nb(a, c), -s))
            if res:
                yield (f"([{alg.render_word(a)}], [{alg.render_word(b)}], [{alg.render_word(c)}])",
                       render_cyclic(alg, _clean({k: Fraction(v, d * d) for k, v in res.items()})))

    return rep.first_failure("necklace-jacobi", failures())


def run_bracket_checks(spec: BracketSpec, max_len: int = 3,
                       necklace: bool = True) -> CheckReport:
    """Full axiom suite for one bracket, merged into a single report."""
    rep = CheckReport("bracket", max_len)
    rep.merge(check_antisymmetry(spec, max_len))
    rep.merge(check_extension_order(spec, max_len))
    rep.merge(check_double_jacobi(spec, max_len))
    rep.merge(check_left_leibniz(spec, max_len))
    if necklace:
        rep.merge(check_necklace_jacobi(spec, max_len))
    return rep
