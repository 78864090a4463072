"""Shifted double brackets defined by generator tables.

A bracket {{-,-}} of shift r is given on generator pairs and extended to all
words by the derivation rules; the unit in either slot gives zero.  Both
expansion orders (first slot first, or second slot first) are implemented so
their agreement can be verified rather than assumed.

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
"""

from __future__ import annotations

import functools
import itertools
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
            i, j = key
            if isinstance(i, str):
                i = algebra.index(i)
            if isinstance(j, str):
                j = algebra.index(j)
            if not val:
                continue
            if val.algebra != algebra:
                raise ValueError("incompatible algebras")
            self.table[(i, j)] = val
        self._validate()
        self._cache = {"left": {}, "right": {}}

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

    # -- word-level evaluation -------------------------------------------

    def eval_words(self, w1: Word, w2: Word, order: str = "left") -> Tensor2:
        cache = self._cache[order]
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
                left = (len(a) > 1 and order == "left") or len(b) == 1
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


def extend_bracket(spec: BracketSpec, a: NCPoly, b: NCPoly) -> Tensor2:
    """Bilinear extension of the generator table by the derivation rules."""
    if a.algebra != spec.algebra or b.algebra != spec.algebra:
        raise ValueError("incompatible algebras")
    out = Tensor2(spec.algebra, {})
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out = out + spec.eval_words(w1, w2).scale(c1 * c2)
    return out


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
    output legs rotated once and twice, p1 (x) p2 (x) p3 -> p2 (x) p3 (x) p1,
    so each first term is walked once and added into all three."""
    alg, r = spec.algebra, spec.shift.r
    deg = alg.degree
    a, b, c = deg(wa) + r, deg(wb) + r, deg(wc) + r  # shifted slot degrees
    # rotation n, of shifted degrees (A, B, C), takes F_n+1 with the sign
    # s[n] = (-1)^((A+B)C) and F_n+2 with (-1)^(A(B+C)) = s[n - 1]
    s = (sign_exp(a + b, c), sign_exp(c + a, b), sign_exp(b + c, a))
    jacs = ({}, {}, {})
    for m, t in enumerate(((wa, wb, wc), (wc, wa, wb), (wb, wc, wa))):
        # F_m is the F_n+1 of rotation n = m - 1 and the F_n+2 of n = m - 2
        own, once, twice = jacs[m], jacs[m - 1], jacs[m - 2]
        s_once, s_twice = s[m - 1], s[m]
        for key, cf in _first_term_words(spec, *t).items():
            own[key] = own.get(key, 0) + cf
            p1, p2, p3 = key
            d1, d2, d3 = deg(p1), deg(p2), deg(p3)
            key = (p2, p3, p1)
            once[key] = once.get(key, 0) + s_once * sign_exp(d1, d2 + d3) * cf
            key = (p3, p1, p2)
            twice[key] = twice.get(key, 0) + s_twice * sign_exp(d1 + d2, d3) * cf
    return jacs


def double_jacobiator(spec: BracketSpec, a: NCPoly, b: NCPoly, c: NCPoly) -> Tensor3:
    """Three-term cyclic sum whose vanishing is the double Jacobi identity.

    Input rotations move whole shifted slots (degree |x|+r); output leg
    rotations act on plain algebra factors.
    """
    for x in (a, b, c):
        if x.algebra != spec.algebra:
            raise ValueError("incompatible algebras")
    for x in (a, b, c):
        if len(x.degrees()) > 1:
            raise ValueError("inhomogeneous input (Koszul signs undefined)")
    out = Tensor3(spec.algebra, {})
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            for wc, cc in c.terms.items():
                val = Tensor3(spec.algebra, _orbit_jacobiators(spec, wa, wb, wc)[0])
                out = out + val.scale(ca * cb * cc)
    return out


def leibniz_bracket(spec: BracketSpec, a: NCPoly, b: NCPoly) -> NCPoly:
    """{a,b} := multiply the two legs of {{a,b}} together."""
    t = extend_bracket(spec, a, b)
    out: dict = {}
    for (u, v), c in t.terms.items():
        w = u + v
        out[w] = out.get(w, 0) + c
    return NCPoly(spec.algebra, out)


def necklace_bracket(spec: BracketSpec, w1: Word, w2: Word) -> Dict[Word, Scalar]:
    """Bracket of two cyclic word classes, as a map canonical word -> coeff.

    Evaluates the Leibniz bracket on the given representatives and projects
    every output word to its cyclic class; rotation-killed classes drop out,
    the empty word keys the unit class.
    """
    alg = spec.algebra
    for w in (w1, w2):
        if not w:
            raise ValueError("unit has no cyclic class")
    lb = leibniz_bracket(
        spec,
        NCPoly(alg, {w1: 1}),
        NCPoly(alg, {w2: 1}),
    )
    return project_cyclic(alg, lb)


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
    alg, r = spec.algebra, spec.shift.r

    def failures():
        for w1, w2 in _word_pairs(alg, max_len):
            d1, d2 = alg.degree(w1), alg.degree(w2)
            res = spec.eval_words(w1, w2) + spec.eval_words(w2, w1).permute(
                (1, 0), sign_exp(r + d1, r + d2)
            )
            if res:
                yield alg.render_words(w1, w2), res.render()

    return CheckReport("antisymmetry", max_len).first_failure("antisymmetry", failures())


def check_extension_order(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    """First-slot-first and second-slot-first expansions must agree.  This
    only shows that the two derivation rules commute: both orders send a
    single-letter first slot through the right rule, so a right rule off by
    a constant factor passes here (antisymmetry catches it)."""
    alg = spec.algebra

    def failures():
        for w1, w2 in _word_pairs(alg, max_len):
            diff = spec.eval_words(w1, w2, "left") - spec.eval_words(w1, w2, "right")
            if diff:
                yield alg.render_words(w1, w2), diff.render()

    return CheckReport("extension-order", max_len).first_failure("extension-order", failures())


def check_double_jacobi(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    """Double Jacobi on word triples, then the cyclic stability of the
    jacobiator; unlike the other checks it evaluates every triple, once per
    orbit of the rotation (a, b, c) -> (c, a, b), whose three jacobiators
    share their three first terms."""
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
            (alg.render_words(*(words[p] for p in least[0])), least[1].render())]

    rep = CheckReport("double-jacobi", max_len)
    rep.first_failure("double-jacobi", found(nonzero))
    return rep.first_failure("jacobi-cyclic-stability", found(unstable))


def check_left_leibniz(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    """{a,{b,c}} = {{a,b},c} + (-1)^((r+|a|)(r+|b|)) {b,{a,c}} on words."""
    alg, r = spec.algebra, spec.shift.r
    words = list(alg.words_up_to(max_len))

    @functools.cache
    def lb(wa: Word, wb: Word) -> dict:
        return add_into({}, ((u + v, c) for (u, v), c in spec.eval_words(wa, wb).terms.items()))

    def lb_wp(wa: Word, terms: dict) -> dict:
        out: dict = {}
        for wb, c in terms.items():
            for w, c2 in lb(wa, wb).items():
                out[w] = out.get(w, 0) + c * c2
        return out

    def lb_pw(terms: dict, wb: Word) -> dict:
        out: dict = {}
        for wa, c in terms.items():
            for w, c2 in lb(wa, wb).items():
                out[w] = out.get(w, 0) + c * c2
        return out

    def residual(a_bc: dict, ab_c: dict, b_ac: dict, s: int) -> dict:
        res = dict(a_bc)
        for terms, t in ((ab_c, -1), (b_ac, -s)):
            for w, c in terms.items():
                res[w] = res.get(w, 0) + t * c
        return res

    def failures():
        # row i evaluates (i, j, k) and its swap (j, i, k) for every j >= i
        # from the shared terms {a,{b,c}} and {b,{a,c}} (the sign is
        # symmetric in a and b); a swap failure waits in later[j], in
        # enumeration order, for row j, which it precedes
        later: list = [[] for _ in words]
        for i, wa in enumerate(words):
            for wb, wc, res in later[i]:
                yield alg.render_words(wa, wb, wc), res.render()
            for j in range(i, len(words)):
                wb = words[j]
                s = sign_exp(r + alg.degree(wa), r + alg.degree(wb))
                for wc in words:
                    a_bc = lb_wp(wa, lb(wb, wc))
                    b_ac = a_bc if j == i else lb_wp(wb, lb(wa, wc))
                    res = residual(a_bc, lb_pw(lb(wa, wb), wc), b_ac, s)
                    if any(res.values()):
                        yield alg.render_words(wa, wb, wc), NCPoly(alg, res).render()
                    if j != i:
                        res = residual(b_ac, lb_pw(lb(wb, wa), wc), a_bc, s)
                        if any(res.values()):
                            later[j].append((wa, wc, NCPoly(alg, res)))

    return CheckReport("left-leibniz", max_len).first_failure("left-leibniz", failures())


def check_necklace_jacobi(spec: BracketSpec, max_len: int = 3) -> CheckReport:
    alg, r = spec.algebra, spec.shift.r
    words = [w for w in alg.words_up_to(max_len) if w]
    # necklace_bracket once per pair; its values are only read
    nb = functools.cache(lambda w1, w2: necklace_bracket(spec, w1, w2))

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

    def nb_ext(w: Word, m: Dict[Word, Scalar], w_first: bool = True) -> Dict[Word, Scalar]:
        """The necklace bracket of class w with m, w in the first slot or
        the second; the bracket with the unit class vanishes."""
        return add_into({}, (
            (k2, c * c2)
            for k, c in m.items() if k
            for k2, c2 in (nb(w, k) if w_first else nb(k, w)).items()
        ))

    def failures():
        for a, b, c in itertools.product(classes, classes, classes):
            lhs = _clean(nb_ext(a, nb(b, c)))
            rhs = nb_ext(c, nb(a, b), w_first=False)
            s = sign_exp(r + alg.degree(a), r + alg.degree(b))
            rhs = _clean(add_into(rhs, (
                (k, s * v) for k, v in nb_ext(b, nb(a, c)).items())))
            if lhs != rhs:
                diff = _clean(add_into(dict(lhs), ((k, -v) for k, v in rhs.items())))
                yield (f"([{alg.render_word(a)}], [{alg.render_word(b)}], [{alg.render_word(c)}])",
                       render_cyclic(alg, diff))

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
