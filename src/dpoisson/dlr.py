"""Double Lie-Rinehart data on free bimodules and the linear-bracket
correspondence.

A free A-bimodule M on MODULE generators embeds its tensor algebra T_A(M)
into the free algebra on base-plus-module generators; words of weight one
are the elements of M.  DLRData stores the anchor table rho(m, a) with
base-coloured legs and the module bracket {{m, m'}} split into its M (x) A
and A (x) M components.

The evaluators here extend those tables themselves, by the bimodule and
derivation rules below; they deliberately do not reuse the word evaluator
of brackets.BracketSpec, so agreement between dlr_check and the double
Poisson suite of the merged bracket is a comparison of two independent
computation paths.  The two share only the core arithmetic, the leg
permutation and the two bimodule actions; each writes its own rule signs.

Extension rules (|w| means degree, r the shift; p Y q is the outer and
p * Y * q the inner action of `core` on A (x) A, the inner one with its own
Koszul sign; the signs written here are those of the rules):

  anchor, second slot split at its first letter g, wa = g v:
    rho(w, g v) = rho(w, g) v + (-1)^(|g|(r+|w|)) g rho(w, v)
  anchor, first slot p m q (p, q base words), c a base letter:
    rho(p m q, c) = (-1)^(|q|(r+|c|)) p * rho(m, c) * q

  module bracket, second slot starts with base letter a, w2 = a n:
    l:  (-1)^(|a|(r+|w1|)) a {{w1, n}}_l
    r:  rho(w1, a) n + (-1)^(|a|(r+|w1|)) a {{w1, n}}_r
  module bracket, second slot m tail, tail of base letters:
    l:  {{w1, m}}_l tail + (-1)^(|m|(r+|w1|)) m rho(w1, tail)
    r:  {{w1, m}}_r tail
  antisymmetry used to flip a bare-generator second slot into the first.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Tuple

from .core import (
    Colour,
    FreeAlgebra,
    Generator,
    NCPoly,
    ShiftContext,
    Tensor2,
    Tensor3,
    Word,
    inner,
    outer,
    sign_exp,
)
from .brackets import BracketSpec, antisym_partner
from .reports import CheckReport


class BimoduleSpec:
    """Free A-bimodule on MODULE generators over a free base algebra."""

    def __init__(self, base: FreeAlgebra, mgens):
        for g in base.gens:
            if g.colour is not Colour.BASE:
                raise ValueError("base algebra must have BASE generators only")
        mgens = tuple(
            g if g.colour is Colour.MODULE else Generator(g.name, g.degree, Colour.MODULE)
            for g in mgens
        )
        self.base = base
        self.mgens = mgens
        self.ambient = FreeAlgebra(base.gens + mgens)

    def __eq__(self, other):
        return (
            isinstance(other, BimoduleSpec)
            and self.base == other.base
            and self.mgens == other.mgens
        )

    def __repr__(self):
        return f"BimoduleSpec(base={self.base!r}, mgens={[g.name for g in self.mgens]})"

    def base_words(self, max_len: int):
        return self.ambient.words_up_to(max_len, letters=self.ambient.base_indices)

    def module_words(self, max_len: int):
        """Weight-one words up to max_len: p m q with p, q base."""
        base = [w for w in self.base_words(max_len - 1)]
        for total in range(1, max_len + 1):
            for pl in range(total):
                ql = total - 1 - pl
                for p in base:
                    if len(p) != pl:
                        continue
                    for m in self.ambient.module_indices:
                        for q in base:
                            if len(q) == ql:
                                yield p + (m,) + q


def _split_module_word(alg: FreeAlgebra, w: Word) -> Tuple[Word, int, Word]:
    pos = [k for k, i in enumerate(w) if alg.is_module(i)]
    if len(pos) != 1:
        raise ValueError(f"not a weight-one word: {alg.render_word(w)}")
    k = pos[0]
    return w[:k], w[k], w[k + 1:]


class DLRData:
    """Anchor and module-bracket tables for a shifted double Lie-Rinehart
    structure, with their derivation-rule extension."""

    def __init__(self, bimodule: BimoduleSpec, shift: ShiftContext,
                 anchor: Dict, mbracket: Dict):
        self.bimodule = bimodule
        self.shift = shift
        alg = bimodule.ambient
        self.anchor: Dict[Tuple[int, int], Tensor2] = {}
        for key, val in anchor.items():
            i, j = (alg.index(k) if isinstance(k, str) else k for k in key)
            if not val:
                continue
            self.anchor[(i, j)] = val
        self.mbracket: Dict[Tuple[int, int], Tuple[Tensor2, Tensor2]] = {}
        for key, val in mbracket.items():
            i, j = (alg.index(k) if isinstance(k, str) else k for k in key)
            l, r = val
            if not l and not r:
                continue
            self.mbracket[(i, j)] = (l, r)
        self._validate()
        self._anchor_cache: dict = {}
        self._rho_tau_cache: dict = {}
        self._mb_cache: dict = {}

    def _validate(self):
        alg, r = self.bimodule.ambient, self.shift.r
        for (i, j), val in self.anchor.items():
            if not alg.is_module(i) or alg.is_module(j):
                raise ValueError("anchor keys must pair a MODULE with a BASE generator")
            if val.algebra != alg:
                raise ValueError("incompatible algebras")
            if not val.leg_weights() <= {(0, 0)}:
                raise ValueError(
                    f"anchor value for ({alg.gens[i].name}, {alg.gens[j].name}) "
                    "must have base-coloured legs"
                )
            want = alg.gens[i].degree + alg.gens[j].degree + r
            if not val.is_homogeneous_of(want):
                raise ValueError(
                    f"anchor value for ({alg.gens[i].name}, {alg.gens[j].name}) "
                    f"must be homogeneous of degree {want}"
                )
        for (i, j), (l, rr) in self.mbracket.items():
            if not (alg.is_module(i) and alg.is_module(j)):
                raise ValueError("module bracket keys must pair MODULE generators")
            for t in (l, rr):
                if t.algebra != alg:
                    raise ValueError("incompatible algebras")
            if not l.leg_weights() <= {(1, 0)}:
                raise ValueError("left component must land in M (x) A")
            if not rr.leg_weights() <= {(0, 1)}:
                raise ValueError("right component must land in A (x) M")
            want = alg.gens[i].degree + alg.gens[j].degree + r
            for t in (l, rr):
                if not t.is_homogeneous_of(want):
                    raise ValueError(
                        f"bracket value for ({alg.gens[i].name}, {alg.gens[j].name}) "
                        f"must be homogeneous of degree {want}"
                    )

    def __eq__(self, other):
        return (
            isinstance(other, DLRData)
            and self.bimodule == other.bimodule
            and self.shift == other.shift
            and self.anchor == other.anchor
            and self.mbracket == other.mbracket
        )

    # -- anchor extension -------------------------------------------------

    def anchor_gen(self, i: int, j: int) -> Tensor2:
        return self.anchor.get((i, j), Tensor2(self.bimodule.ambient, {}))

    def anchor_eval(self, wm: Word, wa: Word) -> Tensor2:
        """rho(wm, wa) for a weight-one word wm and a base word wa."""
        key = (wm, wa)
        hit = self._anchor_cache.get(key)
        if hit is not None:
            return hit
        alg, r = self.bimodule.ambient, self.shift.r
        deg = alg.degree
        if not wa:
            out = Tensor2(alg, {})
        elif len(wa) > 1:
            g, v = wa[:1], wa[1:]
            terms = outer({}, self.anchor_eval(wm, g), q=v)
            out = Tensor2(alg, outer(terms, self.anchor_eval(wm, v), p=g,
                                     c=sign_exp(deg(g), r + deg(wm))))
        else:
            p, m, q = _split_module_word(alg, wm)
            out = Tensor2(alg, inner({}, self.anchor_gen(m, wa[0]), p, q,
                                     c=sign_exp(deg(q), r + deg(wa))))
        self._anchor_cache[key] = out
        return out

    def rho_tau(self, wa: Word, wm: Word) -> Tensor2:
        """Swapped anchor -tau rho tau, memoised like the anchor."""
        key = (wa, wm)
        hit = self._rho_tau_cache.get(key)
        if hit is None:
            deg, r = self.bimodule.ambient.degree, self.shift.r
            hit = self._rho_tau_cache[key] = self.anchor_eval(wm, wa).permute(
                (1, 0), -sign_exp(r + deg(wa), r + deg(wm)))
        return hit

    # -- module bracket extension ----------------------------------------

    def mb_gen(self, i: int, j: int) -> Tuple[Tensor2, Tensor2]:
        alg = self.bimodule.ambient
        if (i, j) in self.mbracket:
            return self.mbracket[(i, j)]
        if (j, i) in self.mbracket:
            return self._partner(
                self.mbracket[(j, i)], alg.gens[i].degree, alg.gens[j].degree
            )
        zero = Tensor2(alg, {})
        return (zero, zero)

    def _partner(self, pair: Tuple[Tensor2, Tensor2], d_first: int,
                 d_second: int) -> Tuple[Tensor2, Tensor2]:
        """{{m,n}} from {{n,m}}: swap the components and their legs, with
        the antisymmetry sign."""
        L, R = pair
        s = -sign_exp(self.shift.r + d_first, self.shift.r + d_second)
        return (R.permute((1, 0), s), L.permute((1, 0), s))

    def mb_eval(self, w1: Word, w2: Word) -> Tuple[Tensor2, Tensor2]:
        """{{w1, w2}} for weight-one words, as its (l, r) components."""
        key = (w1, w2)
        hit = self._mb_cache.get(key)
        if hit is not None:
            return hit
        alg, r = self.bimodule.ambient, self.shift.r
        deg = alg.degree
        if not alg.is_module(w2[0]):
            # second slot a n with a a base letter
            a, n = w2[:1], w2[1:]
            s0 = sign_exp(deg(a), r + deg(w1))
            L, R = self.mb_eval(w1, n)
            rt = outer(outer({}, R, p=a, c=s0), self.anchor_eval(w1, a), q=n)
            out = (Tensor2(alg, outer({}, L, p=a, c=s0)), Tensor2(alg, rt))
        elif len(w2) > 1:
            # second slot m tail with a pure base tail
            n, tail = w2[:1], w2[1:]
            L, R = self.mb_eval(w1, n)
            lt = outer(outer({}, L, q=tail), self.anchor_eval(w1, tail), p=n,
                       c=sign_exp(deg(n), r + deg(w1)))
            out = (Tensor2(alg, lt), Tensor2(alg, outer({}, R, q=tail)))
        elif len(w1) == 1:
            out = self.mb_gen(w1[0], w2[0])
        else:
            # bare generator in the second slot only: flip through
            # antisymmetry, which puts the bare generator first
            pair = self.mb_eval(w2, w1)
            out = self._partner(pair, deg(w1), deg(w2))
        self._mb_cache[key] = out
        return out


# -- axiom checks ---------------------------------------------------------


def _pair_residual(got: Tuple[Tensor2, Tensor2], want: Tuple[Tensor2, Tensor2]):
    dl = got[0] - want[0]
    dr = got[1] - want[1]
    if dl or dr:
        return f"l: {dl.render()}  r: {dr.render()}"
    return None


def _a_antisymmetry(d: DLRData, mwords: list):
    """Failures of (a), antisymmetry of the module bracket."""
    alg = d.bimodule.ambient
    deg = alg.degree
    for w1, w2 in itertools.product(mwords, mwords):
        got = d.mb_eval(w1, w2)
        want = d._partner(d.mb_eval(w2, w1), deg(w1), deg(w2))
        res = _pair_residual(got, want)
        if res is not None:
            yield alg.render_words(w1, w2), res


def _anchor_properties(d: DLRData, mwords: list, bwords: list):
    """Failures of anchor coherence: derivation in the second slot and
    bimodule morphism in the first, re-derived at every split point."""
    alg, r = d.bimodule.ambient, d.shift.r
    deg = alg.degree
    for wm, wa in itertools.product(mwords, bwords):
        for cut in range(1, len(wa)):
            u, v = wa[:cut], wa[cut:]
            terms = outer({}, d.anchor_eval(wm, u), q=v)
            outer(terms, d.anchor_eval(wm, v), p=u, c=sign_exp(deg(u), r + deg(wm)))
            diff = Tensor2(alg, terms) - d.anchor_eval(wm, wa)
            if diff:
                yield f"{alg.render_words(wm, wa)} split {cut}", diff.render()
        p, m, q = _split_module_word(alg, wm)
        # left action: rho(p (m q), wa) = p * rho(m q, wa)
        if p:
            terms = inner({}, d.anchor_eval(wm[len(p):], wa), p=p)
            diff = Tensor2(alg, terms) - d.anchor_eval(wm, wa)
            if diff:
                yield f"{alg.render_words(wm, wa)} left action", diff.render()
        # right action: rho((p m) q, wa) = (-1)^(|q|(r+|wa|)) rho(p m, wa) * q
        if q:
            terms = inner({}, d.anchor_eval(wm[: len(wm) - len(q)], wa), q=q,
                          c=sign_exp(deg(q), r + deg(wa)))
            diff = Tensor2(alg, terms) - d.anchor_eval(wm, wa)
            if diff:
                yield f"{alg.render_words(wm, wa)} right action", diff.render()


def _b_derivation_compat(d: DLRData, mwords: list):
    """Failures of (b), derivation compatibility: the bracket of wm with a
    product, re-derived from whole-block splits of the second slot."""
    alg, r = d.bimodule.ambient, d.shift.r
    deg = alg.degree
    for w1, w2 in itertools.product(mwords, mwords):
        L2, R2 = d.mb_eval(w1, w2)
        pos = next(k for k, i in enumerate(w2) if alg.is_module(i))
        for cut in range(1, len(w2)):
            if cut <= pos:
                # w2 = a n with a = w2[:cut] base, n weight one:
                # {{w1, a n}} = (-1)^(|a|(r+|w1|)) a {{w1, n}} + rho(w1, a) n
                a, n = w2[:cut], w2[cut:]
                Ln, Rn = d.mb_eval(w1, n)
                s = sign_exp(deg(a), r + deg(w1))
                lt = outer({}, Ln, p=a, c=s)
                rt = outer(outer({}, Rn, p=a, c=s), d.anchor_eval(w1, a), q=n)
                side = "left"
            else:
                # w2 = n a with a = w2[cut:] base, n weight one:
                # {{w1, n a}} = {{w1, n}} a + (-1)^(|n|(r+|w1|)) n rho(w1, a)
                n, a = w2[:cut], w2[cut:]
                Ln, Rn = d.mb_eval(w1, n)
                lt = outer(outer({}, Ln, q=a), d.anchor_eval(w1, a), p=n,
                           c=sign_exp(deg(n), r + deg(w1)))
                rt = outer({}, Rn, q=a)
                side = "right"
            res = _pair_residual((L2, R2), (Tensor2(alg, lt), Tensor2(alg, rt)))
            if res is not None:
                yield f"{alg.render_words(w1, w2)} {side} split {cut}", res


def _c_anchor_jacobi(d: DLRData, mwords: list, bwords: list):
    """Failures of (c), the second anchor compatibility, on (base, module,
    module) triples."""
    alg, r = d.bimodule.ambient, d.shift.r
    deg = alg.degree
    for wa, wm, wn in itertools.product(bwords, mwords, mwords):
        da, dm, dn = deg(wa), deg(wm), deg(wn)
        terms: dict = {}
        L, _R = d.mb_eval(wm, wn)
        for (u, v), c in L.terms.items():
            for (t1, t2), c2 in d.rho_tau(wa, u).terms.items():
                k3 = (t1, t2, v)
                terms[k3] = terms.get(k3, 0) + c * c2
        s2 = sign_exp(da + r, (dm + r) + (dn + r))
        for (p, q), c in d.anchor_eval(wn, wa).terms.items():
            for (t1, t2), c2 in d.anchor_eval(wm, p).terms.items():
                s = s2 * sign_exp(deg(t1) + deg(t2), deg(q))
                k3 = (q, t1, t2)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        s3 = sign_exp((da + r) + (dm + r), dn + r)
        for (p, q), c in d.rho_tau(wa, wm).terms.items():
            for (t1, t2), c2 in d.anchor_eval(wn, p).terms.items():
                s = s3 * sign_exp(deg(t1), deg(t2) + deg(q))
                k3 = (t2, q, t1)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        res = Tensor3(alg, terms)
        if res:
            yield alg.render_words(wa, wm, wn), res.render()


def _d_double_jacobi(d: DLRData, mwords: list):
    """Failures of (d), double Jacobi on module-word triples."""
    alg, r = d.bimodule.ambient, d.shift.r
    deg = alg.degree
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
                s = s2 * sign_exp(deg(p), deg(q) + deg(v))
                k3 = (q, v, p)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        s3 = sign_exp(d1 + r, (d2 + r) + (d3 + r))
        _, R31 = d.mb_eval(w3, w1)
        for (p, q), c in R31.terms.items():
            for (t1, t2), c2 in d.anchor_eval(w2, p).terms.items():
                s = s3 * sign_exp(deg(t1) + deg(t2), deg(q))
                k3 = (q, t1, t2)
                terms[k3] = terms.get(k3, 0) + s * c * c2
        res = Tensor3(alg, terms)
        if res:
            yield alg.render_words(w1, w2, w3), res.render()


def dlr_check(d: DLRData, max_len: int = 3) -> CheckReport:
    """The four defining conditions, plus coherence of the anchor extension.

    Conditions (a), (c), (d) carry the data content; the anchor-properties
    and derivation-compatibility entries re-derive the evaluators' output
    from whole-block splits and catch inconsistent sign bookkeeping.
    """
    mwords = list(d.bimodule.module_words(max_len))
    bwords = list(d.bimodule.base_words(max_len))
    rep = CheckReport("dlr", max_len)
    rep.first_failure("a-antisymmetry", _a_antisymmetry(d, mwords))
    rep.first_failure("anchor-properties", _anchor_properties(d, mwords, bwords))
    rep.first_failure("b-derivation-compat", _b_derivation_compat(d, mwords))
    rep.first_failure("c-anchor-jacobi", _c_anchor_jacobi(d, mwords, bwords))
    return rep.first_failure("d-double-jacobi", _d_double_jacobi(d, mwords))


# -- linear bracket correspondence ---------------------------------------


def split_components(alg: FreeAlgebra, val: Tensor2) -> Tuple[Tensor2, Tensor2]:
    """The M (x) A and A (x) M components of a module-bracket value: each
    term goes to the half whose leg holds its one module letter."""
    halves: Tuple[dict, dict] = ({}, {})
    for (u, v), c in val.terms.items():
        wu, wv = alg.weight(u), alg.weight(v)
        if wu + wv != 1:
            raise ValueError("each bracket term carries exactly one module letter")
        halves[wv][(u, v)] = c
    return Tensor2(alg, halves[0]), Tensor2(alg, halves[1])


def dlr_to_linear(d: DLRData) -> BracketSpec:
    """Assemble the bracket table of T_A(M): zero on base pairs, the anchor
    on (module, base) pairs, the merged components on module pairs."""
    alg = d.bimodule.ambient
    table: dict = {}
    for (i, j), val in d.anchor.items():
        table[(i, j)] = val
    for (i, j), (l, r) in d.mbracket.items():
        table[(i, j)] = l + r
    return BracketSpec(alg, d.shift, table)


def linear_to_dlr(spec: BracketSpec, bimodule: BimoduleSpec) -> DLRData:
    """Split a linear bracket table back into anchor and module components."""
    alg = bimodule.ambient
    if spec.algebra != alg:
        raise ValueError("incompatible algebras")
    cls = classify_bracket(spec)
    if cls is not BracketClass.LINEAR and not bracket_is_zero(spec):
        raise ValueError("not a linear bracket")
    anchor: dict = {}
    mbracket: dict = {}
    for (i, j), val in spec.table.items():
        mi, mj = alg.is_module(i), alg.is_module(j)
        if mi and mj:
            mbracket[(i, j)] = split_components(alg, val)
        elif mi:
            anchor[(i, j)] = val
        elif mj:
            # stored in (base, module) orientation; flip to anchor form
            if (j, i) not in spec.table:
                anchor[(j, i)] = antisym_partner(
                    val, alg.gens[j].degree, alg.gens[i].degree, spec.shift.r
                )
        # base pairs are zero for a linear bracket
    return DLRData(bimodule, spec.shift, anchor, mbracket)


class BracketClass(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    GENERAL = "general"


def bracket_is_zero(spec: BracketSpec) -> bool:
    return not any(spec.table.values())


def classify_bracket(spec: BracketSpec) -> BracketClass:
    """Colour-profile classification of a bracket on T_A(M).

    The base-pair restriction must vanish for all three named classes; the
    zero bracket sits in every class and reports as CONSTANT (see
    bracket_is_zero).
    """
    alg = spec.algebra
    if not alg.module_indices:
        raise ValueError("algebra has no module generators")
    mm_profiles = set()
    ma_profiles = set()
    for (i, j), val in spec.table.items():
        mi, mj = alg.is_module(i), alg.is_module(j)
        if not mi and not mj:
            if val:
                return BracketClass.GENERAL
        elif mi and mj:
            mm_profiles |= val.leg_weights()
        else:
            ma_profiles |= val.leg_weights()
    if mm_profiles <= {(0, 0)} and not ma_profiles:
        return BracketClass.CONSTANT
    if mm_profiles <= {(1, 0), (0, 1)} and ma_profiles <= {(0, 0)}:
        return BracketClass.LINEAR
    if mm_profiles <= {(1, 1)} and not ma_profiles:
        return BracketClass.QUADRATIC
    return BracketClass.GENERAL


def assoc_product_check(bimodule: BimoduleSpec, f: Dict) -> CheckReport:
    """Associativity of a tabulated product on the module generators of a
    bimodule over the trivial base."""
    if bimodule.base.gens:
        raise ValueError("base algebra must be trivial")
    alg = bimodule.ambient
    table: Dict[Tuple[int, int], NCPoly] = {}
    for key, val in f.items():
        i, j = (alg.index(k) if isinstance(k, str) else k for k in key)
        if isinstance(val, str):
            val = alg.gen(val)
        table[(i, j)] = val

    def prod(x: NCPoly, y: NCPoly) -> NCPoly:
        out = alg.zero()
        for wx, cx in x.terms.items():
            for wy, cy in y.terms.items():
                entry = table.get((wx[0], wy[0]))
                if entry is not None:
                    out = out + entry.scale(cx * cy)
        return out

    def failures():
        gens = [NCPoly(alg, {(i,): 1}) for i in range(len(alg.gens))]
        for a, b, c in itertools.product(range(len(gens)), repeat=3):
            lhs = prod(prod(gens[a], gens[b]), gens[c])
            rhs = prod(gens[a], prod(gens[b], gens[c]))
            res = lhs - rhs
            if res:
                yield alg.render_words((a,), (b,), (c,)), res.render()

    return CheckReport("product-associativity", 1).first_failure("associativity", failures())
