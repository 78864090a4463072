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
Conditions (c) and (d) of dlr_check run on per-check word ids and read the
evaluators' values from a table memoised per pair of ids (`_word_ids`).

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

import functools
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
    bilinear,
    inner,
    intern_words,
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
        by_len: dict = {}
        for w in self.base_words(max_len - 1):
            by_len.setdefault(len(w), []).append(w)
        for total in range(1, max_len + 1):
            for pl in range(total):
                for p, m, q in itertools.product(by_len.get(pl, ()), self.ambient.module_indices,
                                                 by_len.get(total - 1 - pl, ())):
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
            i, j = map(alg.index, key)
            if not val:
                continue
            self.anchor[(i, j)] = val
        self.mbracket: Dict[Tuple[int, int], Tuple[Tensor2, Tensor2]] = {}
        for key, val in mbracket.items():
            i, j = map(alg.index, key)
            l, r = val
            if not l and not r:
                continue
            self.mbracket[(i, j)] = (l, r)
        self._validate()
        self._anchor_cache: dict = {}
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
        pos = len(_split_module_word(alg, w2)[0])
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


def _word_ids(d: DLRData, mwords: list, bwords: list) -> tuple:
    """(words, degs, mb, an) of one dlr_check: the module words, then the
    base words, are ids 0..n-1 in enumeration order (core.intern_words).
    mb(i, j) and an(i, j), memoised, are the values at (words[i], words[j])
    as tuples (id1, id2, c): the l and r components of mb_eval, and the
    anchor with its swap -tau rho tau (the swapped anchor at (j, i))."""
    alg, r = d.bimodule.ambient, d.shift.r
    words, degs, word_id = intern_words(alg, mwords + bwords)

    def ids(t: Tensor2) -> tuple:
        return tuple((word_id(u), word_id(v), c) for (u, v), c in t.terms.items())

    @functools.cache
    def mb(i: int, j: int) -> tuple:
        return tuple(map(ids, d.mb_eval(words[i], words[j])))

    @functools.cache
    def an(i: int, j: int) -> tuple:
        rho = d.anchor_eval(words[i], words[j])
        return ids(rho), ids(rho.permute((1, 0), -sign_exp(r + degs[j], r + degs[i])))

    return words, degs, mb, an


def _failure(alg: FreeAlgebra, words: list, triple: tuple, terms: dict) -> tuple:
    """The witness and residual of a failing triple of ids."""
    return (alg.render_words(*(words[i] for i in triple)),
            Tensor3(alg, {tuple(words[i] for i in k): c for k, c in terms.items()}).render())


def _c_anchor_jacobi(d: DLRData, table: tuple, nm: int, nb: int):
    """Failures of (c), the second anchor compatibility, on (base, module,
    module) triples of ids: nm module words, then nb base words."""
    alg, r = d.bimodule.ambient, d.shift.r
    odd = alg.has_odd
    words, degs, mb, an = table
    sh = [g + r for g in degs[:nm + nb]]  # shifted slot degrees
    for a in range(nm, nm + nb):
        for m in range(nm):
            tau_am = an(m, a)[1]
            for n in range(nm):
                L = mb(m, n)[0]
                rho_na = an(n, a)[0]
                if not (L or rho_na or tau_am):
                    continue
                terms: dict = {}
                for u, v, c in L:
                    for t1, t2, c2 in an(u, a)[1]:
                        k3 = (t1, t2, v)
                        terms[k3] = terms.get(k3, 0) + c * c2
                if rho_na:
                    s2 = sign_exp(sh[a], sh[m] + sh[n])
                    for p, q, c in rho_na:
                        for t1, t2, c2 in an(m, p)[0]:
                            s = s2 * sign_exp(degs[t1] + degs[t2], degs[q]) if odd else s2
                            k3 = (q, t1, t2)
                            terms[k3] = terms.get(k3, 0) + s * c * c2
                if tau_am:
                    s3 = sign_exp(sh[a] + sh[m], sh[n])
                    for p, q, c in tau_am:
                        for t1, t2, c2 in an(n, p)[0]:
                            s = s3 * sign_exp(degs[t1], degs[t2] + degs[q]) if odd else s3
                            k3 = (t2, q, t1)
                            terms[k3] = terms.get(k3, 0) + s * c * c2
                if any(terms.values()):
                    yield _failure(alg, words, (a, m, n), terms)


def _d_double_jacobi(d: DLRData, table: tuple, nm: int):
    """Failures of (d), double Jacobi on triples of module-word ids."""
    alg, r = d.bimodule.ambient, d.shift.r
    odd = alg.has_odd
    words, degs, mb, an = table
    sh = [g + r for g in degs[:nm]]  # shifted slot degrees
    # the values at enumerated pairs, read once per triple, as rows
    rows = [[mb(i, j) for j in range(nm)] for i in range(nm)]
    for i, row_i in enumerate(rows):
        col_i = [row[i][1] for row in rows]
        for j, row_j in enumerate(rows):
            L12 = row_i[j][0]
            for k, (L23, _), R31 in zip(range(nm), row_j, col_i):
                if not (L23 or L12 or R31):
                    continue
                terms: dict = {}
                for u, v, c in L23:
                    for s1, t1, c2 in mb(i, u)[0]:
                        k3 = (s1, t1, v)
                        terms[k3] = terms.get(k3, 0) + c * c2
                if L12:
                    s2 = sign_exp(sh[i] + sh[j], sh[k])
                    for u, v, c in L12:
                        for p, q, c2 in mb(k, u)[1]:
                            s = s2 * sign_exp(degs[p], degs[q] + degs[v]) if odd else s2
                            k3 = (q, v, p)
                            terms[k3] = terms.get(k3, 0) + s * c * c2
                if R31:
                    s3 = sign_exp(sh[i], sh[j] + sh[k])
                    for p, q, c in R31:
                        for t1, t2, c2 in an(j, p)[0]:
                            s = s3 * sign_exp(degs[t1] + degs[t2], degs[q]) if odd else s3
                            k3 = (q, t1, t2)
                            terms[k3] = terms.get(k3, 0) + s * c * c2
                if any(terms.values()):
                    yield _failure(alg, words, (i, j, k), terms)


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
    table = _word_ids(d, mwords, bwords)
    rep.first_failure("c-anchor-jacobi", _c_anchor_jacobi(d, table, len(mwords), len(bwords)))
    return rep.first_failure("d-double-jacobi", _d_double_jacobi(d, table, len(mwords)))


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


# leg weights a linear bracket allows, by the number of module generators
# in the pair: none on base pairs, base legs on anchor values, one module
# letter on module pairs
_LINEAR_LEG_WEIGHTS = (set(), {(0, 0)}, {(1, 0), (0, 1)})


def linear_to_dlr(spec: BracketSpec, bimodule: BimoduleSpec) -> DLRData:
    """Split a linear bracket table back into anchor and module components."""
    alg = bimodule.ambient
    if spec.algebra != alg:
        raise ValueError("incompatible algebras")
    anchor: dict = {}
    mbracket: dict = {}
    for (i, j), val in spec.table.items():
        mi, mj = alg.is_module(i), alg.is_module(j)
        if not val.leg_weights() <= _LINEAR_LEG_WEIGHTS[mi + mj]:
            raise ValueError("not a linear bracket")
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
    return DLRData(bimodule, spec.shift, anchor, mbracket)


def assoc_product_check(bimodule: BimoduleSpec, f: Dict) -> CheckReport:
    """Associativity of a tabulated product on the module generators of a
    bimodule over the trivial base."""
    if bimodule.base.gens:
        raise ValueError("base algebra must be trivial")
    alg = bimodule.ambient
    table: Dict[Tuple[int, int], dict] = {}
    for key, val in f.items():
        i, j = map(alg.index, key)
        if isinstance(val, str):
            val = alg.gen(val)
        if any(len(w) != 1 for w in val.terms):
            raise ValueError(f"product value for ({alg.gens[i].name}, {alg.gens[j].name}) "
                             "must be a combination of generators")
        table[(i, j)] = val.terms

    def prod(x: NCPoly, y: NCPoly) -> NCPoly:
        return NCPoly(alg, bilinear({}, lambda wx, wy: table.get((wx[0], wy[0]), {}),
                                    x.terms, y.terms))

    def failures():
        gens = [NCPoly(alg, {(i,): 1}) for i in range(len(alg.gens))]
        for a, b, c in itertools.product(range(len(gens)), repeat=3):
            lhs = prod(prod(gens[a], gens[b]), gens[c])
            rhs = prod(gens[a], prod(gens[b], gens[c]))
            res = lhs - rhs
            if res:
                yield alg.render_words((a,), (b,), (c,)), res.render()

    return CheckReport("product-associativity", 1).first_failure("associativity", failures())
