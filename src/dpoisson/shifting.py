"""Degree shifting of double Lie-Rinehart data.

Shifting by delta regrades every module generator up by delta and the
structure shift down by delta, so all table values keep their degrees and
the validation invariant |m1| + |m2| + r is untouched.  The anchor picks
up (-1)^(delta (r + |m|)) per module generator, the A (x) M component of
the module bracket (-1)^(delta |first leg|) per term; the M (x) A
component is untouched.  These signs make the round trip with -delta the
identity on the nose, not just up to isomorphism.
"""

from __future__ import annotations

from .core import Generator, ShiftContext, Tensor2, sign_exp
from .dlr import BimoduleSpec, DLRData, dlr_check
from .reports import CheckReport


def shift_dlr(d: DLRData, delta: int) -> DLRData:
    old = d.bimodule
    alg = old.ambient
    mgens = tuple(
        Generator(g.name, g.degree + delta, g.colour) for g in old.mgens
    )
    new_bm = BimoduleSpec(old.base, mgens)
    new_amb = new_bm.ambient
    r = d.shift.r
    anchor: dict = {}
    for (i, j), val in d.anchor.items():
        s = sign_exp(delta, r + alg.gens[i].degree)
        anchor[(i, j)] = Tensor2(new_amb, {k: s * c for k, c in val.terms.items()})
    mbracket: dict = {}
    for (i, j), (l, rr) in d.mbracket.items():
        nl = Tensor2(new_amb, l.terms)
        nr_terms = {}
        for (u, v), c in rr.terms.items():
            nr_terms[(u, v)] = sign_exp(delta, alg.degree(u)) * c
        mbracket[(i, j)] = (nl, Tensor2(new_amb, nr_terms))
    return DLRData(new_bm, ShiftContext(r - delta), anchor, mbracket)


def verify_shift_equivalence(d: DLRData, delta: int, max_len: int = 3) -> CheckReport:
    """Per-axiom verdict agreement between the data and its shift.

    An entry passes when both sides agree, whether both hold or both fail;
    broken data must stay broken in the same place under shifting.
    """
    before = dlr_check(d, max_len)
    after = dlr_check(shift_dlr(d, delta), max_len)
    rep = CheckReport(f"shift-equivalence (delta {delta})", max_len)
    for e1 in before.entries:
        e2 = after.entry(e1.axiom)
        rep.first_failure(e1.axiom, [] if e1.passed == e2.passed else [(
            f"unshifted {'PASS' if e1.passed else 'FAIL'}, "
            f"shifted {'PASS' if e2.passed else 'FAIL'}", None)])
    return rep
