"""The FAIL report line of every check that no fixture fails.

The three bracket coherence checks (extension-order, jacobi-cyclic-stability,
necklace-representativity) and the two dlr coherence checks
(anchor-properties, b-derivation-compat) hold on every valid input, so each
is driven here by an evaluator with one value corrupted on purpose.  The
koszul-square cases pair a bracket with dlr data that do not come from it,
and the shift-equivalence case a shift that returns other data.
The expected lines are frozen: a rewrite of any check must reproduce its
witness and residual byte for byte.
"""

import pytest

from dpoisson import brackets, shifting
from dpoisson.brackets import (
    BracketSpec,
    check_double_jacobi,
    check_extension_order,
    check_necklace_jacobi,
    run_bracket_checks,
)
from dpoisson.calculus import koszul_square_check
from dpoisson.cli import main
from dpoisson.core import tensor2
from dpoisson.dlr import DLRData, dlr_check
from dpoisson.reports import CheckReport

from conftest import FIXDIR, block


def lines(rep) -> list:
    return [e.line() for e in rep.entries]


def test_first_failure_stops_at_the_first_failure():
    read = []

    def failures():
        for k in range(3):
            read.append(k)
            yield f"({k})", None

    rep = CheckReport("r", 1).first_failure("a", failures()).first_failure("b", [])
    assert lines(rep) == ["a: FAIL at (0)", "b: PASS"]
    assert read == [0]


class RightOrderDrift(BracketSpec):
    """f1 whose right rule gains 1 (x) 1 on (x.y, x.y), a pair the
    evaluator expands by the left rule."""

    def _right_rule(self, w1, w2, head, tail):
        out = super()._right_rule(w1, w2, head, tail)
        if (w1, w2) == ((0, 1), (0, 1)):
            out = out + tensor2(self.algebra, ("1", "1"))
        return out


def test_extension_order_fail_line():
    f1 = block("f1.dbr", "B")
    spec = RightOrderDrift(f1.algebra, f1.shift, f1.table)
    assert lines(check_extension_order(spec, max_len=2)) == [
        "extension-order: FAIL at (x.y, x.y)  residual: - 1 (*) 1",
    ]


class RightRuleScaled(BracketSpec):
    """f1 whose right rule is doubled, in the evaluator and in the check."""

    def _right_rule(self, w1, w2, head, tail):
        return super()._right_rule(w1, w2, head, tail).scale(2)


def test_extension_order_misses_a_scaled_right_rule():
    # the evaluator sends a single-letter first slot through the doubled
    # right rule, and extension-order tests it against the same doubled
    # rule, so the factor cancels there; antisymmetry catches it
    f1 = block("f1.dbr", "B")
    rep = run_bracket_checks(RightRuleScaled(f1.algebra, f1.shift, f1.table),
                             max_len=2, necklace=False)
    assert lines(rep)[:2] == [
        "antisymmetry: FAIL at (x, x.y)  residual: x (*) 1",
        "extension-order: PASS",
    ]
    assert not rep.ok


def test_jacobi_cyclic_stability_fail_line(monkeypatch):
    # x (x) 1 (x) 1 added to the jacobiator of (x, y, y) only: its
    # rotation partner (y, x, y) stays zero
    # the kernel keys by word ids, the enumeration positions of (), x, y, ...
    orbit = brackets._orbit_jacobiators
    f1 = block("f1.dbr", "B")
    ids = {w: p for p, w in enumerate(f1.algebra.words_up_to(2))}
    bad, key = (ids[(0,)], ids[(1,)], ids[(1,)]), (ids[(0,)], ids[()], ids[()])

    def corrupted(*args):
        jacs = orbit(*args)
        i, j, k = args[-3:]
        for jac, t in zip(jacs, ((i, j, k), (k, i, j), (j, k, i))):
            if t == bad:
                jac[key] = jac.get(key, 0) + 1
        return jacs

    monkeypatch.setattr(brackets, "_orbit_jacobiators", corrupted)
    assert lines(check_double_jacobi(f1, max_len=2)) == [
        "double-jacobi: FAIL at (x, y, y)  residual: x (*) 1 (*) 1",
        "jacobi-cyclic-stability: FAIL at (x, y, y)  residual: x (*) 1 (*) 1",
    ]


def test_necklace_representativity_fail_line(monkeypatch):
    # the representative y.x of the class [x.y] gains the class [x]
    nb = brackets.necklace_bracket

    def corrupted(spec, w1, w2):
        out = nb(spec, w1, w2)
        if w1 == (1, 0):
            out = dict(out)
            out[(0,)] = out.get((0,), 0) + 1
        return out

    monkeypatch.setattr(brackets, "necklace_bracket", corrupted)
    assert lines(check_necklace_jacobi(block("f1.dbr", "B"), max_len=2)) == [
        "necklace-representativity: FAIL at (x.y, x) slot 1",
        "necklace-jacobi: PASS",
    ]


def _koszul_f2_variant(cls) -> DLRData:
    d = block("koszul_f2.dbr", "K")
    return cls(d.bimodule, d.shift, d.anchor, d.mbracket)


class AnchorScaled(DLRData):
    """koszul_f2 with rho(dx, x.x) scaled by 3."""

    def anchor_eval(self, wm, wa):
        out = super().anchor_eval(wm, wa)
        return out.scale(3) if (wm, wa) == ((1,), (0, 0)) else out


class BracketScaled(DLRData):
    """koszul_f2 with {{dx, x.dx}} scaled by 3."""

    def mb_eval(self, w1, w2):
        L, R = super().mb_eval(w1, w2)
        if (w1, w2) == ((1,), (0, 1)):
            return L.scale(3), R.scale(3)
        return L, R


def test_anchor_properties_fail_line():
    assert lines(dlr_check(_koszul_f2_variant(AnchorScaled), max_len=3)) == [
        "a-antisymmetry: FAIL at (dx.x, dx.x.x)  residual: "
        "l: 2 * dx.x (*) x.x - 2 * dx.x.x.x (*) 1  r: 0",
        "anchor-properties: FAIL at (dx, x.x) split 1  residual: "
        "2 * 1 (*) x.x - 2 * x.x (*) 1",
        "b-derivation-compat: FAIL at (dx, dx.x.x) right split 2  residual: "
        "l: - 2 * dx (*) x.x + 2 * dx.x.x (*) 1  r: 0",
        "c-anchor-jacobi: FAIL at (x, dx, dx.x)  residual: "
        "- 2 * 1 (*) 1 (*) x.x + 2 * 1 (*) x.x (*) 1",
        "d-double-jacobi: FAIL at (dx, dx, dx.x.x)  residual: "
        "- 6 * dx (*) 1 (*) x.x + 6 * dx.x.x (*) 1 (*) 1",
    ]


def test_b_derivation_compat_fail_line():
    assert lines(dlr_check(_koszul_f2_variant(BracketScaled), max_len=3)) == [
        "a-antisymmetry: FAIL at (dx.x, x.dx)  residual: "
        "l: - 2 * x.dx.x (*) 1  r: 2 * x (*) x.dx",
        "anchor-properties: PASS",
        "b-derivation-compat: FAIL at (dx, x.dx) left split 1  residual: "
        "l: 2 * x.dx (*) 1  r: - 2 * 1 (*) x.dx",
        "c-anchor-jacobi: FAIL at (x, dx, x.dx)  residual: "
        "- 2 * x (*) x (*) 1 + 2 * x.x (*) 1 (*) 1",
        "d-double-jacobi: FAIL at (dx, dx, x.dx)  residual: 6 * x.dx (*) 1 (*) 1",
    ]


@pytest.mark.parametrize("file, line", [
    ("dropped_term.dbr", "koszul-square: FAIL at (x, x)  residual: - 1 (*) dx"),
    ("flipped_anchor.dbr",
     "koszul-square: FAIL at (x, x.x)  residual: "
     "- 2 * 1 (*) x.dx + 2 * x (*) dx - 2 * dx (*) x + 2 * dx.x (*) 1"),
], ids=["dropped-term", "flipped-anchor"])
def test_koszul_square_fail_line(file, line):
    assert lines(koszul_square_check(block("f2.dbr", "F2"), data=block(file, "KBAD"))) == [line]


def test_verify_shift_fail_lines(monkeypatch, capsys):
    # a "shift" of koszul_f2 that drops a term of its bracket: the verdicts
    # of (a), (c) and (d) disagree
    monkeypatch.setattr(shifting, "shift_dlr",
                        lambda d, delta: block("dropped_term.dbr", "KBAD"))
    want = [
        "a-antisymmetry: FAIL at unshifted PASS, shifted FAIL",
        "anchor-properties: PASS",
        "b-derivation-compat: PASS",
        "c-anchor-jacobi: FAIL at unshifted PASS, shifted FAIL",
        "d-double-jacobi: FAIL at unshifted PASS, shifted FAIL",
    ]
    rep = shifting.verify_shift_equivalence(block("koszul_f2.dbr", "K"), 1, max_len=2)
    assert lines(rep) == want
    code = main(["verify-shift", str(FIXDIR / "koszul_f2.dbr"), "--dlr", "K",
                 "--delta", "1", "--max-len", "2"])
    assert code == 1
    assert capsys.readouterr().out == "\n".join(
        ["check shift-equivalence (delta 1) (max-len 2)", *want, "result: FAIL", ""])
