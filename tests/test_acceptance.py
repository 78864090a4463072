"""Acceptance gate.  Each test covers one advertised guarantee end to end
and prints a single verdict line; run with -s to see them.

The associativity oracle in criterion 9 is written from scratch on plain
dicts so the comparison does not share code with the package.
"""

import time

from fractions import Fraction

from dpoisson.brackets import (
    check_extension_order,
    check_necklace_jacobi,
    double_jacobiator,
    run_bracket_checks,
)
from dpoisson.calculus import koszul_bracket, koszul_square_check, sn_bracket
from dpoisson.cli import main
from dpoisson.core import FreeAlgebra, Generator
from dpoisson.dlr import BimoduleSpec, assoc_product_check, dlr_check, dlr_to_linear
from dpoisson.shifting import shift_dlr, verify_shift_equivalence
from dpoisson.textio import format_document, parse_document

from conftest import FIXDIR, block, broken_dlr_fixtures, dlr_fixtures


def _verdict(n, label, ok):
    print(f"criterion {n:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n:02d} ({label})"


def test_c01_f1_suite_within_budget():
    start = time.monotonic()
    rep = run_bracket_checks(block("f1.dbr", "B"), max_len=4)
    elapsed = time.monotonic() - start
    _verdict(1, "f1 full suite at length 4 under 30s", rep.ok and elapsed < 30.0)


def test_c02_f2_jacobiator_and_suite():
    f2 = block("f2.dbr", "F2")
    x = f2.algebra.monomial("x")
    jac_zero = not double_jacobiator(f2, x, x, x)
    rep = run_bracket_checks(f2, max_len=4)
    _verdict(2, "f2 jacobiator vanishes and suite at length 4", jac_zero and rep.ok)


def test_c03_koszul_conditions_and_square():
    f2 = block("f2.dbr", "F2")
    data = koszul_bracket(f2)
    ok = dlr_check(data, max_len=3).ok and koszul_square_check(f2, data=data, max_len=3).ok
    _verdict(3, "koszul data passes all conditions and the square identity", ok)


def test_c04_sn_bracket_on_two_generators():
    spec = sn_bracket(FreeAlgebra((Generator("x"), Generator("y"))))
    amb = spec.algebra
    # the pairing table must have come out as delta_ij 1 (x) 1
    table_ok = (
        spec.elem(amb.index("Dx"), amb.index("x")).render() == "1 (*) 1"
        and spec.elem(amb.index("Dy"), amb.index("y")).render() == "1 (*) 1"
        and not spec.elem(amb.index("Dx"), amb.index("y"))
    )
    rep = run_bracket_checks(spec, max_len=3, necklace=False)
    ok = (
        table_ok
        and rep.entry("antisymmetry").passed
        and rep.entry("double-jacobi").passed
    )
    _verdict(4, "derivation bracket is double Poisson at length 3", ok)


def test_c05_shift_family_equivalence_and_involution():
    ok = True
    for name, data in dlr_fixtures():
        for delta in (-2, -1, 1, 2):
            ok = ok and verify_shift_equivalence(data, delta, max_len=3).ok
            ok = ok and shift_dlr(shift_dlr(data, delta), -delta) == data
    _verdict(5, "shift equivalence and exact involution over the family", ok)


def test_c06_dual_route_verdicts():
    ok = True
    for name, data in dlr_fixtures() + broken_dlr_fixtures():
        own = dlr_check(data, max_len=3).ok
        rep = run_bracket_checks(dlr_to_linear(data), max_len=3, necklace=False)
        generic = rep.entry("antisymmetry").passed and rep.entry("double-jacobi").passed
        ok = ok and (own == generic)
    _verdict(6, "structure checker agrees with the flattened bracket checker", ok)


def test_c07_extension_order_independence():
    ok = check_extension_order(block("f1.dbr", "B"), max_len=3).ok
    ok = ok and check_extension_order(block("f2.dbr", "F2"), max_len=3).ok
    _verdict(7, "extension order independence at length 3", ok)


def test_c08_necklace_jacobi_and_representatives():
    rep = check_necklace_jacobi(block("f1.dbr", "B"), max_len=4)
    names = {e.axiom for e in rep.entries}
    ok = rep.ok and {"necklace-representativity", "necklace-jacobi"} <= names
    _verdict(8, "necklace jacobi with representative independence at length 4", ok)


def product_fixtures():
    """(name, bimodule over the trivial base, product table on its
    generators, associative?) of the product tables of criterion 9."""
    tables = [
        # e.e = e
        ("idempotent", ["e"], {("e", "e"): "e"}, True),
        # a.a = a, a.b = b, other products zero
        ("composition", ["a", "b"], {("a", "a"): "a", ("a", "b"): "b"}, True),
        # f(e,e) = e, f(e,g) = e, f(g,e) = g; fails first at (e, g, g)
        ("nonassoc", ["e", "g"], {("e", "e"): "e", ("e", "g"): "e", ("g", "e"): "g"}, False),
    ]
    return [(name, BimoduleSpec(FreeAlgebra(()), [Generator(n) for n in names]), f, ok)
            for name, names, f, ok in tables]


def _oracle_assoc(names, table):
    """Brute-force associativity over plain dicts; no package code."""

    def mul(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                w = table.get((a, b))
                if w is None:
                    continue
                out[w] = out.get(w, Fraction(0)) + ca * cb
        return {k: c for k, c in out.items() if c}

    for a in names:
        for b in names:
            for c in names:
                lhs = mul(mul({a: Fraction(1)}, {b: Fraction(1)}), {c: Fraction(1)})
                rhs = mul({a: Fraction(1)}, mul({b: Fraction(1)}, {c: Fraction(1)}))
                if lhs != rhs:
                    return False
    return True


def test_c09_product_tables_against_oracle():
    ok = True
    for name, bm, f, expected in product_fixtures():
        names = [g.name for g in bm.mgens]
        want = _oracle_assoc(names, f)
        got = assoc_product_check(bm, f).ok
        ok = ok and (got == want == expected)
    _verdict(9, "product associativity agrees with an independent oracle", ok)


def test_c10_cli_round_trip_and_exit_codes(capsys):
    ok = True
    for path in sorted(FIXDIR.glob("*.dbr")):
        if path.name == "malformed.dbr":
            continue
        text = path.read_text()
        ok = ok and format_document(parse_document(text)) == text
    codes = [
        main(["check", str(FIXDIR / "f1.dbr")]),
        main(["check", str(FIXDIR / "fail_antisym.dbr")]),
        main(["check", str(FIXDIR / "malformed.dbr")]),
    ]
    capsys.readouterr()
    ok = ok and codes == [0, 1, 2]
    _verdict(10, "corpus round trips and exit codes are 0/1/2", ok)
