"""The forms of the f2 bracket as Python data, for the benchmark under
perfbench/.  Every other example structure lives only in fixtures/*.dbr;
this copy goes once the benchmark reads fixtures/koszul_f2.dbr instead."""

from __future__ import annotations

from .core import FreeAlgebra, Generator, ShiftContext, tensor2
from .dlr import BimoduleSpec, DLRData


def koszul_f2_tables() -> DLRData:
    """The `K` block of fixtures/koszul_f2.dbr: the forms of
    {{x,x}} = x (x) 1 - 1 (x) x with their tables written out by hand."""
    bm = BimoduleSpec(FreeAlgebra((Generator("x"),)), [Generator("dx")])
    amb = bm.ambient
    return DLRData(
        bm, ShiftContext(0),
        {("dx", "x"): tensor2(amb, ("x", "1"), ("1", "x", -1))},
        {("dx", "dx"): (tensor2(amb, ("dx", "1")), tensor2(amb, ("1", "dx", -1)))},
    )
