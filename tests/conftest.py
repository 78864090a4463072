import pathlib

from dpoisson.textio import parse_document

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# (label, file, block) of the corpus dlr structures that pass every
# condition, and of those that fail one
GOOD_DLRS = [("zero", "zero.dbr", "ZERO"), ("idempotent", "idempotent.dbr", "IDEM"),
             ("koszul-f2", "koszul_f2.dbr", "K")]
BROKEN_DLRS = [("flipped-anchor", "flipped_anchor.dbr", "KBAD"),
               ("dropped-term", "dropped_term.dbr", "KBAD")]


def block(file: str, name: str):
    """The block `name` of fixtures/`file`, from a fresh parse on every call,
    so callers may mutate its caches."""
    doc = parse_document((FIXDIR / file).read_text())
    return {**doc.algebras, **doc.bimodules, **doc.brackets, **doc.dlrs}[name]


def dlr_fixtures() -> list:
    return [(label, block(file, name)) for label, file, name in GOOD_DLRS]


def broken_dlr_fixtures() -> list:
    return [(label, block(file, name)) for label, file, name in BROKEN_DLRS]
