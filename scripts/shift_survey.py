#!/usr/bin/env python3
"""Survey the shift family: for every dlr structure of fixtures/ and a
range of shift amounts, confirm the round trip is exact and the shifted
data fails or passes each condition exactly as the original does."""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dpoisson.shifting import shift_dlr, verify_shift_equivalence
from dpoisson.textio import parse_document

FIXDIR = ROOT / "fixtures"
# (label, file, dlr block) of the surveyed structures
STRUCTURES = [
    ("zero", "zero.dbr", "ZERO"),
    ("idempotent", "idempotent.dbr", "IDEM"),
    ("koszul-f2", "koszul_f2.dbr", "K"),
    ("flipped-anchor", "flipped_anchor.dbr", "KBAD"),
    ("dropped-term", "dropped_term.dbr", "KBAD"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-delta", type=int, default=2)
    ap.add_argument("--max-len", type=int, default=3)
    args = ap.parse_args()

    deltas = [d for d in range(-args.max_delta, args.max_delta + 1) if d != 0]
    bad = 0
    for name, file, block in STRUCTURES:
        data = parse_document((FIXDIR / file).read_text()).dlrs[block]
        for delta in deltas:
            equiv = verify_shift_equivalence(data, delta, max_len=args.max_len).ok
            invol = shift_dlr(shift_dlr(data, delta), -delta) == data
            mark = "ok" if equiv and invol else "MISMATCH"
            if mark != "ok":
                bad += 1
            print(f"{name:16} delta {delta:+d}   equivalence {str(equiv):5}  "
                  f"involution {str(invol):5}  {mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
