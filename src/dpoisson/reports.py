"""Structured pass/fail verdicts for axiom checks.

A report is a list of per-axiom entries plus the truncation bound and the
wall time.  Rendering is deterministic for fixed input; the wall-time line
can be suppressed so two runs compare byte for byte.

Every check yields its failures, one (witness, residual) pair per failing
input in enumeration order, and `CheckReport.first_failure` records the
first of them, or a PASS when there is none.  Failures are read lazily, so
a check stops at its first failing input, except that double Jacobi
evaluates every triple, once per rotation orbit, for its cyclic-stability
entry and reports the first failure in order.
The left-leibniz and necklace-jacobi entries may pass with no input
enumerated, by a fact an earlier check on the same spec recorded (see
`brackets`); a failure is always found by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class AxiomCheck:
    axiom: str
    passed: bool
    witness: Optional[str] = None  # first violating input, rendered
    residual: Optional[str] = None  # nonzero residual, rendered

    def line(self) -> str:
        if self.passed:
            return f"{self.axiom}: PASS"
        out = f"{self.axiom}: FAIL"
        if self.witness is not None:
            out += f" at {self.witness}"
        if self.residual is not None:
            out += f"  residual: {self.residual}"
        return out

    def to_dict(self) -> dict:
        d = {"axiom": self.axiom, "verdict": "pass" if self.passed else "fail"}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.residual is not None:
            d["residual"] = self.residual
        return d


@dataclass
class CheckReport:
    subject: str
    max_len: int
    entries: list = field(default_factory=list)
    wall_time: Optional[float] = None

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def first_failure(self, axiom: str, failures: Iterable) -> "CheckReport":
        """Record axiom as failing at the first (witness, residual) pair of
        failures, or as passing when failures is empty; the one place a
        verdict is recorded."""
        fail = next(iter(failures), None)
        self.entries.append(AxiomCheck(axiom, True) if fail is None
                            else AxiomCheck(axiom, False, *fail))
        return self

    def entry(self, axiom: str) -> AxiomCheck:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    def verdict_vector(self) -> tuple:
        return tuple((e.axiom, e.passed) for e in self.entries)

    def merge(self, other: "CheckReport") -> "CheckReport":
        self.entries.extend(other.entries)
        return self

    def render(self, show_time: bool = True) -> str:
        lines = [f"check {self.subject} (max-len {self.max_len})"]
        lines += [e.line() for e in self.entries]
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        if show_time and self.wall_time is not None:
            lines.append(f"wall-time: {self.wall_time:.3f}s")
        return "\n".join(lines)

    def to_dict(self, show_time: bool = True) -> dict:
        d = {
            "subject": self.subject,
            "max_len": self.max_len,
            "entries": [e.to_dict() for e in self.entries],
            "result": "pass" if self.ok else "fail",
        }
        if show_time and self.wall_time is not None:
            d["wall_time"] = round(self.wall_time, 3)
        return d
