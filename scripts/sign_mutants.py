#!/usr/bin/env python3
"""Sign-mutation survey of a dpoisson checkout.

Each mutant changes one sign site of src/dpoisson and nothing else:

  sign_exp   a call sign_exp(...) replaced by the constant 1;
  parity     the parity test of Sparse.permute read as even;
  has_odd    a read of FreeAlgebra.has_odd replaced by False;
  negation   a negated coefficient passed to bilinear, outer or inner
             (-1, -s) replaced by its operand.

Every mutant runs the given test selection with -x in its own copy of the
checkout, two at a time, and the survey prints one line per site:
file, line, caught or survived, and the first failing test.  A site that
survives is a sign no test in the selection depends on.

    python3 scripts/sign_mutants.py                      # all of tests/
    python3 scripts/sign_mutants.py --root ../other-checkout tests/test_brackets.py

It is far too slow for the Tier-1 suite: each surviving mutant costs one
full run of the selection.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
JOBS = 2         # mutants run at a time
TIMEOUT = 900.0  # seconds per run of the selection; a hung mutant reads "(timeout)"


def sites(path: pathlib.Path) -> list:
    """(line, col, end_line, end_col, replacement, kind) of every sign site
    of one source file, in source order."""
    text = path.read_text()
    actions = ("bilinear", "outer", "inner")  # a negated coefficient passed to one is a site
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sign_exp":
            found.append((node, "1", "sign_exp"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in actions:
            for arg in (*node.args, *(k.value for k in node.keywords)):
                if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
                    found.append((arg, ast.get_source_segment(text, arg.operand), "negation"))
        elif (isinstance(node, ast.Attribute) and node.attr == "has_odd"
              and isinstance(node.ctx, ast.Load)):
            found.append((node, "False", "has_odd"))
        elif isinstance(node, ast.FunctionDef) and node.name == "permute":
            for sub in ast.walk(node):
                if isinstance(sub, ast.IfExp) and getattr(sub.test, "id", None) == "odd":
                    found.append((sub.test, "0", "parity"))
    return sorted((n.lineno, n.col_offset, n.end_lineno, n.end_col_offset, rep, kind)
                  for n, rep, kind in found)


def mutate(text: str, site: tuple) -> str:
    """The source text with one site replaced."""
    line, col, end_line, end_col, rep, _ = site
    lines = text.splitlines(keepends=True)
    start = sum(map(len, lines[:line - 1])) + col
    end = sum(map(len, lines[:end_line - 1])) + end_col
    return text[:start] + rep + text[end:]


def run_tests(root: pathlib.Path, selection: list) -> Optional[str]:
    """None when the selection passes, else the first failing test."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *selection]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "(timeout)"
    if done.returncode == 0:
        return None
    m = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return m.group(1) if m else f"(pytest exit {done.returncode})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=pathlib.Path, default=HERE.parent,
                    help="checkout to survey (default: this one)")
    ap.add_argument("selection", nargs="*", default=["tests"], help="pytest selection")
    args = ap.parse_args()
    root = args.root.resolve()

    src = root / "src" / "dpoisson"
    todo = [(f, s) for f in sorted(src.glob("*.py")) for s in sites(f)]
    with tempfile.TemporaryDirectory(prefix="sign-mutants-") as tmp:
        base = pathlib.Path(tmp) / "base"
        shutil.copytree(root, base, ignore=IGNORE)
        first = run_tests(base, args.selection)
        if first is not None:
            print(f"unmutated selection fails at {first}; nothing to survey", file=sys.stderr)
            return 2

        def one(k: int):
            f, site = todo[k]
            copy = pathlib.Path(tmp) / f"m{k}"
            shutil.copytree(base, copy)
            target = copy / f.relative_to(root)
            target.write_text(mutate(f.read_text(), site))
            try:
                return run_tests(copy, args.selection)
            finally:
                shutil.rmtree(copy, ignore_errors=True)

        survived = 0
        with ThreadPoolExecutor(JOBS) as pool:
            for (f, site), first in zip(todo, pool.map(one, range(len(todo)))):
                line, col, *_, kind = site
                verdict = "survived" if first is None else "caught"
                survived += first is None
                print(f"{f.name}:{line}:{col}  {kind:8}  {verdict:8}  {first or '-'}", flush=True)
    print(f"{len(todo)} sites, {len(todo) - survived} caught, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
