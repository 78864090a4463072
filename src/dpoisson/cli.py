"""Command line driver.

Exit codes: 0 when every requested check passes (or a computation or
construction succeeds), 1 when some axiom or equivalence check fails
(including construction preconditions like feeding a non double Poisson
bracket to koszul), 2 on input errors: missing, unreadable or non-UTF-8
files, parse errors, unknown names, malformed words.

The argument parser is built once per process, on the first `main` call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .brackets import (
    BracketSpec,
    double_jacobiator,
    leibniz_bracket,
    necklace_bracket,
    render_cyclic,
    run_bracket_checks,
)
from .calculus import DerPresentation, koszul_bracket, sn_bracket
from .dlr import dlr_check
from .shifting import shift_dlr, verify_shift_equivalence
from .textio import Document, DocumentError, format_document, parse_document


class InputError(Exception):
    pass


def _load(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})")
    return parse_document(text)


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise InputError(f"no {kind} named '{name}'")
    return table[name]


def _word(spec: BracketSpec, text: str):
    try:
        return spec.algebra.word(text)
    except KeyError as e:
        if "''" in e.args[0]:
            raise InputError(f"malformed word {text!r}")
        raise InputError(e.args[0])


def _write(path: str, algebra: str, shift, module: str, bimodule, kind: str, name: str, obj):
    """Write an algebra, a bimodule over it, and one bracket or dlr block on
    that bimodule."""
    doc = Document()
    doc.add("algebra", algebra, (bimodule.base, shift))
    doc.add("bimodule", module, bimodule, algebra)
    doc.add(kind, name, obj, module)
    try:
        with open(path, "w") as fh:
            fh.write(format_document(doc))
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}")


def _cmd_check(args) -> int:
    doc = _load(args.file)
    reports = []
    for kind, table, run in (("bracket", doc.brackets, run_bracket_checks),
                             ("dlr", doc.dlrs, dlr_check)):
        for name, obj in table.items():
            t0 = time.monotonic()
            rep = run(obj, max_len=args.max_len)
            rep.wall_time = time.monotonic() - t0
            rep.subject = f"{kind} {name}"
            reports.append(rep)
    show_time = not args.no_time
    ok = all(r.ok for r in reports)
    if args.format == "json":
        body = {
            "max_len": args.max_len,
            "result": "pass" if ok else "fail",
            "reports": [r.to_dict(show_time) for r in reports],
        }
        print(json.dumps(body, indent=2))
    else:
        if not reports:
            print("nothing to check")
        for i, rep in enumerate(reports):
            if i:
                print()
            print(rep.render(show_time))
    return 0 if ok else 1


def _monomials(spec: BracketSpec, words) -> list:
    return [spec.algebra.poly({w: 1}) for w in words]


# commands that evaluate a bracket on words:
# name -> (help, metavar, number of words, rendered value of the parsed words)
_WORD_COMMANDS = {
    "eval": ("evaluate a bracket on two words", "EXPR", 2,
             lambda spec, ws: spec.eval_words(*ws).render()),
    "jacobiator": ("evaluate the double jacobiator on three words", "EXPR", 3,
                   lambda spec, ws: double_jacobiator(spec, *_monomials(spec, ws)).render()),
    "leibniz": ("evaluate the multiplied bracket on two words", "EXPR", 2,
                lambda spec, ws: leibniz_bracket(spec, *_monomials(spec, ws)).render()),
    "necklace": ("bracket of two cyclic word classes", "WORD", 2,
                 lambda spec, ws: render_cyclic(spec.algebra, necklace_bracket(spec, *ws))),
}


def _cmd_words(args) -> int:
    spec = _named(_load(args.file).brackets, "bracket", args.bracket)
    words = [_word(spec, text) for text in args.words]
    try:
        out = args.evaluate(spec, words)
    except ValueError as e:
        raise InputError(str(e))
    print(out)
    return 0


def _cmd_koszul(args) -> int:
    doc = _load(args.file)
    spec = _named(doc.brackets, "bracket", args.bracket)
    try:
        data = koszul_bracket(spec)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    on = doc.ref(args.bracket)
    _write(args.output, on, spec.shift, f"omega_{on}", data.bimodule,
           "dlr", f"koszul_{args.bracket}", data)
    return 0


def _cmd_sn(args) -> int:
    alg, shift = _named(_load(args.file).algebras, "algebra", args.algebra)
    try:
        spec = sn_bracket(alg, shift)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _write(args.output, args.algebra, shift, f"der_{args.algebra}",
           DerPresentation(alg, shift).bimodule, "bracket", f"sn_{args.algebra}", spec)
    return 0


def _cmd_shift(args) -> int:
    doc = _load(args.file)
    shifted = shift_dlr(_named(doc.dlrs, "dlr", args.dlr), args.delta)
    module = doc.ref(args.dlr)
    _write(args.output, doc.ref(module), shifted.shift, module, shifted.bimodule,
           "dlr", args.dlr, shifted)
    return 0


def _cmd_verify_shift(args) -> int:
    data = _named(_load(args.file).dlrs, "dlr", args.dlr)
    rep = verify_shift_equivalence(data, args.delta, args.max_len)
    print(rep.render())
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dpoisson",
        description="exact checks and constructions for shifted double brackets",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
        return n

    def command(name, func, summary, *, named=None, delta=False, max_len=False, output=False):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("file")
        if named:
            sp.add_argument(f"--{named}", required=True)
        if delta:
            sp.add_argument("--delta", type=int, required=True)
        if max_len:
            sp.add_argument("--max-len", type=positive_int, default=3, metavar="N",
                            help="word length bound for checks, at least 1 (default 3)")
        if output:
            sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(func=func)
        return sp

    sp = command("check", _cmd_check, "run the axiom suites on every bracket and dlr",
                 max_len=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--no-time", action="store_true",
                    help="omit wall-time lines (for reproducible output)")
    for name, (summary, metavar, count, evaluate) in _WORD_COMMANDS.items():
        sp = command(name, _cmd_words, summary, named="bracket")
        sp.add_argument("words", nargs=count, metavar=metavar)
        sp.set_defaults(evaluate=evaluate)
    command("koszul", _cmd_koszul, "write the form calculus of a double Poisson bracket",
            named="bracket", output=True)
    command("sn", _cmd_sn, "write the double derivation bracket of an algebra",
            named="algebra", output=True)
    command("shift", _cmd_shift, "write the degree-shifted dlr data",
            named="dlr", delta=True, output=True)
    command("verify-shift", _cmd_verify_shift,
            "per-axiom verdict agreement between data and its shift",
            named="dlr", delta=True, max_len=True)
    return p


_parser = None  # build_parser(), made by the first main call; holds no per-call state


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    # output is exact, so integers of any length are read and printed; the
    # interpreter's int/str digit limit (Python >= 3.10.7) is lifted for
    # this call only, argument parsing included
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except (InputError, DocumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
