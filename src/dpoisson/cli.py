"""Command line driver.

Exit codes: 0 when every requested check passes (or a computation or
construction succeeds), 1 when some axiom or equivalence check fails
(including construction preconditions like feeding a non double Poisson
bracket to koszul), 2 on input errors: missing files, parse errors,
unknown names, malformed words.
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
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    return parse_document(text)


def _bracket(doc: Document, name: str) -> BracketSpec:
    if name not in doc.brackets:
        raise InputError(f"no bracket named '{name}'")
    return doc.brackets[name]


def _dlr(doc: Document, name: str):
    if name not in doc.dlrs:
        raise InputError(f"no dlr named '{name}'")
    return doc.dlrs[name]


def _word(spec: BracketSpec, text: str):
    try:
        return spec.algebra.word(text)
    except KeyError as e:
        if "''" in e.args[0]:
            raise InputError(f"malformed word {text!r}")
        raise InputError(e.args[0])


def _entry_field(doc: Document, kind: str, name: str, pos: int) -> str:
    for e in doc.entries:
        if e[0] == kind and e[1] == name:
            return e[pos]
    raise InputError(f"no {kind} named '{name}'")


def _write_doc(doc: Document, path: str):
    try:
        with open(path, "w") as fh:
            fh.write(format_document(doc))
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}")


def _cmd_check(args) -> int:
    doc = _load(args.file)
    reports = []
    for name, spec in doc.brackets.items():
        t0 = time.monotonic()
        rep = run_bracket_checks(spec, max_len=args.max_len)
        rep.wall_time = time.monotonic() - t0
        rep.subject = f"bracket {name}"
        reports.append(rep)
    for name, data in doc.dlrs.items():
        t0 = time.monotonic()
        rep = dlr_check(data, max_len=args.max_len)
        rep.wall_time = time.monotonic() - t0
        rep.subject = f"dlr {name}"
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


def _cmd_eval(args) -> int:
    doc = _load(args.file)
    spec = _bracket(doc, args.bracket)
    w1 = _word(spec, args.exprs[0])
    w2 = _word(spec, args.exprs[1])
    print(spec.eval_words(w1, w2).render())
    return 0


def _cmd_jacobiator(args) -> int:
    doc = _load(args.file)
    spec = _bracket(doc, args.bracket)
    alg = spec.algebra
    ps = [alg.poly({_word(spec, e): 1}) for e in args.exprs]
    print(double_jacobiator(spec, *ps).render())
    return 0


def _cmd_leibniz(args) -> int:
    doc = _load(args.file)
    spec = _bracket(doc, args.bracket)
    alg = spec.algebra
    p1 = alg.poly({_word(spec, args.exprs[0]): 1})
    p2 = alg.poly({_word(spec, args.exprs[1]): 1})
    print(leibniz_bracket(spec, p1, p2).render())
    return 0


def _cmd_necklace(args) -> int:
    doc = _load(args.file)
    spec = _bracket(doc, args.bracket)
    w1 = _word(spec, args.words[0])
    w2 = _word(spec, args.words[1])
    try:
        out = necklace_bracket(spec, w1, w2)
    except ValueError as e:
        raise InputError(str(e))
    print(render_cyclic(spec.algebra, out))
    return 0


def _cmd_koszul(args) -> int:
    doc = _load(args.file)
    spec = _bracket(doc, args.bracket)
    on = _entry_field(doc, "bracket", args.bracket, 2)
    try:
        data = koszul_bracket(spec)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = Document()
    out.add_algebra(on, spec.algebra, spec.shift)
    omega_name = f"omega_{on}"
    out.add_bimodule(omega_name, data.bimodule, on)
    out.add_dlr(f"koszul_{args.bracket}", data, omega_name)
    _write_doc(out, args.output)
    return 0


def _cmd_sn(args) -> int:
    doc = _load(args.file)
    if args.algebra not in doc.algebras:
        raise InputError(f"no algebra named '{args.algebra}'")
    alg, shift = doc.algebras[args.algebra]
    try:
        spec = sn_bracket(alg, shift)
    except (RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = Document()
    out.add_algebra(args.algebra, alg, shift)
    der_name = f"der_{args.algebra}"
    out.add_bimodule(der_name, DerPresentation(alg, shift).bimodule, args.algebra)
    out.add_bracket(f"sn_{args.algebra}", spec, der_name)
    _write_doc(out, args.output)
    return 0


def _cmd_shift(args) -> int:
    doc = _load(args.file)
    data = _dlr(doc, args.dlr)
    module_name = _entry_field(doc, "dlr", args.dlr, 2)
    over_name = _entry_field(doc, "bimodule", module_name, 2)
    shifted = shift_dlr(data, args.delta)
    out = Document()
    out.add_algebra(over_name, shifted.bimodule.base, shifted.shift)
    out.add_bimodule(module_name, shifted.bimodule, over_name)
    out.add_dlr(args.dlr, shifted, module_name)
    _write_doc(out, args.output)
    return 0


def _cmd_verify_shift(args) -> int:
    doc = _load(args.file)
    data = _dlr(doc, args.dlr)
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

    def with_maxlen(sp):
        sp.add_argument("--max-len", type=positive_int, default=3, metavar="N",
                        help="word length bound for checks, at least 1 (default 3)")

    sp = sub.add_parser("check", help="run the axiom suites on every bracket and dlr")
    sp.add_argument("file")
    with_maxlen(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--no-time", action="store_true",
                    help="omit wall-time lines (for reproducible output)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("eval", help="evaluate a bracket on two words")
    sp.add_argument("file")
    sp.add_argument("--bracket", required=True)
    sp.add_argument("exprs", nargs=2, metavar="EXPR")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("jacobiator", help="evaluate the double jacobiator on three words")
    sp.add_argument("file")
    sp.add_argument("--bracket", required=True)
    sp.add_argument("exprs", nargs=3, metavar="EXPR")
    sp.set_defaults(func=_cmd_jacobiator)

    sp = sub.add_parser("leibniz", help="evaluate the multiplied bracket on two words")
    sp.add_argument("file")
    sp.add_argument("--bracket", required=True)
    sp.add_argument("exprs", nargs=2, metavar="EXPR")
    sp.set_defaults(func=_cmd_leibniz)

    sp = sub.add_parser("necklace", help="bracket of two cyclic word classes")
    sp.add_argument("file")
    sp.add_argument("--bracket", required=True)
    sp.add_argument("words", nargs=2, metavar="WORD")
    sp.set_defaults(func=_cmd_necklace)

    sp = sub.add_parser("koszul", help="write the form calculus of a double Poisson bracket")
    sp.add_argument("file")
    sp.add_argument("--bracket", required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_koszul)

    sp = sub.add_parser("sn", help="write the double derivation bracket of an algebra")
    sp.add_argument("file")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_sn)

    sp = sub.add_parser("shift", help="write the degree-shifted dlr data")
    sp.add_argument("file")
    sp.add_argument("--dlr", required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_shift)

    sp = sub.add_parser("verify-shift",
                        help="per-axiom verdict agreement between data and its shift")
    sp.add_argument("file")
    sp.add_argument("--dlr", required=True)
    sp.add_argument("--delta", type=int, required=True)
    with_maxlen(sp)
    sp.set_defaults(func=_cmd_verify_shift)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DocumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
