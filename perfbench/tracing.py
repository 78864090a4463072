"""Layer spans recorded from outside the program.

The tracer wraps public functions of dpoisson in every module namespace
where the package looks them up, so a call made inside the package (say
`run_bracket_checks` calling `check_double_jacobi`, or the CLI calling
`parse_document`) passes through the wrapper and nests under its caller.
Nothing under src/ is edited; the wrappers are removed when tracing ends.

A span is (name, start, end, parent, request).  Spans stay in compact
arrays in memory and are written out once, at the end of the run.  Self
time is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from dpoisson.core import cyclic_class

# (module, attribute path) of every traced function.  Recursive calls of
# eval_words get no span of their own: only the outermost call is timed.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("brackets", "BracketSpec.__init__"),
    ("brackets", "BracketSpec.eval_words"),
    ("brackets", "check_antisymmetry"),
    ("brackets", "check_extension_order"),
    ("brackets", "check_double_jacobi"),
    ("brackets", "check_left_leibniz"),
    ("brackets", "check_necklace_jacobi"),
    ("brackets", "run_bracket_checks"),
    ("brackets", "double_jacobiator"),
    ("brackets", "leibniz_bracket"),
    ("brackets", "necklace_bracket"),
    ("textio", "parse_document"),
    ("textio", "format_document"),
    ("cli", "main"),
    ("dlr", "DLRData.__init__"),
    ("dlr", "dlr_check"),
    ("dlr", "dlr_to_linear"),
    ("calculus", "koszul_bracket"),
    ("calculus", "koszul_square_check"),
    ("calculus", "sn_bracket"),
    ("shifting", "shift_dlr"),
    ("shifting", "verify_shift_equivalence"),
)
OUTERMOST_ONLY = {"brackets.BracketSpec.eval_words"}
PACKAGE_MODULES = ("dpoisson", "dpoisson.core", "dpoisson.reports",
                   "dpoisson.brackets", "dpoisson.dlr", "dpoisson.calculus",
                   "dpoisson.shifting", "dpoisson.textio", "dpoisson.fixtures",
                   "dpoisson.cli")


def _n_words(alg, max_len: int) -> int:
    n = len(alg.gens)
    return sum(n ** k for k in range(max_len + 1))


def _bracket_inputs(name: str, spec, max_len: int) -> int:
    """Word pairs or triples a bracket check is offered; it may stop at
    the first failure."""
    w = _n_words(spec.algebra, max_len)
    if name in ("check_antisymmetry", "check_extension_order"):
        return w * w
    if name in ("check_double_jacobi", "check_left_leibniz"):
        return w ** 3
    # necklace: representative pairs of nonempty words, then class triples
    alg = spec.algebra
    classes = {cls[0] for cls in (cyclic_class(alg, x)
                                  for x in alg.words_up_to(max_len) if x) if cls}
    return (w - 1) ** 2 + len(classes) ** 3


def _dlr_inputs(data, max_len: int) -> int:
    """Inputs dlr_check is offered over its five condition loops."""
    m = sum(1 for _ in data.bimodule.module_words(max_len))
    b = sum(1 for _ in data.bimodule.base_words(max_len))
    return m * m + m * b + m * m + b * m * m + m ** 3


def _max_len(args, kwargs, pos: int, default: int = 3) -> int:
    if "max_len" in kwargs:
        return kwargs["max_len"]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Span store plus per-name totals (calls, self time, extras)."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.request = -1
        self._stack: List[list] = []  # [span index, child time ns]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: Callable, extra: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        outermost = name in OUTERMOST_ONLY
        depth = [0]
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = len(self.start)
            self.start.append(clock())
            self.end.append(0)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.req.append(self.request)
            frame = [idx, 0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[0] -= 1
                dur = t1 - self.start[idx]
                self.end[idx] = t1
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if extra is not None:
                extra(args, kwargs, out)
            return out

        return wrapper

    def _extra_for(self, name: str) -> Optional[Callable]:
        fname = name.rsplit(".", 1)[-1]
        if name == "brackets.BracketSpec.eval_words":
            def terms_out(args, kwargs, out):
                self.extra[name + ".terms_out"] += len(out.terms)
            return terms_out
        if fname.startswith("check_"):
            def inputs(args, kwargs, out):
                self.extra[name + ".inputs"] += _bracket_inputs(
                    fname, args[0], _max_len(args, kwargs, 1))
            return inputs
        if name == "dlr.dlr_check":
            def dlr_inputs(args, kwargs, out):
                self.extra[name + ".inputs"] += _dlr_inputs(
                    args[0], _max_len(args, kwargs, 1))
            return dlr_inputs
        return None

    def install(self):
        """Replace every traced function by its wrapper, wherever the
        package holds a reference to it."""
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            mod = importlib.import_module(f"dpoisson.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, self._extra_for(name))
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original, self._extra_for(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics `<module>.<function>.<stat>` of the spans."""
        out: Dict[str, Tuple[float, str]] = {}
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_ns[name] / 1e9, "s")
        out["brackets.BracketSpec.eval_words.terms_out"] = (
            self.extra["brackets.BracketSpec.eval_words.terms_out"], "count")
        for mod_name, path in TRACED:
            if path.startswith("check_") or path == "dlr_check":
                name = f"{mod_name}.{path}.inputs"
                out[name] = (self.extra[name], "count")
        return out

    def self_total_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def write(self, path, header: dict):
        """Write every span, columnwise, as gzipped JSON."""
        body = {
            "run": header,
            "clock": "perf_counter_ns",
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "request": self.req.tolist(),
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(body, fh, separators=(",", ":"))

