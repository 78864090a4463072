"""The names perfbench/tracing.py wraps still exist in the package.

The tracer looks its functions up by (module, attribute path) when a
benchmark run starts, so a renamed or deleted function would break the
benchmark and nothing else; these tests load the tracer by file path and
resolve every name it lists.
"""

import functools
import importlib
import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"dpoisson.{module}")
    try:
        return callable(functools.reduce(getattr, path.split("."), owner))
    except AttributeError:
        return False


def test_every_traced_name_resolves():
    assert [f"{m}.{p}" for m, p in tracing.TRACED if not _resolves(m, p)] == []


def test_every_package_module_imports():
    for module in tracing.PACKAGE_MODULES:
        importlib.import_module(module)


def test_traced_checks_take_max_len_second():
    # the tracer reads max_len from the second positional argument of these
    # calls (tracing._max_len(args, kwargs, 1)) for their .inputs counters
    checks = [(m, p) for m, p in tracing.TRACED if p.startswith("check_") or p == "dlr_check"]
    assert checks
    for module, path in checks:
        fn = getattr(importlib.import_module(f"dpoisson.{module}"), path)
        params = list(inspect.signature(fn).parameters.values())
        assert params[1].name == "max_len", f"{module}.{path}"
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, f"{module}.{path}"
