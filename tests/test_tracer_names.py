"""The benchmark's tracer wraps qsl2 functions by name; a rename in the
package must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import os

from qsl2.qring import Laurent

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for layers in (tracer.SPANNED, tracer.COUNTED):
        for mod, fns in layers.items():
            module = importlib.import_module(f"qsl2.{mod}")
            missing += [
                f"qsl2.{mod}.{fn}" for fn in fns if not callable(getattr(module, fn, None))
            ]
    for methods in tracer.LAURENT_OPS.values():
        missing += [f"Laurent.{m}" for m in methods if not hasattr(Laurent, m)]
    assert missing == []
    suites = importlib.import_module("qsl2.verify").SUITES
    assert suites and all(callable(fn) for fn in suites.values())
