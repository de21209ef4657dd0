"""The traced benchmark's boundary list resolves in the package.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``BOUNDARIES``
by lookup, so renaming or deleting one of those functions breaks the traced
benchmark run.  This check reads the list from the file as it is and fails
here first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


def _resolve(module_name, attr):
    module = importlib.import_module(f"frailtykit.{module_name}")
    owner_name, _, method = attr.partition(".")
    if method:
        # the tracer patches methods through the class dict
        return vars(getattr(module, owner_name)).get(method)
    return getattr(module, attr, None)


def test_every_traced_boundary_resolves():
    boundaries = _boundaries()
    assert len(boundaries) > 40
    missing = [f"{module_name}.{attr}" for module_name, attr, *_ in boundaries
               if not callable(_resolve(module_name, attr))]
    assert missing == []
