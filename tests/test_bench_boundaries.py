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


def test_attributes_the_benchmark_reads_directly_resolve():
    # besides BOUNDARIES, bench/ reads these module attributes by name (its
    # tracer test checks that model._hazard_array is patched and restored)
    from frailtykit import hazards, identifiability, model, simulate
    from frailtykit._quad import integrate

    assert model._hazard_array is hazards._hazard_array
    assert model.integrate is integrate
    assert callable(simulate._invert_total_load)
    assert isinstance(identifiability._Parametrization, type)
    assert callable(identifiability._Parametrization.unpack)
