"""Import checks for the package, with the stdlib ``ast`` (the project
runs no linter) and fresh interpreters.

Every top-level import of a ``src/frailtykit`` module must be used in that
module, be listed in its ``__all__``, or carry ``# noqa: F401`` on the line
of the name or on the first line of its import statement.

No module imports scipy when it is imported: ``scipy.special`` loads on the
first gamma-family call and ``scipy.optimize`` on the first recovery or
fit, so ``import frailtykit`` and every exponential, Weibull or
log-logistic computation cost numpy alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frailtykit

MODULES = sorted(Path(frailtykit.__file__).parent.glob("*.py"))
SRC = Path(frailtykit.__file__).resolve().parents[1]


def unused_imports(source):
    """The names a module imports at top level and never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            waived = any("# noqa: F401" in lines[n - 1]
                         for n in (node.lineno, alias.lineno))
            if name not in used and not waived:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_dead_imports():
    source = "\n".join([
        "from __future__ import annotations",
        "import math",
        "import os.path",
        "import numpy as np",
        "from json import dumps, loads",
        "from json import (  # noqa: F401",
        "    JSONDecoder,",
        ")",
        "from json import (",
        "    JSONEncoder,  # noqa: F401",
        "    JSONDecodeError,",
        ")",
        "from .hazards import HazardSpec",
        "__all__ = ['HazardSpec']",
        "def f(x: np.ndarray):",
        "    return math.pi * dumps(x)",
    ])
    assert unused_imports(source) == ["os", "loads", "JSONDecodeError"]


def import_time_scipy(source):
    """Line numbers of the scipy imports a module runs when it is imported:
    every one outside a function body."""
    lines = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    assert import_time_scipy(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_import_time_scipy():
    source = "\n".join([
        "import numpy as np",
        "import scipy",
        "from scipy.special import gammaln",
        "import os, scipy.optimize as opt",
        "try:",
        "    from scipy import stats",
        "except ImportError:",
        "    pass",
        "class A:",
        "    from scipy.linalg import solve",
        "def f():",
        "    from scipy.special import gammaincc",
        "    return gammaincc",
        "async def g():",
        "    import scipy.fft",
        "from .scipy import x",
        "import scipyx",
    ])
    assert import_time_scipy(source) == [2, 3, 4, 6, 10]


def scipy_loaded_after(code):
    """Which of scipy.special and scipy.optimize a fresh interpreter has
    loaded after running ``code``, with the frailtykit under test first
    on its path."""
    probe = (code + "\nimport json, sys\nprint(json.dumps({m: m in sys.modules"
             " for m in ('scipy.special', 'scipy.optimize')}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


NO_SCIPY = {"scipy.special": False, "scipy.optimize": False}

# Exponential, Weibull and log-logistic hazards, as CLI model JSON.
POWER_FAMILY_MODEL = {
    "structure": {"kind": "shared", "l1": 2, "l2": 2},
    "hazards": {
        "1": [{"family": "exponential", "gamma": 1.0, "alpha": 0.7},
              {"family": "weibull", "gamma": 1.5, "alpha": 0.5}],
        "2": [{"family": "loglogistic", "gamma": 2.2, "alpha": 0.5},
              {"family": "weibull", "gamma": 0.8, "alpha": 1.0}],
    },
    "frailty": {"atoms": [[0.6], [1.4]], "weights": [0.5, 0.5]},
}

BUILD_MODEL = ("import frailtykit as fk\n"
          f"m = fk.model_from_dict({POWER_FAMILY_MODEL!r})\n")


def test_import_loads_no_scipy():
    assert scipy_loaded_after("import frailtykit, frailtykit.cli") == NO_SCIPY


def test_power_family_models_run_on_numpy_alone(tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(POWER_FAMILY_MODEL))
    code = BUILD_MODEL + "\n".join([
        "from frailtykit import cli, simulate",
        "t = [0.2, 0.5, 1.0, 2.0, 4.0]",
        "fk.joint_sub_distribution_grid(m, t, t)",
        "fk.joint_sub_density_grid(m, t, t)",
        "simulate.simulate_table(m, simulate.SimConfig(n_pairs=500, seed=1))",
        "fk.probe_models(m, m)",
        f"assert cli.run(['validate', '--model', {str(model_path)!r}]) == 0",
    ])
    assert scipy_loaded_after(code) == NO_SCIPY


def test_a_gamma_hazard_loads_scipy_special():
    code = ("import frailtykit as fk\n"
            "fk.hazard_rate(fk.HazardSpec('gamma', 1.6, 0.8), 1.0)")
    assert scipy_loaded_after(code) == {"scipy.special": True,
                                        "scipy.optimize": False}


def test_recovery_loads_scipy_optimize():
    code = BUILD_MODEL + "fk.recover_from_model(m, m, budget=1)"
    assert scipy_loaded_after(code)["scipy.optimize"]
