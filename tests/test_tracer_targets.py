"""Every name the benchmark's tracer wraps must exist in the package.

``bench/tracer.py`` replaces module-global names such as
``gaussid.solver.linearize`` with timing wrappers; a name that no longer
resolves breaks ``bench/run.py --trace 1``, and a layer that is no longer
called through its name reads 0 in the trace.  The only imports a module
may leave unused are names that the tracer wraps there.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import gaussid
import gaussid.model as model
import gaussid.solver as solver
from gaussid.evidence import EvidenceSpec
from gaussid.model import Add, Const, Diagram, Mul, Var, basic, deterministic, evidence
from gaussid.transforms import PriorSpec, Transform

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("module,attribute", [(m, a) for m, a, _ in TARGETS])
def test_tracer_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def unused_imports(source: str) -> set[str]:
    """Names a module imports at top level but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in stmt.names}
        elif isinstance(stmt, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in stmt.targets]:
            exported = set(ast.literal_eval(stmt.value))
    return bound - exported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport re\nfrom m import a, b as c\n"
    assert unused_imports(source + "__all__ = ['c']\nre.compile(a)\n") == {"os"}


@pytest.mark.parametrize(
    "path", sorted(Path(gaussid.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_an_unused_import_is_a_tracer_target(path):
    module = "gaussid" if path.stem == "__init__" else f"gaussid.{path.stem}"
    targets = {attribute for m, attribute, _ in TARGETS if m == module}
    assert unused_imports(path.read_text(encoding="utf-8")) - targets == set()


def test_step_reaches_each_layer_once(monkeypatch):
    """The ``solver.linearize`` and ``solver.update_means`` spans time one call
    each per step.  ``initialize`` walks each deterministic expression once,
    at the prior point, which is the first linearization; so iteration 1
    walks none, and iteration 2 walks the ones whose parents moved."""
    ts = Transform("scaled", 0.0, 1.0)
    look = EvidenceSpec(variant="normal_known_var", count=1, sample_mean=0.5, variance=0.4)
    d = Diagram.from_nodes(
        [
            basic("x", PriorSpec(family="normal", transform=ts, mean=1.0, variance=0.5)),
            basic("y", PriorSpec(family="normal", transform=ts, mean=-0.5, variance=0.3)),
            deterministic("z", ts, Add(Mul(Const(2.0), Var("x")), Var("y"))),  # linear
            deterministic("w", ts, Mul(Var("x"), Var("y"))),
            deterministic("v", ts, Mul(Var("z"), Var("w"))),
            evidence("v_obs", "v", look),
        ]
    )
    calls = {"linearize": 0, "update_means": 0, "walks": 0}
    for name in ("linearize", "update_means"):
        fn = getattr(solver, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, counted)
    walk, depth = model.value_and_gradient, [0]

    def outermost(e, env):  # the walk recurses through the module global
        calls["walks"] += depth[0] == 0
        depth[0] += 1
        try:
            return walk(e, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(model, "value_and_gradient", outermost)
    state = solver.initialize(d)
    assert calls == {"linearize": 0, "update_means": 0, "walks": 3}
    solver.step(state)
    assert calls == {"linearize": 1, "update_means": 1, "walks": 3}
    assert (state.post_y[:2] != [1.0, -0.5]).all()  # x and y moved, so z, w and v walk again
    solver.step(state)
    assert calls == {"linearize": 2, "update_means": 2, "walks": 6}
