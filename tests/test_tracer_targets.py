"""Every name the benchmark's tracer wraps must exist in the package.

``bench/tracer.py`` replaces module-global names such as
``gaussid.solver.linearize`` with timing wrappers; a name that no longer
resolves breaks ``bench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("module,attribute", [(m, a) for m, a, _ in TARGETS])
def test_tracer_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
