"""The benchmark's tracer wraps claimtree functions by name; a rename in the
package would silently empty a per-layer metric. Check every target resolves."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.TARGETS
               if tracing._resolve(mod, attr) is None]
    assert missing == []
