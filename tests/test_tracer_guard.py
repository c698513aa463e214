"""The per-layer tracer in perfbench/ still finds every function it wraps.

`perfbench/tracer.py` resolves each name in its TARGETS table on the loaded
ksphere modules; a renamed or deleted layer function makes `install()` raise
KeyError, which would otherwise only show when a traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from ksphere import (  # noqa: F401  (the tracer wraps functions of these modules)
    characters,
    cli,
    cyclotomic,
    dixon,
    groups,
    kernels,
    ktheory,
    lattice,
    verification,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_restores():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        assert set(t.originals) == set(tracer.LAYER_NAMES)
    finally:
        assert t.restore()
