"""The benchmark tracer's span targets must name functions the package has."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, name) for module, name in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"framelat.{module}"), name, None))]
    assert tracer.TARGETS and not missing
