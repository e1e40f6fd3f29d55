"""perfbench/tracing.py wraps package functions by name; every name it
lists must still exist, or a traced benchmark pass fails to start."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _load_tracing()
    assert set(tracing.TARGETS) <= set(tracing.LAYERS)
    missing = []
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"opnbounds.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
