"""The names the benchmark tracer wraps must exist where it looks for
them, so that renaming one fails here rather than in the benchmark."""

import importlib.util
from pathlib import Path

import chowkit
import chowkit.cli  # noqa: F401  (the tracer wraps cli names too)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    targets = _load_tracer()._layer_targets(chowkit)
    assert targets
    for name, owner, attr, _, _ in targets:
        assert attr in vars(owner), name


def test_space_cache_is_a_dict():
    # the benchmark reports spaces.cache_entries as len(spaces._CACHE),
    # and 0 when the name is missing
    assert isinstance(chowkit.spaces._CACHE, dict)
