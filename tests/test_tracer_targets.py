"""The benchmark's span tracer names package functions by attribute path;
each of those paths must resolve, so renaming or deleting a traced name
fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "campaign_bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("campaign_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("path", sorted(_targets().values()))
def test_tracer_target_resolves(path):
    mod_name, *owner_path, attr = path.split(".")
    owner = importlib.import_module(f"g2twistor.{mod_name}")
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), path  # the tracer patches the defining namespace
