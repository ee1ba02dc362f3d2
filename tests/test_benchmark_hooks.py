"""The names the benchmark's tracer hooks into must keep existing.

perfbench/tracing.py wraps package functions by attribute path and reads a
few more at run time. It is loaded here read-only, so a removal or rename in
the package fails tier-1 instead of breaking only the traced benchmark run.
"""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

import alleechain
from alleechain import GeneratorMatrix, master_eq, psd_product

from conftest import FIG_A, make_params

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """Execute tracing.py from its source; no bytecode is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING_PATH.read_text(), str(TRACING_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_resolves():
    tracing = _load_tracing()
    assert tracing.TRACED
    for span_name, module_name, path, _ in tracing.TRACED:
        owner = importlib.import_module(f"{alleechain.__name__}.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{span_name}: {module_name}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), span_name


def test_evolve_keeps_the_traced_signature():
    params = inspect.signature(master_eq.evolve).parameters
    # the tracer reads the horizon as args[2] or kwargs["t"]
    assert list(params)[2] == "t"
    assert params["truncation_tol"].default is not inspect.Parameter.empty
    gen = GeneratorMatrix([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
    assert _load_tracing()._evolve_terms(gen, 1.0, None) > 0


def test_generator_keeps_rate_and_dimension():
    gen = GeneratorMatrix([1.0, 2.0, 0.0], [0.0, 1.0, 4.0])
    assert gen.dimension == 3
    assert gen.uniformization_rate() > 4.0  # max of b + d, with a margin


def test_stationary_keeps_the_traced_capacity():
    # the psd_product and to_csv extractors read capacity_n off the distribution
    dist = psd_product(make_params(FIG_A, 100))
    assert dist.capacity_n == 100
    extractors = {name: info for name, _, _, info in _load_tracing().TRACED}
    assert extractors["stationary.psd_product"]((), {}, dist) == 101
    assert extractors["stationary.to_csv"]((dist, None), {}, None) == 101
