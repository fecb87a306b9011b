"""The benchmark's hooks still name functions of the package.

benchmarks/tracing.py times calls by name: BOUNDARIES and PROBES name
functions, and layer_metrics reads the spans of more. A name whose function
is gone or renamed times nothing, and its metrics read 0 without an error.
This test reads the file and changes nothing in it.
"""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# span names that no function of the package has, and why
STALE = {
    "model.forward_logits": "packed scoring replaced it with model.response_logits",
    "mdp.occupancy_tv": "the occupancy TV is a field of mdp.suboptimality_bound's report",
}
# span names the tracer gives to something other than a module function
ALIASES = {"training.adamw": "training.AdamW.step"}


def _tracing():
    name = "benchmark_tracing_under_test"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "benchmarks", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _metric_names(tracing) -> set:
    """The span names layer_metrics reads: the ``name`` argument of every
    call into tracing.py while it runs on no spans."""
    names = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == tracing.__file__:
            value = frame.f_locals.get("name")
            if isinstance(value, str):
                names.add(value)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        tracing.layer_metrics([])
    finally:
        sys.setprofile(previous)
    return names


def _resolves(span_name: str) -> bool:
    """Whether decaypo.<layer> has the callable a span name stands for."""
    layer, *path = ALIASES.get(span_name, span_name).split(".")
    target = importlib.import_module(f"decaypo.{layer}")
    for attr in path:
        target = getattr(target, attr, None)
    return callable(target)


def test_every_hooked_name_resolves_in_the_package():
    tracing = _tracing()
    assert tracing.PACKAGE == "decaypo"
    names = set(tracing.BOUNDARIES) | set(tracing.PROBES) | _metric_names(tracing)
    assert {"mdp.random_mdp", "mdp.soft_value_iteration", "mdp.policy_value",
            "mdp.suboptimality_bound"} <= names
    assert sorted(name for name in names - set(STALE) if not _resolves(name)) == []
    # each listed exception is still named by the hooks and still resolves to nothing
    assert set(STALE) <= names and not any(_resolves(name) for name in STALE)
