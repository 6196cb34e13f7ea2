"""Public API surface: everything advertised in __all__ exists and the
documented import paths work."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.datagen",
    "repro.eval",
    "repro.features",
    "repro.gbdt",
    "repro.nn",
    "repro.obs",
    "repro.serving",
    "repro.store",
    "repro.text",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_module_docstrings_present(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and package.__doc__.strip()


def test_readme_quickstart_imports():
    from repro import (  # noqa: F401
        DataConfig,
        DocumentEncoder,
        JointModelConfig,
        JointUserEventModel,
        RepresentationService,
        RepresentationTrainer,
        TrainingConfig,
        build_dataset,
    )


def test_spans_module_folded_into_trace():
    # One module owns the span mechanism; the old path is gone, not shimmed.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.spans")
    from repro.obs.trace import Span, Tracer, record_stage, span  # noqa: F401


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_every_public_class_documented():
    """Every public callable exported by the top-level package carries
    a docstring — the (e) documentation deliverable, enforced."""
    import repro

    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"
