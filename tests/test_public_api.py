"""Contract tests for the public API surface.

Every name a package exports must resolve, and every public callable must
carry a docstring — the minimum bar for "a library a downstream user would
adopt".
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.workload",
    "repro.telemetry",
    "repro.stats",
    "repro.analysis",
    "repro.viz",
    "repro.obs",
    "repro.parallel",
    "tests.faults",
    "repro.runtime",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert getattr(package, name, None) is not None, (
            f"{package_name}.__all__ lists {name!r} but it does not resolve"
        )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_callables_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, (
        f"{package_name} exports callables without docstrings: {undocumented}"
    )


def test_version_is_consistent():
    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_lazy_root_exports():
    import repro

    assert repro.AutoSens.__name__ == "AutoSens"
    assert callable(repro.owa_scenario)
    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_error_hierarchy():
    from repro import errors

    for name in ("SchemaError", "EmptyDataError", "InsufficientDataError",
                 "ConfigError", "PrivacyError", "DeadlineExceededError",
                 "CircuitOpenError", "MemoryBudgetError"):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)
