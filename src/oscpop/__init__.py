"""Population dynamics under a time-varying carrying capacity.

The package couples a logistic growth law to capacity schedules that
change over time (square waves, sinusoids, tabulated data) and provides
closed-form solutions where they exist, adaptive numerical integration
where they do not, analysis of periodic steady states, and the discrete
logistic update map with its period-doubling cascade.

``import oscpop`` loads no submodule. The first public name asked of
the package (or ``__all__``, or ``dir``) imports the six submodules
below and binds their public names here, as star imports would; a
submodule asked for by its own name, such as ``oscpop.cli``, loads only
what it imports.
"""
import importlib
import importlib.util

__version__ = "0.1.0"

# the submodules whose public names the package re-exports, in __all__ order
_SUBMODULES = ("capacity", "closedform", "odesolve", "periodic", "discretemap", "errors")


def _load() -> None:
    names = ["__version__"]
    for sub in _SUBMODULES:
        module = importlib.import_module(f"{__name__}.{sub}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names  # last: its presence marks the names bound


def __getattr__(name: str):
    if name == "__all__" or not name.startswith("_"):
        if "__all__" not in globals():
            # a submodule asked for by name, as in `from oscpop import cli`, loads alone
            if importlib.util.find_spec(f"{__name__}.{name}") is not None:
                return importlib.import_module(f"{__name__}.{name}")
            _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return list(globals())
