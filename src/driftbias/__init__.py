"""Conditional drift estimation for geometric Brownian motion.

The package measures the optimism baked into drift estimates that are
formed only after observing a favorable return (a return-chasing rule),
and provides smoothing-based corrections plus residual diagnostics.
"""

__version__ = "0.1.0"

_EXPORTING = ("conditional", "diagnostics", "errors", "gbm", "pipeline", "smoothing")


def __getattr__(name: str):
    """Load a submodule on first use, or all six and bind their public names (PEP 562)."""
    if name in _EXPORTING or name == "cli":
        __import__(f"{__name__}.{name}")  # the import statement's path, which -X importtime reports
        return globals()[name]
    if name == "__all__" or not name.startswith("_"):
        public = []
        for module in map(__getattr__, _EXPORTING):
            globals().update((key, getattr(module, key)) for key in module.__all__)
            public += module.__all__
        globals()["__all__"] = [*public, "__version__"]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*__getattr__("__all__"), *globals()})
