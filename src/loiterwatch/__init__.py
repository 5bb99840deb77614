"""loiterwatch: edge-to-fog loitering suspicion scoring pipeline.

Edge cameras track people, summarize per-track movement (dwell, speed and
direction changes), and ship compact feature records to a fog node, which
adds deployment context and scores each object with a fuzzy rule base on a
0-100 suspicion scale; scores at or above a context-shifted threshold raise
alarms. A CLI harness generates synthetic scenarios, replays them through
the pipeline (in-process or over TCP) and evaluates alarm quality.

The package, ``loiterwatch.fuzzy`` and ``loiterwatch.harness`` load their
exports on first access (PEP 562), so each side imports only its own
layers: the in-process fog loads neither the transport nor cryptography.
No module of the package imports numpy. The top level
exports only what a fog node is built from; every other name is imported
from its own module.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package that
    exports each name of ``exports[submodule]`` from that submodule.

    An export is read from its home module on every access, so it is
    always the object that module holds.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f".{module}", package), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return sorted(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "context": ("CameraContext", "FogPipeline"),
    "fuzzy": ("FuzzyEngine",),
    "tracking": ("FeatureRecord", "ObjectFeatures"),
})
