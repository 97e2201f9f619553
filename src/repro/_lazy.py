"""PEP 562 lazy exports for package ``__init__`` modules.

``python -m repro`` imports ``repro`` and every package on the way to the
module it wants. A package that imported all its submodules to build its
public namespace made every subcommand pay for NumPy and the simulated
device; with :func:`lazy_exports` a public name is imported
from its submodule the first time it is asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package`` (``".engine"``); a name mapped to ``""`` is
    itself a submodule. Resolved names are cached on the package, so the
    hook runs once per name.
    """

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if source:
            value = getattr(importlib.import_module(source, package), name)
        else:
            value = importlib.import_module(f".{name}", package)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
