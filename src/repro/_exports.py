"""Lazy package exports (PEP 562) for the package ``__init__`` modules.

A package maps each public name to its defining module and installs the
triple :func:`lazy_exports` returns as its ``__all__``, ``__getattr__``
and ``__dir__``: a name is imported on first access and then cached in
the package namespace, so importing one submodule loads only what that
submodule uses.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any],
    exports: Dict[str, Tuple[str, ...]],
    eager: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose globals are ``namespace``.

    ``exports`` maps a module to the public names it defines; ``eager``
    names the public names the package binds itself.  ``__all__`` lists
    both.
    """
    source = {name: module for module, names in exports.items() for name in names}
    public = [*source, *eager]

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value  # later lookups bypass this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(public))

    return public, __getattr__, __dir__
