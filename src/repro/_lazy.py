"""Lazy package surfaces (PEP 562).

A package ``__init__`` that re-exports names from its submodules imports
each submodule on the first lookup of one of its names, so importing the
package, or any subpackage below it, executes no module the caller does
not use.  The package keeps a literal ``__all__`` and the same imports
under ``if TYPE_CHECKING:`` for static tools, and binds the hooks under
``if not TYPE_CHECKING:`` so that a type checker, which would read a
module ``__getattr__`` as "any name exists", still reports a misspelt
name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, which
    re-exports each name of ``exports`` from the module it maps to."""

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(source), name)
        # Bind it, so later lookups find it without this hook.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
