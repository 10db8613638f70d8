"""Layering guard: the solver core imports none of the tiers built on it.

``repro.risk``, ``repro.service``, ``repro.market`` and
``repro.resilience`` all import ``repro.core``; an import the other way,
even a lazy one inside a function, would make the core depend on its own
clients and reopen an import cycle.  The check parses every module under
``src/repro/core/`` rather than importing it, so function-local imports
count too.
"""

import ast
from pathlib import Path

import repro.core

CORE = Path(repro.core.__file__).parent
UPPER_TIERS = ("repro.risk", "repro.service", "repro.market", "repro.resilience")


def _imported_names(path: Path):
    """``(line, dotted name)`` for every import statement in ``path``."""
    package = path.relative_to(CORE.parent.parent).parent.parts
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            # resolve a relative import against the module's own package
            parts = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(parts + ((node.module,) if node.module else ()))
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_core_imports_no_upper_tier():
    modules = sorted(CORE.rglob("*.py"))
    assert len(modules) > 10  # the glob found the package
    offenders = [
        f"{path.relative_to(CORE)}:{line}: {name}"
        for path in modules
        for line, name in _imported_names(path)
        if any(name == t or name.startswith(t + ".") for t in UPPER_TIERS)
    ]
    assert offenders == []
