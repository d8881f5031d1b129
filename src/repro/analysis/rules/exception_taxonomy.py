"""exception-taxonomy: broad catches must classify, propagate, or be boundaries.

``except Exception`` (or broader) anywhere except a declared protocol
boundary must do one of:

- **re-raise** (``raise`` somewhere in the handler body),
- **propagate to a waiter** (``<future>.set_exception(...)``), or
- **map into the closed error taxonomy** — call
  :func:`repro.telemetry.events.classify_error` (directly or via an
  ``events.emit(..., error_kind=classify_error(e))`` site).

Anything else is a silent swallow: the failure disappears from telemetry,
dashboards, and the event log.  Declared boundaries (the server's
per-connection ``handle`` loop, the scheduler's lease-fallback arm) absorb
*foreign* failures by design and are whitelisted here with the reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Project, SourceModule, register

RULE_NAME = "exception-taxonomy"

BROAD_NAMES = frozenset({"Exception", "BaseException"})


@dataclass(frozen=True)
class Boundary:
    """A (module suffix, function name) pair allowed to absorb broad failures."""

    path: str
    function: str
    reason: str


DEFAULT_BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary(
        "service/server.py",
        "handle",
        "per-connection protocol boundary of the daemon and the router: "
        "converts any failure into an error frame for the client",
    ),
    Boundary(
        "api/scheduler.py",
        "stream_rows",
        "lease fallback: a stranger's failed batch must not fail this one; "
        "the point is recomputed locally and counted in lease_fallbacks",
    ),
)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True  # bare except:
    if isinstance(node, ast.Name):
        return node.id in BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(isinstance(e, ast.Name) and e.id in BROAD_NAMES for e in node.elts)
    return False


def _handler_disposition(handler: ast.ExceptHandler) -> Optional[str]:
    """How the handler deals with the failure, or None if it swallows it."""

    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return "re-raises"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr == "classify_error":
                    return "classifies"
                if func.attr == "set_exception":
                    return "propagates to waiters"
            elif isinstance(func, ast.Name) and func.id == "classify_error":
                return "classifies"
    return None


@register
class ExceptionTaxonomyRule:
    name = RULE_NAME
    description = (
        "broad except handlers re-raise, propagate, or classify into the "
        "telemetry.events error taxonomy"
    )

    def __init__(self, boundaries: Sequence[Boundary] = DEFAULT_BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)

    def _is_boundary(self, module: SourceModule, handler: ast.ExceptHandler) -> bool:
        function = module.enclosing_function(handler)
        if function is None:
            return False
        for boundary in self.boundaries:
            if boundary.function == function.name and module.path.endswith(boundary.path):
                return True
        return False

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if not _is_broad(node):
                    continue
                if _handler_disposition(node) is not None:
                    continue
                if self._is_boundary(module, node):
                    continue
                caught = "bare except" if node.type is None else "broad except"
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=node.lineno,
                    message=f"{caught} handler swallows the failure silently",
                    hint=(
                        "narrow the exception types, re-raise, or emit an event "
                        "with error_kind=events.classify_error(exc); declared "
                        "protocol boundaries belong in DEFAULT_BOUNDARIES"
                    ),
                )
