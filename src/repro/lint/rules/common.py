"""Shared AST helpers for the REP rule set."""

from __future__ import annotations

import ast

from repro.lint.framework import dotted_name

__all__ = [
    "IMMUTABLE_CALLS",
    "is_final_annotation",
    "is_immutable_value",
    "module_import_origins",
]

#: Calls whose result is immutable (or at least never mutated by
#: convention): safe as module-level globals shared by every run.
IMMUTABLE_CALLS = frozenset(
    {
        "re.compile",
        "struct.Struct",
        "frozenset",
        "tuple",
        "int",
        "float",
        "str",
        "bytes",
        "bool",
        "object",
        "namedtuple",
        "collections.namedtuple",
        "TypeVar",
        "typing.TypeVar",
        "MappingProxyType",
        "types.MappingProxyType",
    }
)


def is_immutable_value(node: ast.AST, extra_calls: frozenset[str] = frozenset()) -> bool:
    """Conservative check: is this module-level value immutable?

    Containers and non-whitelisted constructor calls are treated as
    mutable; name/attribute references are treated as immutable
    aliases (the binding they alias is checked where it is defined).
    """
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(is_immutable_value(e, extra_calls) for e in node.elts)
    if isinstance(node, ast.Starred):
        return is_immutable_value(node.value, extra_calls)
    if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript, ast.Lambda)):
        return True
    if isinstance(node, ast.BinOp):
        return is_immutable_value(node.left, extra_calls) and is_immutable_value(
            node.right, extra_calls
        )
    if isinstance(node, ast.UnaryOp):
        return is_immutable_value(node.operand, extra_calls)
    if isinstance(node, ast.IfExp):
        return is_immutable_value(node.body, extra_calls) and is_immutable_value(
            node.orelse, extra_calls
        )
    if isinstance(node, ast.Call):
        chain = dotted_name(node.func)
        if chain is None:
            return False
        return chain in IMMUTABLE_CALLS or chain in extra_calls
    return False


def is_final_annotation(annotation: ast.AST | None) -> bool:
    """Does the annotation spell ``Final`` / ``Final[...]`` (incl. strings)?"""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return "Final" in annotation.value
    if isinstance(annotation, ast.Subscript):
        return is_final_annotation(annotation.value)
    chain = dotted_name(annotation)
    return chain is not None and chain.split(".")[-1] == "Final"


def module_import_origins(tree: ast.Module) -> dict[str, str]:
    """Map local alias -> canonical dotted origin for module-level imports.

    ``import time`` -> ``{"time": "time"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    """
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                origins[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return origins


def canonical_chain(chain: str, origins: dict[str, str]) -> str:
    """Rewrite the head of a dotted chain through the import origins."""
    head, _, rest = chain.partition(".")
    origin = origins.get(head)
    if origin is None:
        return chain
    return f"{origin}.{rest}" if rest else origin
