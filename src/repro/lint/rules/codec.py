"""REP004 — codec discipline for every byte that touches a disk.

Crashed writers and torn files produce truncated or bit-flipped
buffers; docs/robustness.md commits to *verify-before-parse* so those
decode to a typed :class:`~repro.util.framing.CodecCorruption`, never
to plausible-but-wrong results.  Three checks keep that promise
mechanical:

* **Unframed decode** — a public top-level ``decode_*`` entry point
  (one that takes a whole buffer, not a verified body + ``offset``)
  must reach :func:`repro.util.framing.unframe_payload` through its
  intra-module call chain.
* **Stray MAGIC** — frame magics are declared once, in the central
  registry (``repro/util/magics.py``); a bytes/str literal assigned to
  a ``*MAGIC*`` name anywhere else can drift or collide silently.
* **Raw persisted write** — ``open(..., "wb")`` (or ``ab``/``xb``, or
  ``Path.write_bytes``) tears on crash; persisted bytes go through
  :func:`repro.util.atomic.atomic_write_bytes`.
"""

from __future__ import annotations

import ast

from repro.lint.framework import Rule, dotted_name

__all__ = ["CodecDisciplineRule"]

#: Binary-write modes that produce torn files on crash.
_BINARY_WRITE_MODES = ("wb", "ab", "xb", "bw", "ba", "bx", "wb+", "w+b")


class CodecDisciplineRule(Rule):
    code = "REP004"
    name = "codec-discipline"
    rationale = (
        "persisted bytes must verify before parsing (unframe_payload), "
        "declare magics centrally, and be written atomically"
    )

    def run(self, ctx):  # type: ignore[override]
        self.ctx = ctx
        self.violations = []
        self._check_magics(ctx.tree)
        self._check_decode_entry_points(ctx.tree)
        self._check_writes(ctx.tree)
        return self.violations

    # -- stray MAGIC declarations --------------------------------------
    def _check_magics(self, tree: ast.Module) -> None:
        registry = self.options.get("magic_registry", "src/repro/util/magics.py")
        if self.ctx.relpath == registry:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and "MAGIC" in target.id
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, (bytes, str))
                ):
                    self.report(
                        node,
                        f"magic {target.id} declared as a literal outside the "
                        f"central registry ({registry}): import it instead so "
                        "frame magics stay unique and greppable in one place",
                    )

    # -- decode entry points must verify frames ------------------------
    def _check_decode_entry_points(self, tree: ast.Module) -> None:
        functions: dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        calls: dict[str, set[str]] = {}
        verifies: dict[str, bool] = {}
        for name, fn in functions.items():
            called: set[str] = set()
            direct = False
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    chain = dotted_name(node.func)
                    if chain is None:
                        continue
                    tail = chain.split(".")[-1]
                    if tail == "unframe_payload":
                        direct = True
                    called.add(tail)
            calls[name] = called
            verifies[name] = direct

        def reaches_unframe(name: str, seen: set[str]) -> bool:
            if verifies.get(name, False):
                return True
            seen.add(name)
            return any(
                callee in functions and callee not in seen
                and reaches_unframe(callee, seen)
                for callee in calls.get(name, ())
            )

        for name, fn in functions.items():
            if not name.startswith("decode_") or name.startswith("_"):
                continue
            params = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
            if "offset" in params:
                continue  # body helper: operates on an already-verified frame
            if not reaches_unframe(name, set()):
                self.report(
                    fn,
                    f"{name}() decodes persisted bytes without reaching "
                    "unframe_payload: corruption must raise CodecCorruption "
                    "before a single body byte is parsed "
                    "(docs/robustness.md)",
                )

    # -- persisted writes must be atomic -------------------------------
    def _check_writes(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = None
                if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                    mode = node.args[1].value
                for kw in node.keywords:
                    if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                        mode = kw.value.value
                if isinstance(mode, str) and mode in _BINARY_WRITE_MODES:
                    self.report(
                        node,
                        f"open(..., {mode!r}) writes persisted bytes "
                        "non-atomically (torn file on crash): use "
                        "repro.util.atomic.atomic_write_bytes",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "write_bytes"
            ):
                self.report(
                    node,
                    ".write_bytes() writes persisted bytes non-atomically: "
                    "use repro.util.atomic.atomic_write_bytes",
                )
