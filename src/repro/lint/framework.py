"""repro-lint core: one parse per file, many rules per parse.

The runtime's byte-identical-replay guarantee rests on invariants that
no test exercises directly — determinism of every draw, purity of
plugin hooks, run isolation of module globals, verify-before-parse
codec discipline (docs/static-analysis.md).  This framework checks
them at the AST level:

* :class:`FileContext` parses a file once and carries the tree, the
  source lines and the parsed suppression comments.
* :class:`Rule` is an :class:`ast.NodeVisitor`; a rule instance is
  created per file, visits the shared tree and reports
  :class:`Violation` records via :meth:`Rule.report`.
* :func:`run_lint` resolves paths, applies per-rule path scopes from
  the :class:`~repro.lint.config.LintConfig` and filters suppressed
  findings.

Suppressions are inline comments naming the rule and a reason::

    MAGIC = b"XXXX1234"  # repro-lint: skip[REP004] in-sim tag, never persisted

A trailing suppression silences the named codes on its own line; a
*standalone* comment line silences them on the next line instead, so
long reasons don't force long code lines::

    # repro-lint: skip[REP004] rides inside a CRC-verified frame
    def decode_inner_blob(blob: bytes) -> ...:

Either way the waiver sits next to the construct it excuses and shows
up in review diffs.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FileContext",
    "LintError",
    "Rule",
    "Violation",
    "dotted_name",
    "iter_python_files",
    "lint_file",
    "parse_suppressions",
]


class LintError(Exception):
    """A file or configuration repro-lint cannot process."""


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: where, which rule, and what is wrong."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def github(self) -> str:
        """A GitHub Actions workflow-command annotation line."""
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col},title={self.code}::{self.message}"
        )


#: ``# repro-lint: skip[REP001] reason`` / ``skip[REP001,REP004] reason``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*skip\[(?P<codes>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)\]"
    r"(?:\s+(?P<reason>\S.*))?"
)


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule codes suppressed on that line.

    Only genuine comment tokens count — a suppression spelled inside a
    string literal is inert, which is what an AST-honest linter should
    do (and what keeps docstring *examples* of suppressions inert too).
    A trailing comment suppresses its own line; a comment that is the
    only thing on its line suppresses the following line.
    """
    lines = source.splitlines()
    suppressed: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            codes = frozenset(
                code.strip() for code in match.group("codes").split(",")
            )
            line = tok.start[0]
            standalone = lines[line - 1][: tok.start[1]].strip() == ""
            if standalone:
                # Attach to the next code line, skipping the rest of
                # the comment block and any blank lines.
                line += 1
                while line <= len(lines) and (
                    not lines[line - 1].strip()
                    or lines[line - 1].lstrip().startswith("#")
                ):
                    line += 1
            suppressed[line] = suppressed.get(line, frozenset()) | codes
    except tokenize.TokenError:
        # The AST parse will raise a real error for the same file;
        # suppression parsing never masks it.
        pass
    return suppressed


class FileContext:
    """Everything the rules share about one file: parsed exactly once."""

    __slots__ = ("path", "relpath", "source", "lines", "tree", "suppressions")

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(
                f"{relpath}:{exc.lineno or 0}: cannot parse: {exc.msg}"
            ) from exc
        self.suppressions = parse_suppressions(source)

    def is_suppressed(self, code: str, line: int) -> bool:
        return code in self.suppressions.get(line, frozenset())

    @classmethod
    def from_path(cls, path: Path, relpath: str) -> "FileContext":
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"{relpath}: cannot read: {exc}") from exc
        return cls(path, relpath, source)


class Rule(ast.NodeVisitor):
    """Base class for repro-lint rules.

    Subclasses set ``code`` / ``name`` / ``rationale`` and implement
    visitation (``visit_*`` methods) plus optionally :meth:`finish`
    for whole-file analyses that need the full tree first.  One
    instance is constructed per (rule, file) pair; ``self.ctx`` and
    ``self.options`` are set before :meth:`run` visits the tree.
    """

    #: Rule identifier, e.g. ``"REP001"``.
    code: str = ""
    #: Short kebab-case name, e.g. ``"determinism"``.
    name: str = ""
    #: One line tying the rule to the runtime invariant it guards.
    rationale: str = ""

    def __init__(self, options: dict | None = None):
        self.options: dict = options or {}
        self.ctx: FileContext = None  # type: ignore[assignment]  # set by run()
        self.violations: list[Violation] = []

    def run(self, ctx: FileContext) -> list[Violation]:
        self.ctx = ctx
        self.violations = []
        self.visit(ctx.tree)
        self.finish()
        return self.violations

    def finish(self) -> None:
        """Hook for analyses that conclude after the walk (call graphs)."""

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.ctx.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
            )
        )


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, skipping caches."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def lint_file(
    ctx: FileContext,
    rules: Sequence[type[Rule]],
    rule_options: dict[str, dict] | None = None,
) -> list[Violation]:
    """Run ``rules`` over one already-parsed file, honouring suppressions."""
    options = rule_options or {}
    found: list[Violation] = []
    for rule_cls in rules:
        rule = rule_cls(options.get(rule_cls.code))
        for violation in rule.run(ctx):
            if not ctx.is_suppressed(violation.code, violation.line):
                found.append(violation)
    found.sort(key=lambda v: (v.line, v.col, v.code))
    return found
