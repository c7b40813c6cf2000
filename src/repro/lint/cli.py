"""``python -m repro.lint [paths...]`` — the repro-lint command line.

Exit codes: 0 clean, 1 violations found, 2 usage/config error.  The
violation listing is this command's *report* and prints to stdout
(explicitly — the tool obeys its own REP006); progress/summary
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.lint.config import CONFIG_FILENAME, LintConfig, find_config, load_config
from repro.lint.framework import LintError, Violation
from repro.lint.rules import ALL_RULES
from repro.lint.runner import run_lint

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checker for the repro codebase: "
            "determinism, plugin purity, run isolation, codec discipline, "
            "__slots__ and stdout discipline (docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        default=None,
        help=f"path to {CONFIG_FILENAME} (default: nearest one walking up "
             "from the current directory; without one, every rule applies "
             "everywhere)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="output format: human-readable lines, or GitHub Actions "
             "::error annotations",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules with their rationale and exit",
    )
    return parser


def _list_rules(out: TextIO) -> None:
    for rule in ALL_RULES:
        print(f"{rule.code}  {rule.name}", file=out)
        print(f"    {rule.rationale}", file=out)


def main(
    argv: Sequence[str] | None = None,
    *,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        _list_rules(out)
        return 0

    select = None
    if args.select is not None:
        select = [code.strip() for code in args.select.split(",") if code.strip()]

    try:
        if args.config is not None:
            config = load_config(Path(args.config))
        else:
            found = find_config(Path.cwd())
            config = load_config(found) if found is not None else LintConfig(Path.cwd())
        violations = run_lint(args.paths, config=config, select=select)
    except LintError as exc:
        print(f"repro-lint: {exc}", file=err)
        return 2

    render = Violation.github if args.format == "github" else Violation.text
    for violation in violations:
        print(render(violation), file=out)
    if violations:
        print(f"repro-lint: {len(violations)} violation(s)", file=err)
        return 1
    print("repro-lint: clean", file=err)
    return 0
