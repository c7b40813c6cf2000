"""repro-lint: AST-based invariant checker for the reproduction.

The runtime's headline guarantee — byte-identical campaigns across
serial and sharded execution, replay caches, checkpoints and plugins —
rests on invariants that used to live only in docs prose.
This package machine-checks them at lint time (one parse per file):

========  ==================  ===============================================
REP001    determinism         all draws through RngStream; no wall clocks
REP002    plugin-purity       plugin hooks pure over the exchange result
REP003    fork-safety         module globals Final or ``_WORKER_*``
REP004    codec-discipline    verify-before-parse, central magics, atomic IO
REP005    slots               ``__slots__`` in designated hot modules
REP006    stdout-discipline   stdout = reports; diagnostics name a stream
========  ==================  ===============================================

Run ``python -m repro.lint [paths]``; scopes live in
``repro-lint.toml``; suppress single lines with
``# repro-lint: skip[REP00x] reason``.  See docs/static-analysis.md.
"""

from repro.lint.cli import main
from repro.lint.config import CONFIG_FILENAME, LintConfig, RuleScope, find_config, load_config
from repro.lint.framework import (
    FileContext,
    LintError,
    Rule,
    Violation,
    lint_file,
    parse_suppressions,
)
from repro.lint.rules import ALL_RULES, RULES_BY_CODE
from repro.lint.runner import resolve_rules, run_lint

__all__ = [
    "ALL_RULES",
    "CONFIG_FILENAME",
    "FileContext",
    "LintConfig",
    "LintError",
    "Rule",
    "RULES_BY_CODE",
    "RuleScope",
    "Violation",
    "find_config",
    "lint_file",
    "load_config",
    "main",
    "parse_suppressions",
    "resolve_rules",
    "run_lint",
]
