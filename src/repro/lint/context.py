"""Per-file analysis context shared by every lint rule.

One :class:`ModuleContext` is built per linted file: the parsed AST, an
import map resolving local names back to their dotted origins (so a rule
can recognise ``perf_counter()`` as ``time.perf_counter`` no matter how
it was imported), and the parsed inline suppressions.

Suppression syntax
------------------

::

    risky_call()  # repro: disable=REP102 — wall clock is the measurand
    # repro: disable=REP101,REP103 — fixture exercises both rules
    next_line_is_covered()

A suppression on a code line covers that line; a suppression on a
comment-only line covers the next non-blank line.  The justification
after the ``—`` (or ``-``) separator is **mandatory**: a reasonless
suppression suppresses nothing and is itself reported (REP100), so every
silenced finding carries its why in the source.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["ModuleContext", "Suppression", "parse_suppressions"]

#: ``# repro: disable=REP101[,REP102] — justification``.  The separator
#: accepts an em dash, en dash, hyphen(s) or a colon; the justification
#: group is optional here so the parser can *report* its absence.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*disable=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"\s*(?:(?:[—–:]|-{1,2})\s*(?P<reason>.*))?$"
)


@dataclass
class Suppression:
    """One parsed ``# repro: disable=...`` comment."""

    line: int  #: line the comment sits on (1-based)
    rules: Tuple[str, ...]
    reason: Optional[str]
    #: line the suppression covers (the comment's own line, or the next
    #: code line when the comment stands alone).
    applies_to: int = 0

    @property
    def valid(self) -> bool:
        return bool(self.reason)


def parse_suppressions(lines: List[str]) -> List[Suppression]:
    """Extract every suppression comment from the file's source lines."""
    suppressions: List[Suppression] = []
    for index, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        reason = (match.group("reason") or "").strip() or None
        applies_to = index
        if text.lstrip().startswith("#"):
            # Standalone comment: cover the next code line, skipping blank
            # lines and the suppression's own continuation comment lines.
            for offset, following in enumerate(lines[index:], start=index + 1):
                stripped = following.strip()
                if stripped and not stripped.startswith("#"):
                    applies_to = offset
                    break
        suppressions.append(
            Suppression(line=index, rules=rules, reason=reason, applies_to=applies_to)
        )
    return suppressions


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    suppressions: List[Suppression] = field(default_factory=list)

    @classmethod
    def build(cls, path: Path, source: str, display_path: str) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        lines = source.splitlines()
        context = cls(
            path=path,
            display_path=display_path,
            source=source,
            tree=tree,
            lines=lines,
            suppressions=parse_suppressions(lines),
        )
        context._collect_imports()
        return context

    # ------------------------------------------------------------------ #
    # name resolution
    # ------------------------------------------------------------------ #
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = origin
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                prefix = "." * node.level + module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    origin = f"{prefix}.{alias.name}" if prefix else alias.name
                    self.imports[local] = origin

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a dotted origin name, or ``None``.

        ``Name`` nodes resolve through the import map (``pc`` imported as
        ``from time import perf_counter as pc`` resolves to
        ``time.perf_counter``); attribute chains resolve their base the
        same way.  Calls, subscripts and anything dynamic resolve to
        ``None`` — rules must treat unresolvable as "not a match".
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted_name(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def suppression_for(self, line: int, rule: str) -> Optional[Suppression]:
        """The suppression covering ``rule`` at ``line``, valid or not."""
        for suppression in self.suppressions:
            if suppression.applies_to == line and rule in suppression.rules:
                return suppression
        return None
