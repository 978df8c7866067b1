"""Result records shared by experiment runners and the CLI.

An :class:`ExperimentResult` is one experiment's table.  A
:class:`Verdict` says whether the table bears out the paper claims the
experiment reproduces; each experiment states those claims once, to a
:class:`Judge`.  The verdict is not part of
:meth:`ExperimentResult.as_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.report import Table

Row = Dict[str, Any]


def _cell(value: Any) -> str:
    """One table cell as text: floats to three places, NaN as ``-``."""
    if isinstance(value, float):
        if value != value:
            return "-"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _show(value: Any) -> str:
    """A value read as evidence: a cell, or a list of cells."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return _cell(value)


@dataclass
class ExperimentResult:
    """One experiment's outcome: an id, titled rows, and free-form notes."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one row; cells must match the declared columns."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a free-form note."""
        self.notes.append(text)

    def table(self) -> Table:
        """Read-only view (copy) of internal state."""
        table = Table(self.columns, title=f"{self.experiment_id}: {self.title}")
        for row in self.rows:
            table.add_row(*[row[c] for c in self.columns])
        return table

    def render(self) -> str:
        """Render as aligned plain text."""
        parts = [self.table().render()]
        parts.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(parts)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown table (for EXPERIMENTS.md updates)."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_cell(row[c]) for c in self.columns)
                         + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": self.rows,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class Claim:
    """One claim checked on a table: its text, led by the paper section,
    and the row values it read (only the failing rows when it failed)."""

    text: str
    held: bool
    evidence: Tuple[str, ...]

    def render(self) -> str:
        shown = list(self.evidence[:3])
        if len(self.evidence) > 3:
            shown.append(f"+{len(self.evidence) - 3} more")
        return (f"{'PASS' if self.held else 'FAIL'} {self.text} "
                f"[{'; '.join(shown)}]")


@dataclass(frozen=True)
class Verdict:
    """Whether one result bears out every claim of its experiment."""

    claims: Tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        return all(claim.held for claim in self.claims)

    def render(self) -> str:
        return "\n".join([f"  verdict: {'PASS' if self.ok else 'FAIL'}"]
                         + [f"    {c.render()}" for c in self.claims])

    def render_markdown(self) -> str:
        return "\n".join([f"**Verdict: {'PASS' if self.ok else 'FAIL'}**", ""]
                         + [f"- {c.render()}" for c in self.claims])


class Judge:
    """Collects the claims one experiment makes about one result.

    Evidence names a row by its ``key`` columns (default: the table's
    first two) and shows the columns the claim read.
    """

    def __init__(self, result: ExperimentResult) -> None:
        self.rows = result.rows
        self.key = tuple(result.columns[:2])
        self.claims: List[Claim] = []

    def where(self, **match: Any) -> List[Row]:
        """The rows whose cells equal every ``match`` value."""
        return [row for row in self.rows
                if all(row[c] == v for c, v in match.items())]

    def one(self, **match: Any) -> Row:
        (row,) = self.where(**match)
        return row

    def versus(self, on: str, column: str,
               **sides: Dict[str, Any]) -> List[Row]:
        """``column`` of each side's row side by side, per ``on`` value:
        ``versus("hosts", "concentration", basic={"protocol": "basic"},
        tree={"protocol": "tree"})`` -> ``[{"hosts": 8, "basic": ...,
        "tree": ...}, ...]``."""
        return [{on: value, **{name: self.one(**{on: value}, **match)[column]
                               for name, match in sides.items()}}
                for value in dict.fromkeys(row[on] for row in self.rows)]

    def claim(self, text: str, held: Any, **read: Any) -> None:
        """A claim over values gathered from the table, named in ``read``."""
        evidence = ", ".join(f"{name}={_show(v)}" for name, v in read.items())
        self.claims.append(Claim(text, bool(held), (evidence,)))

    def each(self, text: str, test: Callable[[Row], Any], *read: str,
             rows: Optional[Sequence[Row]] = None) -> None:
        """``test`` holds on each of ``rows`` (default: all; none fails)."""
        rows = self.rows if rows is None else rows
        failing = [row for row in rows if not test(row)]
        evidence = tuple(
            ", ".join(f"{c}={_show(row[c])}" for c in self.key
                      if c in row and c not in read)
            + ": " + ", ".join(f"{c}={_show(row[c])}" for c in read)
            for row in (failing or rows)) or ("no rows",)
        self.claims.append(Claim(text, bool(rows) and not failing, evidence))
