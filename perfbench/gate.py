"""Correctness gate behind ``failed`` / ``attempted``.

An operation is one CSV row: one (rule, k) cell of a success run, or one
bounds cell. A row fails when its pass raised, when it breaks a row rule
(below), when it differs from the reference CSV of the same run (serial
against parallel, pass against pass, traced rates against untraced), or, for
every row of the CSV, when the CSV's sha256 differs from the recorded
digest.

Row rules:
- success rows: at k = m-1 the rate is exactly ``1.0000`` (the top-(m-1)
  ballot determines the full ranking, so every rule must agree);
- bounds rows: lower <= upper; the witness profile's recomputed price of
  truncation equals the construction's claimed ratio; for ``borda:zero``
  the attained ratio equals the upper bound.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import sys
from fractions import Fraction
from typing import Callable

RowCheck = Callable[[dict], str | None]


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def success_row_check(m: int) -> RowCheck:
    def check(row: dict) -> str | None:
        try:
            k, rate = int(row["k"]), float(row["rate"])
        except (TypeError, ValueError):
            return f"unparseable success row {row}"
        if not 0 <= rate <= 1:
            return f"rate {row['rate']} out of [0, 1] for {row['rule']}"
        if k == m - 1 and row["rate"] != "1.0000":
            return f"rate {row['rate']} at k=m-1 for {row['rule']}"
        return None

    return check


def _ratio(text: str) -> Fraction | float:
    return math.inf if text == "inf" else Fraction(text)


def bounds_row_check(row: dict) -> str | None:
    try:
        lower, upper = _ratio(row["lower"]), _ratio(row["upper"])
        attained, claimed = _ratio(row["attained"]), _ratio(row["claimed"])
    except (TypeError, ValueError, ZeroDivisionError):
        return f"unparseable bounds row {row}"
    cell = f"{row['rule']} m={row['m']} k={row['k']}"
    if not lower <= upper:
        return f"lower {lower} > upper {upper} at {cell}"
    if attained != claimed:
        return f"witness ratio {attained} != claimed {claimed} at {cell}"
    if row["rule"] == "borda:zero" and attained != upper:
        return f"borda:zero attained {attained} != upper {upper} at {cell}"
    return None


class Gate:
    """Counts attempted and failed rows; keeps the first problems seen."""

    def __init__(self, row_check: RowCheck, rows_per_pass: int, digest: str | None) -> None:
        self.row_check = row_check
        self.rows_per_pass = rows_per_pass
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _report(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
            print(f"gate: {message}", file=sys.stderr)

    def fail_pass(self, message: str) -> None:
        """A pass raised: every row it should have produced fails."""
        self.attempted += self.rows_per_pass
        self.failed += self.rows_per_pass
        self._report(message)

    def check_csv(self, text: str, reference: str | None = None) -> None:
        rows = parse_rows(text)
        total = max(len(rows), self.rows_per_pass)
        self.attempted += total
        bad = set(range(len(rows), total))
        if bad:
            self._report(f"expected {self.rows_per_pass} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            problem = self.row_check(row)
            if problem:
                bad.add(i)
                self._report(problem)
        if reference is not None and text != reference:
            ref_rows = parse_rows(reference)
            differ = {i for i, row in enumerate(rows) if i >= len(ref_rows) or row != ref_rows[i]}
            bad |= differ or set(range(total))  # same rows, other bytes: all fail
            self._report(f"CSV differs from the reference CSV in rows {sorted(differ)[:10]}")
        if self.digest is not None and sha256(text) != self.digest:
            bad = set(range(total))
            self._report(f"CSV sha256 {sha256(text)} != recorded {self.digest}")
        self.failed += len(bad)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
