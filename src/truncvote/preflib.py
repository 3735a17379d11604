"""PrefLib SOC/SOI ingestion, serialization, and voter resampling.

Both the classic layout (m; "id,name" lines; "n,sum,unique"; "count,ids...")
and the modern '#'-metadata layout ("count: ids...") are accepted. Only
strict orders are supported: ballots with '{' tie-groups are rejected.

A dataset is a :class:`~truncvote.ballots.BallotList` with candidate names;
a real-data trial slices the rows of its rank matrix that it draws
(:func:`_draw`) into an :class:`~truncvote.tally.IntegerTally`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .ballots import Ballot, BallotList, DomainError, Entries, TopKProfile, WeightedBallots, _orders


class PreflibParseError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class ElectionDataset(BallotList):
    """Parsed election: ``from_ballots(m, names, ballots)``, the distinct
    (possibly incomplete) ballots with one name per candidate."""

    candidate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.candidate_names) != self.m:
            raise DomainError("need one name per candidate")
        object.__setattr__(self, "candidate_names", tuple(self.candidate_names))
        # computed once per dataset and pickled with it: every draw reads it
        object.__setattr__(self, "_cumulative_counts", np.cumsum(self.counts))


def _parse_ballot_line(part: str, m: int, line: int) -> Ballot:
    if "{" in part or "}" in part:
        raise PreflibParseError("tie groups are not supported (strict orders only)", line)
    try:
        ids = [int(tok) for tok in part.split(",") if tok.strip()]
    except ValueError:
        raise PreflibParseError(f"malformed ballot {part!r}", line) from None
    if not ids:
        raise PreflibParseError("empty ballot", line)
    order = []
    for cid in ids:
        if not 1 <= cid <= m:
            raise PreflibParseError(f"candidate id {cid} out of range 1..{m}", line)
        order.append(cid - 1)
    if len(set(order)) != len(order):
        raise PreflibParseError(f"duplicate candidate in ballot {part!r}", line)
    return tuple(order)


def _parse_ballots(
    rows: Iterable[tuple[int, str]], m: int, sep: str, malformed: str
) -> list[tuple[Ballot, int]]:
    """The weighted ballots of "count<sep>ids..." rows; ``malformed`` is the
    message, with a ``{text!r}`` field, for a row without the separator."""
    ballots = []
    for line, text in rows:
        count_str, found, rest = text.partition(sep)
        if not found:
            raise PreflibParseError(malformed.format(text=text), line)
        try:
            count = int(count_str)
        except ValueError:
            raise PreflibParseError(f"malformed count {count_str!r}", line) from None
        if count <= 0:
            raise PreflibParseError(f"ballot count must be positive, got {count}", line)
        ballots.append((_parse_ballot_line(rest, m, line), count))
    return ballots


def _parse_classic(rows: list[tuple[int, str]]) -> ElectionDataset:
    it = iter(rows)

    def take(what: str) -> tuple[int, str]:
        try:
            return next(it)
        except StopIteration:
            raise PreflibParseError(f"unexpected end of file, expected {what}") from None

    line, text = take("candidate count")
    try:
        m = int(text)
    except ValueError:
        raise PreflibParseError(f"expected candidate count, got {text!r}", line) from None
    if m < 1:
        raise PreflibParseError("candidate count must be positive", line)

    names: dict[int, str] = {}
    for _ in range(m):
        line, text = take("candidate name line")
        cid_str, _, name = text.partition(",")
        try:
            cid = int(cid_str)
        except ValueError:
            raise PreflibParseError(f"malformed candidate line {text!r}", line) from None
        if cid in names:
            raise PreflibParseError(f"duplicate candidate id {cid}", line)
        names[cid] = name.strip()
    if sorted(names) != list(range(1, m + 1)):
        raise PreflibParseError(f"candidate ids must be exactly 1..{m}")

    line, text = take("voter count line")
    header_line = line
    parts = text.split(",")
    if len(parts) != 3:
        raise PreflibParseError(f"expected 'n,sum,unique', got {text!r}", line)
    try:
        n_declared, sum_declared, unique_declared = (int(p) for p in parts)
    except ValueError:
        raise PreflibParseError(f"expected 'n,sum,unique', got {text!r}", line) from None

    ballots = _parse_ballots(it, m, ",", "malformed ballot line {text!r}")
    if len(ballots) != unique_declared:
        raise PreflibParseError(
            f"declared {unique_declared} unique ballots, found {len(ballots)}", header_line
        )
    total = sum(c for _, c in ballots)
    if total != n_declared or total != sum_declared:
        raise PreflibParseError(
            f"declared n={n_declared}, sum={sum_declared}, ballot counts sum to {total}",
            header_line,
        )
    return ElectionDataset.from_ballots(m, [names[i] for i in range(1, m + 1)], ballots)


def _parse_modern(lines: list[str]) -> ElectionDataset:
    meta: dict[str, str] = {}
    data: list[tuple[int, str]] = []
    for i, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        if text.startswith("#"):
            key, sep, value = text.lstrip("#").strip().partition(":")
            if sep:
                meta[key.strip().upper()] = value.strip()
            continue
        data.append((i, text))

    try:
        m = int(meta["NUMBER ALTERNATIVES"])
    except (KeyError, ValueError):
        raise PreflibParseError("missing or malformed '# NUMBER ALTERNATIVES' metadata") from None
    if m < 1:
        raise PreflibParseError("candidate count must be positive")
    names = []
    for i in range(1, m + 1):
        names.append(meta.get(f"ALTERNATIVE NAME {i}", str(i)))

    ballots = _parse_ballots(data, m, ":", "expected 'count: ids...', got {text!r}")
    if not ballots:
        raise PreflibParseError("no ballots found")

    total = sum(c for _, c in ballots)
    if "NUMBER VOTERS" in meta:
        try:
            declared = int(meta["NUMBER VOTERS"])
        except ValueError:
            raise PreflibParseError("malformed '# NUMBER VOTERS' metadata") from None
        if declared != total:
            raise PreflibParseError(f"declared {declared} voters, ballot counts sum to {total}")
    return ElectionDataset.from_ballots(m, names, ballots)


def parse_preflib(data: str | bytes) -> ElectionDataset:
    """Parse classic or modern PrefLib text into a dataset."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as err:
        raise PreflibParseError(f"not UTF-8 text: {err}") from None
    lines = text.splitlines()
    if any(ln.lstrip().startswith("#") for ln in lines):
        return _parse_modern(lines)
    rows = [(i, ln.strip()) for i, ln in enumerate(lines, start=1) if ln.strip()]
    if not rows:
        raise PreflibParseError("empty input")
    return _parse_classic(rows)


def load(path: str | Path) -> ElectionDataset:
    return parse_preflib(Path(path).read_bytes())


def serialize_classic(ds: ElectionDataset) -> str:
    """Classic-layout text; parse(serialize(ds)) == ds."""
    out = [str(ds.m)]
    for i, name in enumerate(ds.candidate_names, start=1):
        out.append(f"{i},{name}")
    out.append(f"{ds.n},{ds.n},{len(ds.counts)}")
    ids = [str(c + 1) for c in range(ds.m)]
    for order, count in ds.entries:
        out.append(",".join([str(count)] + [ids[c] for c in order]))
    return "\n".join(out) + "\n"


def _draw(
    ds: ElectionDataset, n_star: int, rng: np.random.Generator, with_replacement: bool = False
) -> tuple[np.ndarray, list[int]]:
    """Draw n_star voters at random from the dataset (default: distinct voters):
    the rows of ``ds.ranks`` they cast, ascending, and how many cast each."""
    if not 1 <= n_star <= ds.n:
        raise DomainError(f"n_star must be in [1, {ds.n}], got {n_star}")
    if with_replacement:
        voters = rng.integers(0, ds.n, size=n_star)
    else:
        voters = rng.choice(ds.n, size=n_star, replace=False)
    picked = np.bincount(
        np.searchsorted(ds._cumulative_counts, voters, side="right"), minlength=len(ds.counts)
    )
    drawn = np.flatnonzero(picked)
    return drawn, picked[drawn].tolist()


def resample(
    ds: ElectionDataset, n_star: int, rng: np.random.Generator, with_replacement: bool = False
) -> Entries:
    """Draw n_star voters at random from the dataset (default: distinct voters)."""
    rows, counts = _draw(ds, n_star, rng, with_replacement)
    return tuple(zip(_orders(ds.m, ds.ranks[rows]), counts))


def effective_truncate(ballots: WeightedBallots, k: int, m: int) -> TopKProfile:
    """Cut each ballot to its length-min(k, len) prefix; short ballots pass through."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    nominal = min(k, m - 1)
    return TopKProfile.from_ballots(
        m, nominal, ((tuple(order)[:nominal], count) for order, count in ballots)
    )
