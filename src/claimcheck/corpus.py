"""Corpus ingestion, veracity-label normalization, and label statistics.

Source files are either comma-separated (CSV with a header) or
line-delimited JSON records. Both carry the same logical columns:
``id, headline, body, published, source_domain, raw_label`` plus an
optional ``claim`` column holding a manually written reference claim.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from . import jsonio
from .errors import IngestError, LabelMappingError

logger = logging.getLogger(__name__)


class VeracityLabel(IntEnum):
    """4-way veracity outcome. Integer codes are part of the wire format."""

    FALSE = 0
    PARTIAL_TRUE = 1
    TRUE = 2
    NEI = 3


class DatasetKind(str, Enum):
    SNOPES = "snopes"
    DNF300 = "dnf300"
    FIXTURE = "fixture"


class _Drop:
    """Sentinel: the row carries a label that removes it from the corpus."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "DROP"


DROP = _Drop()

# Raw ratings observed in the source data, lowercased. The three graded
# ratings collapse into PARTIAL_TRUE; opinion pieces leave the corpus.
DEFAULT_LABEL_TABLE: Mapping[str, Union[VeracityLabel, _Drop]] = {
    "true": VeracityLabel.TRUE,
    "false": VeracityLabel.FALSE,
    "mostly true": VeracityLabel.PARTIAL_TRUE,
    "mixture": VeracityLabel.PARTIAL_TRUE,
    "mostly false": VeracityLabel.PARTIAL_TRUE,
    "opinion": DROP,
}

_REQUIRED_COLUMNS = ("id", "headline", "body", "raw_label")
_ARTICLE_COLUMNS = (*_REQUIRED_COLUMNS, "published", "source_domain", "claim")

# Default on-disk format per dataset; override via the ``fmt`` argument.
_DEFAULT_FORMATS = {
    DatasetKind.SNOPES: "csv",
    DatasetKind.DNF300: "csv",
    DatasetKind.FIXTURE: "jsonl",
}


@dataclass
class Article:
    """A news item as it flows through the pipeline.

    ``label`` stays None until normalization; NEI is never assigned here,
    only by the pipeline after evidence gathering.
    """

    id: str
    headline: str
    body: str
    dataset: DatasetKind
    raw_label: str
    published: date | None = None
    source_domain: str | None = None
    label: VeracityLabel | None = None
    claim: str | None = None


@dataclass
class IngestResult:
    """Articles plus the bookkeeping needed for count-conservation checks."""

    articles: list[Article]
    rows_read: int = 0
    dropped_empty: int = 0
    skipped_malformed: int = 0
    warnings: list[str] = field(default_factory=list)


def normalize_label(raw_label: str, dataset: DatasetKind) -> Union[VeracityLabel, _Drop]:
    """Map a raw rating string onto the 4-way label set, or DROP.

    Matching is case-insensitive after trimming whitespace. Anything outside
    the mapping table raises LabelMappingError: an unmapped rating means the
    source schema drifted and should be surfaced, not silently dropped.
    """
    key = raw_label.strip().lower()
    if not key:
        raise LabelMappingError(f"empty raw label in dataset {dataset.value!r}")
    try:
        return DEFAULT_LABEL_TABLE[key]
    except KeyError:
        raise LabelMappingError(
            f"unmapped raw label {raw_label!r} in dataset {dataset.value!r}"
        ) from None


def ingest(
    path: str | Path,
    dataset: DatasetKind | str,
    fmt: str | None = None,
) -> IngestResult:
    """Read a corpus file into Article objects, raw labels preserved.

    Rows with an empty headline or body are dropped and counted; rows that
    do not parse are skipped with a warning count. A duplicate article id is
    an error: ids are the join key for every later stage.
    """
    try:
        dataset = DatasetKind(dataset)
    except ValueError:
        raise IngestError(f"unknown dataset {dataset!r}") from None
    fmt = fmt or _DEFAULT_FORMATS[dataset]
    if fmt not in ("csv", "jsonl"):
        raise IngestError(f"unknown corpus format {fmt!r} (expected csv or jsonl)")

    path = Path(path)
    try:  # newline="": the csv module reads line ends inside quoted fields itself
        handle = path.open(encoding="utf-8", newline="" if fmt == "csv" else None)
    except OSError as exc:
        raise IngestError(f"cannot read corpus file {path}: {exc}") from exc

    result = IngestResult(articles=[])
    seen_ids: set[str] = set()
    with handle:
        try:
            for line_no, row in _read_csv(handle) if fmt == "csv" else _read_jsonl(handle):
                result.rows_read += 1
                if isinstance(row, str):  # parse failure, message in the row slot
                    result.skipped_malformed += 1
                    result.warnings.append(f"row {line_no}: {row}")
                    continue
                try:
                    article = _row_to_article(row, dataset)
                except ValueError as exc:
                    result.skipped_malformed += 1
                    result.warnings.append(f"row {line_no}: {exc}")
                    continue
                if not article.headline.strip() or not article.body.strip():
                    result.dropped_empty += 1
                    continue
                if article.id in seen_ids:
                    raise IngestError(f"duplicate article id {article.id!r} at row {line_no}")
                seen_ids.add(article.id)
                result.articles.append(article)
        except UnicodeDecodeError as exc:  # raised while reading, so no row number
            raise IngestError(f"cannot read corpus file {path}: {exc}") from exc

    for message in result.warnings:
        logger.warning("ingest %s: %s", path.name, message)
    return result


def _read_csv(lines: Iterable[str]):
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        raise IngestError("corpus file is empty")
    missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"corpus file missing required columns: {missing}")
    for line_no, row in enumerate(reader, start=2):
        if None in row.values() or None in row:
            yield line_no, "column count does not match the header"
            continue
        yield line_no, row


def _read_jsonl(lines: Iterable[str]):
    # Split at line ends only: JSON allows U+0085, U+2028 and U+2029 raw in strings.
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_no, f"invalid JSON ({exc.msg})"
            continue
        if not isinstance(obj, dict):
            yield line_no, "record is not an object"
            continue
        if None in map(obj.get, _REQUIRED_COLUMNS):  # a required key is missing or null
            missing = [c for c in _REQUIRED_COLUMNS if c not in obj]
            nulls = [c for c in _REQUIRED_COLUMNS if obj.get(c, "") is None]
            yield line_no, f"missing keys {missing}" if missing else f"null keys {nulls}"
            continue
        # str() would write a nested value's Python repr into the article.
        # Only a line with a bracket past its first character can hold one,
        # and that substring test is far cheaper than looking at each value.
        if ("[" in line or "{" in line[1:]) and (
            nested := [c for c in _ARTICLE_COLUMNS if isinstance(obj.get(c), (dict, list))]
        ):
            yield line_no, f"object or list values for keys {nested}"
            continue
        yield line_no, obj


def _row_to_article(row: Mapping[str, object], dataset: DatasetKind) -> Article:
    published_raw = row.get("published")
    published = None
    if published_raw not in (None, ""):
        try:
            published = jsonio.parse_date(str(published_raw).strip())
        except ValueError:
            raise ValueError(f"bad published date {published_raw!r}") from None
    source_domain = row.get("source_domain") or None
    claim = row.get("claim") or None
    return Article(
        id=str(row["id"]).strip(),
        headline=str(row["headline"]),
        body=str(row["body"]),
        dataset=dataset,
        raw_label=str(row["raw_label"]),
        published=published,
        source_domain=str(source_domain).strip().lower() if source_domain else None,
        claim=str(claim) if claim else None,
    )


@dataclass
class NormalizeResult:
    articles: list[Article]
    dropped: int = 0


def normalize_articles(articles: Iterable[Article]) -> NormalizeResult:
    """Assign normalized labels; rows mapping to DROP leave the corpus."""
    result = NormalizeResult(articles=[])
    for article in articles:
        outcome = normalize_label(article.raw_label, article.dataset)
        if isinstance(outcome, _Drop):
            result.dropped += 1
            continue
        result.articles.append(replace(article, label=outcome))
    return result


def label_distribution(items: Sequence) -> dict[VeracityLabel, int]:
    """Count articles, or pipeline records, per label; unlabeled ones are not counted."""
    counts = {label: 0 for label in VeracityLabel}
    for item in items:
        if item.label is not None:
            counts[item.label] += 1
    return counts


def save_store(articles: Sequence[Article], path: str | Path) -> None:
    """Write normalized articles as deterministic JSON lines."""
    jsonio.CODEC.write_lines(articles, path)


def load_store(path: str | Path) -> list[Article]:
    """Read articles written by ``save_store``."""
    return jsonio.CODEC.read_lines(Article, path, "store", error=IngestError)
