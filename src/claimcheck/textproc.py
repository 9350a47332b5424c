"""Tokenization, sentence segmentation, and unigram/LCS overlap scores.

Everything here is pure and deterministic: no model downloads, no locale
dependence. The tokenizer lowercases and keeps only alphanumeric runs, so
scores computed on top of it reproduce across machines.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

TokenSeq = list[str]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII, ``[^\W_]`` is exactly ``[A-Za-z0-9]``: this table lowercases
# ``A-Z``, keeps ``a-z`` and ``0-9`` and turns every other byte into a space.
_ASCII_TOKEN_TABLE = bytes(b if b < 128 and chr(b).isalnum() else 32 for b in bytes(range(256)).lower())

# Words that commonly precede a non-terminal period. Lowercase, no dot.
DEFAULT_ABBREVIATIONS = frozenset(
    {
        "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "gen", "sen", "rep",
        "gov", "col", "capt", "lt", "sgt", "st", "jr", "sr", "vs", "etc",
        "inc", "ltd", "co", "corp", "dept", "univ", "est", "fig", "no",
    }
)

_TERMINATOR_RE = re.compile(r"[.!?]")


def tokenize(text: str) -> TokenSeq:
    """Lowercase ``text`` and split it into alphanumeric tokens.

    Punctuation is discarded, digits are kept. Empty input yields an empty
    token list. ASCII text goes through a byte table and ``str.split``,
    several times faster than the regex and equal to it by construction;
    text with any non-ASCII character (curly quotes, dashes, accents) uses
    ``_TOKEN_RE``, which stays the definition.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_TABLE).decode("ascii").split()
    return _TOKEN_RE.findall(text.lower())


def has_tokens(text: str) -> bool:
    """``bool(tokenize(text))``; ``.lower()`` never changes whether ``[^\\W_]`` matches."""
    return _TOKEN_RE.search(text) is not None


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Load one abbreviation per line; blank lines and ``#`` comments skipped."""
    entries = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip().lower().rstrip(".")
        if entry:
            entries.add(entry)
    return frozenset(entries)


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    """Split ``text`` into sentences.

    A boundary is a ``.``, ``!`` or ``?`` followed by whitespace and an
    uppercase letter, or by end of text. A period is not a boundary when the
    word before it is in the abbreviation guard list. Only whitespace is
    trimmed, so joining the returned sentences loses no tokens relative to
    ``tokenize(text)``.

    ASCII text is split by one compiled regex, over twice as fast and equal
    by construction; other text keeps the ``_is_boundary`` loop, which stays
    the definition (perfbench text is all ASCII, so it never times the loop).
    """
    guard = DEFAULT_ABBREVIATIONS if abbreviations is None else abbreviations
    if text.isascii():
        parts = _ascii_boundary_re(guard).split(text.strip())
        pairs = iter(parts)  # sentence, terminator, ..., last sentence or ""
        return [s + t for s, t in zip(pairs, pairs)] + list(filter(None, parts[-1:]))
    sentences: list[str] = []
    start = 0
    for match in _TERMINATOR_RE.finditer(text):
        i = match.start()
        if _is_boundary(text, i, guard):
            piece = text[start : i + 1].strip()
            if piece:
                sentences.append(piece)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


@lru_cache
def _ascii_boundary_re(guard: frozenset[str]) -> re.Pattern[str]:
    # One fixed-width lookbehind per guarded word length; only [a-z]* words can
    # match ASCII text. No re.ASCII: \s must match \x1c-\x1f like str.isspace.
    words = sorted(w for w in guard if re.fullmatch("[a-z]*", w))
    alternations = {len(w): "|".join(v for v in words if len(v) == len(w)) for w in words}
    lookbehinds = "".join(f"(?<!(?<![A-Za-z])(?i:{alt})\\.)" for alt in alternations.values())
    return re.compile(f"([.!?]){lookbehinds}\\s+(?=[A-Z])")


def _is_boundary(text: str, i: int, guard: frozenset[str]) -> bool:
    j = i + 1
    n = len(text)
    while j < n and text[j].isspace():
        j += 1
    if j < n:
        if j == i + 1:  # terminator glued to the next character
            return False
        if not text[j].isupper():
            return False
    if text[i] == ".":
        k = i
        while k > 0 and text[k - 1].isalpha():
            k -= 1
        if text[k:i].lower() in guard:
            return False
    return True


@dataclass(frozen=True)
class RougeScore:
    """Precision/recall/F1 triple, each in [0, 1]."""

    precision: float
    recall: float
    f1: float


def _score(overlap: float, candidate_len: int, reference_len: int) -> RougeScore:
    if candidate_len == 0 or reference_len == 0:
        return RougeScore(0.0, 0.0, 0.0)
    precision = overlap / candidate_len
    recall = overlap / reference_len
    if precision + recall == 0.0:
        return RougeScore(precision, recall, 0.0)
    return RougeScore(precision, recall, 2.0 * precision * recall / (precision + recall))


def rouge1(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    """Unigram overlap score with clipped (multiset) counts.

    No stemming, no stopword removal. An empty candidate or reference gives
    an all-zero score.
    """
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    return _score(overlap, len(candidate), len(reference))


def rouge_l(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    """Longest-common-subsequence overlap score."""
    return _score(_lcs_length(candidate, reference), len(candidate), len(reference))


def _lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    # Two-row dynamic program: O(len(a) * len(b)) time, O(len(b)) space.
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]
