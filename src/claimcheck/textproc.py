"""Tokenization, sentence segmentation, and unigram/LCS overlap scores.

Everything here is pure and deterministic: no model downloads, no locale
dependence. Non-ASCII text follows the interpreter's Unicode database, so
results reproduce across machines with one ``unicodedata.unidata_version``.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError

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


def ascii_token_spans(texts: Sequence[str]) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """``tokenize``'s tokens of ASCII ``texts`` as spans: the texts joined by spaces, passed through
    its byte table and framed by spaces, each token's start and end in those bytes, and each text's token count."""
    data = b" " + " ".join(texts).encode("ascii").translate(_ASCII_TOKEN_TABLE) + b" "
    spaces = np.frombuffer(data, np.uint8) == 32
    starts, ends = (np.flatnonzero(spaces[:-1] != spaces[1:]) + 1).reshape(-1, 2).T  # space to token, token to space
    text_ends = np.cumsum(np.fromiter(map(len, texts), np.intp, len(texts)) + 1)  # each text and its separator
    return data, starts, ends, np.diff(np.searchsorted(starts, text_ends), prepend=0)


def has_tokens(text: str) -> bool:
    """``bool(tokenize(text))``; ``.lower()`` never changes whether ``[^\\W_]`` matches."""
    return _TOKEN_RE.search(text) is not None


def list_entries(path: str | Path) -> list[str]:
    """The lowercased entries of a one-entry-per-line file, in file order;
    blank lines and ``#`` comments are skipped.

    Lines end at line ends only, not at every character that
    ``str.splitlines`` splits at (U+0085, U+2028, ...). A file that is not
    UTF-8 is a ConfigError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as lines:
            entries = [line.split("#", 1)[0].strip().lower() for line in lines]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read list file {path}: {exc}") from None
    return [entry for entry in entries if entry]


# Texts whose splits are kept. It is also ``pipeline.BLOCK_ARTICLES``: p2
# splits a block's bodies twice, to summarize and then to rank them.
KEPT_SPLITS = 128


def split_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences.

    A boundary is a ``.``, ``!`` or ``?`` followed by whitespace and an
    uppercase letter, or by end of text. A period is not a boundary when the
    word before it is in ``DEFAULT_ABBREVIATIONS``. Only whitespace is
    trimmed, so joining the returned sentences loses no tokens relative to
    ``tokenize(text)``. Every text is split by one ``_boundary_re`` pattern,
    whose Unicode letter classes, built for non-ASCII text, equal ASCII's on ASCII.
    The last ``KEPT_SPLITS`` texts' splits are kept, and each call returns a new list.
    """
    return _split_sentences(text).copy()


def forget_splits() -> None:
    """Drop the kept splits; ``build_runtime`` does, so each runtime's texts die with it."""
    _split_sentences.cache_clear()


@functools.lru_cache(maxsize=KEPT_SPLITS)
def _split_sentences(text: str) -> list[str]:
    pattern = _ASCII_BOUNDARY_RE if text.isascii() else _unicode_boundary_re()
    parts = pattern.split(text.strip())
    pairs = iter(parts)  # sentence, terminator, ..., last sentence or ""
    return [s + t for s, t in zip(pairs, pairs)] + list(filter(None, parts[-1:]))


def _boundary_re(upper: str, alpha: str) -> re.Pattern[str]:
    """``split_sentences``'s rule over the letter classes ``upper`` and
    ``alpha``: one fixed-width lookbehind per guarded word length, guard words
    in ASCII case only (``ſt`` and ``İnc`` do not lowercase to one), and no
    re.ASCII, so ``\\s`` is ``str.isspace``."""
    lengths = sorted({len(word) for word in DEFAULT_ABBREVIATIONS})
    words = ["|".join(sorted(w for w in DEFAULT_ABBREVIATIONS if len(w) == n)) for n in lengths]
    guards = "".join(f"(?<!(?<![{alpha}])(?ai:{alt})\\.)" for alt in words)
    return re.compile(f"([.!?]){guards}\\s+(?=[{upper}])")


_ASCII_BOUNDARY_RE = _boundary_re("A-Z", "A-Za-z")


@functools.cache  # built on the first non-ASCII text, once per process: about 0.25 s
def _unicode_boundary_re() -> re.Pattern[str]:
    return _boundary_re(_code_point_class(str.isupper), _code_point_class(str.isalpha))


def _code_point_class(predicate) -> str:
    """The code points where ``predicate`` holds, as ``re`` class ranges."""
    held = bytes(map(predicate, map(chr, range(0x110000)))) + b"\0"  # every code point, then a stop
    ranges, lo = [], held.find(1)
    while lo >= 0:
        hi = held.find(0, lo)
        ranges.append(f"{chr(lo)}-{chr(hi - 1)}")
        lo = held.find(1, hi)
    return "".join(ranges)


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
