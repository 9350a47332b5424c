"""Summarizer backend contract with a deterministic extractive fallback.

The abstractive models this slot was designed around run behind the same
interface as adapters; the shipped backend is a lead-sentence extractor so
the pipeline runs offline. It is a determinism stand-in, not an
abstractive-quality substitute.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod

from .errors import SummarizeError
from .textproc import split_sentences, tokenize

logger = logging.getLogger(__name__)

DEFAULT_MAX_TOKENS = 180


class SummarizerBackend(ABC):
    """Body-to-summary backend, deterministic for a fixed configuration."""

    name: str

    def __init__(self, max_tokens: int = DEFAULT_MAX_TOKENS):
        if max_tokens < 1:
            raise ValueError("token budget must be positive")
        self.max_tokens = int(max_tokens)

    @abstractmethod
    def summarize(self, body: str) -> str:
        """Produce a summary of a non-empty article body."""


class LeadSummarizer(SummarizerBackend):
    """Extractive fallback: the leading sentences that fit the token budget."""

    name = "lead"

    def __init__(self, max_tokens: int = DEFAULT_MAX_TOKENS, abbreviations: frozenset[str] | None = None):
        super().__init__(max_tokens)
        self.abbreviations = abbreviations

    def summarize(self, body: str) -> str:
        return lead_fallback_summarize(body, self.max_tokens, self.abbreviations)


def lead_fallback_summarize(
    body: str,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    abbreviations: frozenset[str] | None = None,
) -> str:
    """Take leading whole sentences while the running token count fits.

    If the first sentence alone exceeds ``max_tokens`` it is cut at the word
    boundary where the budget runs out.
    """
    if not body or not body.strip():
        raise SummarizeError("cannot summarize an empty body")
    sentences = split_sentences(body, abbreviations)
    if not sentences:
        raise SummarizeError("body contains no sentences")

    taken: list[str] = []
    total = 0
    for sentence in sentences:
        count = len(tokenize(sentence))
        if total + count > max_tokens:
            break
        taken.append(sentence)
        total += count
    if not taken:
        # Single oversized first sentence: truncate it at the token budget.
        return _truncate_to_tokens(sentences[0], max_tokens)
    return " ".join(taken)


def _truncate_to_tokens(text: str, max_tokens: int) -> str:
    words = text.split()
    taken: list[str] = []
    total = 0
    for word in words:
        count = len(tokenize(word))
        if total + count > max_tokens:
            break
        taken.append(word)
        total += count
    return " ".join(taken)


def summarize(backend: SummarizerBackend, body: str) -> str:
    """Run a backend and enforce its ``max_tokens`` budget.

    The bound is hard: an over-long summary is truncated and logged, never
    passed through.
    """
    if not body or not body.strip():
        raise SummarizeError("cannot summarize an empty body")
    out = backend.summarize(body)
    if not out or not out.strip():
        raise SummarizeError(f"backend {backend.name!r} produced an empty summary")
    count = len(tokenize(out))
    if count > backend.max_tokens:
        logger.warning(
            "summary from %r has %d tokens, truncating to %d",
            backend.name, count, backend.max_tokens,
        )
        out = _truncate_to_tokens(out, backend.max_tokens)
    return out
