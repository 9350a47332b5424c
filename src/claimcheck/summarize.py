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

    def summarize(self, body: str) -> str:
        """Take leading whole sentences while the running token count fits.

        If the first sentence alone exceeds ``max_tokens`` it is cut at the
        word boundary where the budget runs out.
        """
        sentences = split_sentences(body)
        if not sentences:
            raise SummarizeError("body contains no sentences")
        taken = _lead_within(sentences, self.max_tokens) or _lead_within(sentences[0].split(), self.max_tokens)
        return " ".join(taken)


def _lead_within(pieces: list[str], max_tokens: int) -> list[str]:
    """The longest leading run of ``pieces`` whose tokens number at most ``max_tokens``."""
    total = 0
    for end, piece in enumerate(pieces):
        total += len(tokenize(piece))
        if total > max_tokens:
            return pieces[:end]
    return pieces


def summarize(backend: SummarizerBackend, body: str) -> str:
    """Run a backend and enforce its ``max_tokens`` budget.

    The bound is hard: an over-long summary is truncated and logged, never
    passed through. The lead rule counts tokens as it takes sentences, so
    its summaries are not counted again. A summary that is empty, also once
    truncated, is an error.
    """
    if not body or not body.strip():
        raise SummarizeError("cannot summarize an empty body")
    out = backend.summarize(body)
    if type(backend) is not LeadSummarizer and (count := len(tokenize(out))) > backend.max_tokens:
        logger.warning(
            "summary from %r has %d tokens, truncating to %d",
            backend.name, count, backend.max_tokens,
        )
        out = " ".join(_lead_within(out.split(), backend.max_tokens))
    if not out.strip():
        raise SummarizeError(f"backend {backend.name!r} produced an empty summary")
    return out
