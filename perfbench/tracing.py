"""Spans around calls into claimcheck's modules, and the per-layer metrics.

claimcheck binds its dependencies with ``from .x import y``, so a function
is wrapped at every import site that calls it (``claimrank.encode``,
``evidence.encode``, ``pipeline.summarize``, ...), not only where it is
defined. Wrappers are installed for one traced pass and removed after it;
the program's own files are never changed. Spans stay in memory until the
pass ends. Per-token functions (``tokenize``, ``stable_bucket``) are not
wrapped, because a span per token would double the traced time; tokens are
counted from the encoded texts after the pass instead.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from claimcheck import claimrank, config, corpus, evidence, pipeline, veracity
from claimcheck import summarize as summarize_module
from claimcheck.corpus import Article
from claimcheck.textproc import tokenize

NAME, START, END, PARENT, TRACE_ID = range(5)  # span fields; times in perf_counter_ns


class Tracer:
    """Collects spans and the counts taken at the same call boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"  # trace id of spans with no article and no parent
        self.counts: Counter[str] = Counter()
        self.encoded_texts: list[str] = []
        self.queries: list[str] = []
        self.feature_texts: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if args and isinstance(args[0], Article):
                trace_id = args[0].id
            elif parent is not None:
                trace_id = spans[parent][TRACE_ID]
            else:
                trace_id = self.phase
            span = [name, 0, 0, parent, trace_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # Hooks run after a wrapped call returns; keep them cheap.
    def _sentences(self, args, result) -> None:
        self.counts["sentences_out"] += len(result)

    def _ranked(self, args, result) -> None:
        self.counts["sentences_ranked"] += len(result)

    def _encoded(self, args, result) -> None:
        self.encoded_texts.append(args[1])

    def _evidence(self, args, result) -> None:
        self.counts["kept"] += len(result.articles)
        self.counts["nei"] += result.is_empty

    def _searched(self, args, result) -> None:
        self.queries.append(args[1].text)
        self.counts["search_hits"] += bool(result)

    def _written(self, args, result) -> None:
        self.counts["records_bytes"] += os.path.getsize(args[1])

    def _featurized(self, args, result) -> None:
        self.feature_texts.add(args[1])

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent, name, trace id, start ns, end ns."""
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps([index, span[PARENT], span[NAME], span[TRACE_ID], span[START], span[END]]))
                out.write("\n")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers at every import site; restore the originals on exit."""
    classifier = veracity.HashedLinearClassifier
    sites = [
        (corpus, "ingest", "corpus.ingest", None),
        (corpus, "normalize_articles", "corpus.normalize_articles", None),
        (pipeline, "build_runtime", "config.build_runtime", None),
        (config, "build_classifier", "config.build_classifier", None),
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
        (pipeline, "write_records", "pipeline.write_records", tracer._written),
        (pipeline, "read_records", "pipeline.read_records", None),
        (pipeline, "build_examples", "pipeline.build_examples", None),
        (pipeline, "annotate_predictions", "pipeline.annotate_predictions", None),
        (pipeline, "summarize", "summarize.summarize", None),
        (pipeline, "rank_sentences", "claimrank.rank_sentences", tracer._ranked),
        (pipeline, "gather_evidence", "evidence.gather_evidence", tracer._evidence),
        (claimrank, "split_sentences", "textproc.split_sentences", tracer._sentences),
        (evidence, "split_sentences", "textproc.split_sentences", tracer._sentences),
        (summarize_module, "split_sentences", "textproc.split_sentences", tracer._sentences),
        (claimrank, "encode", "encode.encode", tracer._encoded),
        (evidence, "encode", "encode.encode", tracer._encoded),
        (claimrank, "cosine_distance", "encode.cosine_distance", None),
        (evidence, "cosine_distance", "encode.cosine_distance", None),
        (evidence, "search", "providers.search", tracer._searched),
        (evidence, "is_credible", "evidence.is_credible", None),
        (evidence, "date_window", "evidence.date_window", None),
        (veracity, "split_dataset", "veracity.split_dataset", None),
        (veracity, "train", "veracity.train", None),
        (veracity, "label_accuracy", "veracity.label_accuracy", None),
        (veracity, "evaluate", "veracity.evaluate", None),
        (classifier, "features", "veracity.features", tracer._featurized),
        (classifier, "train_epoch", "veracity.train_epoch", None),
        (classifier, "predict_proba", "veracity.predict_proba", None),
        (classifier, "save", "veracity.save", None),
        (classifier, "load", "veracity.load", None),
    ]
    saved = []
    try:
        for owner, attr, name, after in sites:
            raw = vars(owner)[attr]
            traced = tracer.wrap(getattr(owner, attr), name, after)
            saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for child in sorted(children.get(index, ()), key=lambda c: c[START]):
            lo, hi = max(child[START], reach), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer self times (s), counts and ratios of one traced pass.

    ``traced_wall_s`` is the pass's timed wall time; what no root span
    covers is reported as ``trace.uncovered_s``.
    """
    spans = tracer.spans
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    covered_ns = scored = 0
    for span, own in zip(spans, self_times(spans)):
        self_s[span[NAME]] += own / 1e9
        calls[span[NAME]] += 1
        if span[PARENT] is None:
            covered_ns += span[END] - span[START]
        elif span[NAME] == "encode.cosine_distance" and spans[span[PARENT]][NAME] == "evidence.gather_evidence":
            scored += 1
    tokens, distinct = 0, set()
    for text in tracer.encoded_texts:
        words = tokenize(text)
        tokens += len(words)
        distinct.update(words)
    counts = tracer.counts
    return {
        "corpus.ingest_s": self_s["corpus.ingest"] + self_s["corpus.normalize_articles"],
        "config.build_runtime_s": self_s["config.build_runtime"],
        "textproc.split_sentences_s": self_s["textproc.split_sentences"],
        "textproc.sentences_out": counts["sentences_out"],
        "encode.encode_s": self_s["encode.encode"],
        "encode.encode_calls": calls["encode.encode"],
        "encode.tokens_hashed": tokens,
        "encode.token_reuse_ratio": 1.0 - _ratio(len(distinct), tokens) if tokens else 0.0,
        "encode.cosine_distance_s": self_s["encode.cosine_distance"],
        "summarize.summarize_s": self_s["summarize.summarize"],
        "summarize.summarize_calls": calls["summarize.summarize"],
        "claimrank.rank_sentences_s": self_s["claimrank.rank_sentences"],
        "claimrank.sentences_ranked": counts["sentences_ranked"],
        "evidence.filter_s": self_s["evidence.is_credible"] + self_s["evidence.date_window"],
        "evidence.results_seen": calls["evidence.is_credible"],
        "evidence.kept_ratio": _ratio(counts["kept"], calls["evidence.is_credible"]),
        "evidence.select_s": self_s["evidence.gather_evidence"],
        "evidence.sentences_scored": scored,
        "evidence.nei_ratio": _ratio(counts["nei"], calls["evidence.gather_evidence"]),
        "providers.search_s": self_s["providers.search"],
        "providers.search_calls": calls["providers.search"],
        "providers.distinct_query_ratio": _ratio(len(set(tracer.queries)), calls["providers.search"]),
        "providers.cache_hit_ratio": _ratio(counts["search_hits"], calls["providers.search"]),
        "pipeline.orchestration_s": self_s["pipeline.run_pipeline"],
        "pipeline.write_records_s": self_s["pipeline.write_records"],
        "pipeline.read_records_s": self_s["pipeline.read_records"],
        "pipeline.records_bytes": counts["records_bytes"],
        "veracity.features_s": self_s["veracity.features"],
        "veracity.features_per_example": _ratio(calls["veracity.features"], len(tracer.feature_texts)),
        "veracity.train_epoch_s": self_s["veracity.train_epoch"],
        "veracity.predict_proba_s": self_s["veracity.predict_proba"],
        "trace.uncovered_s": traced_wall_s - covered_ns / 1e9,
    }
