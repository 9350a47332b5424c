"""End-to-end orchestration of the three fact-checking pipeline variants.

Variant p1 ranks body sentences against the headline, p2 against a
generated summary; p3 skips ranking and sends headline plus summary
straight downstream. Articles run stage by stage in blocks, and each
encoding step is one batch per block. Each article produces one
self-contained record: signal, sentence ranking (indices and distances),
claims, query, filtered evidence, and the assigned label (the gold label,
overridden to NEI when no evidence survived). Records are persisted as
deterministic JSON lines so classifier experiments replay without
re-searching; v1 files, which stored each ranked sentence's text, still read.
"""

from __future__ import annotations

import copy
import logging
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from . import jsonio
from .claimrank import rank_block
from .config import (
    PipelineConfig,
    build_encoder,
    build_provider,
    build_summarizer,
    load_credible_list,
)
from .corpus import Article, VeracityLabel
from .encode import EncoderBackend
from .errors import INPUT_ERRORS, PipelineError, unwrap
from .evidence import (
    CredibleDomainList,
    EvidenceArticle,
    EvidenceSet,
    Query,
    SearchProvider,
    build_query,
    retrieve,
    select_evidence,
)
from .summarize import SummarizerBackend, summarize
from .textproc import KEPT_SPLITS, forget_splits, rouge1, rouge_l, tokenize
from .veracity import HashedLinearClassifier, LabeledText, featurize_concat, featurize_content, predict_texts

# Unused here. perfbench's tracer wraps functions at their import sites,
# and these are two of the names it wraps in this module.
from .claimrank import rank_sentences  # noqa: F401, E402  # isort: skip
from .evidence import gather_evidence  # noqa: F401, E402  # isort: skip

logger = logging.getLogger(__name__)

RECORD_SCHEMA = "pipeline-record.v2"  # v1 files still read
BLOCK_ARTICLES = KEPT_SPLITS  # articles per stage-major block (see run_pipeline); not a setting


class PipelineVariant(str, Enum):
    """Variant ids; values double as CLI names."""

    P1_HEADLINE = "p1"
    P2_SUMMARY = "p2"
    P3_HEADLINE_PLUS_SUMMARY = "p3"

    @property
    def signal_kind(self) -> str:
        """The records' name for the variant's internal signal."""
        return {"p1": "headline", "p2": "summary", "p3": "headline_plus_summary"}[self.value]


@dataclass
class PipelineRuntime:
    """A pipeline config and the backends built from it for one run."""

    config: PipelineConfig
    encoder: EncoderBackend
    summarizer: SummarizerBackend
    provider: SearchProvider
    credible: CredibleDomainList


def build_runtime(config: PipelineConfig, provider: SearchProvider | None = None) -> PipelineRuntime:
    forget_splits()  # an earlier runtime's kept texts would otherwise pin memory under this one's
    return PipelineRuntime(
        config=config,
        encoder=build_encoder(config.encoder),
        summarizer=build_summarizer(config.summarizer),
        provider=provider if provider is not None else build_provider(config.provider),
        credible=load_credible_list(config),
    )


@dataclass(frozen=True)
class StageOutputs:
    """Signal, ranking, claim, and query for one article under one variant;
    ``ranked`` and ``distances`` are as in ``PipelineRecord``."""

    signal: str
    ranked: tuple[int, ...] | None  # None for p3
    distances: tuple[float, ...] | None
    claim: str
    query: Query


def derive_stages(article: Article, variant: PipelineVariant, runtime: PipelineRuntime) -> StageOutputs:
    """Run the pre-retrieval stages for one article. Shared by the pipeline
    and by fixture tooling so query text is derived in exactly one place."""
    return unwrap(_derive_block([article], variant, runtime)[0])


def _attempt(step, *args):
    """``step(*args)``, or the input error it raised; other errors propagate."""
    try:
        return step(*args)
    except INPUT_ERRORS as exc:
        return exc


def _failed(*entries) -> Exception | None:
    return next((entry for entry in entries if isinstance(entry, Exception)), None)


def _signal(article: Article, variant: PipelineVariant, summarizer: SummarizerBackend) -> tuple:
    """The internal signal's text and the summary in it (None for p1)."""
    if variant is PipelineVariant.P1_HEADLINE:
        signal, summary = article.headline, None
    else:
        summary = summarize(summarizer, article.body)
        signal = summary if variant is PipelineVariant.P2_SUMMARY else f"{article.headline} {summary}"
    if not signal.strip():
        raise ValueError("internal signal text must be non-empty")
    return signal, summary


def _stages(
    article: Article, signal: str, summary: str | None, ranking: tuple | None, config: PipelineConfig
) -> StageOutputs:
    if ranking is None:  # p3: no per-sentence ranking, the gist itself goes downstream
        query = build_query(article.headline, summary, config.query_word_limit)
        return StageOutputs(signal=signal, ranked=None, distances=None, claim=signal, query=query)
    sentences, ranked, distances = ranking
    claim = " ".join([sentences[i] for i in ranked[: config.claims_k]])
    query = build_query(article.headline, claim, config.query_word_limit)
    return StageOutputs(signal=signal, ranked=ranked, distances=distances, claim=claim, query=query)


def _derive_block(articles: Sequence[Article], variant: PipelineVariant, runtime: PipelineRuntime) -> list:
    """Phases 1 and 2 of ``run_pipeline``; entry ``i`` is article ``i``'s stage outputs or input error."""
    gists = [_attempt(_signal, article, variant, runtime.summarizer) for article in articles]
    rankings = [None] * len(articles)
    if variant is not PipelineVariant.P3_HEADLINE_PLUS_SUMMARY:
        ok = [i for i, gist in enumerate(gists) if not _failed(gist)]
        bodies, signals = [articles[i].body for i in ok], [gists[i][0] for i in ok]
        for i, ranking in zip(ok, rank_block(bodies, signals, runtime.encoder)):
            rankings[i] = ranking
    return [
        _failed(gist, ranking) or _attempt(_stages, article, *gist, ranking, runtime.config)
        for article, gist, ranking in zip(articles, gists, rankings)
    ]


@dataclass
class PipelineRecord:
    """Per-article trace of one pipeline run.

    ``ranked`` is each sentence's index in ``split_sentences(body)``,
    closest to the signal first, and ``distances`` their distances (both None
    for p3). ``label`` is the gold label with the NEI override applied. ``timings``
    are diagnostic; the constructor does not take them, which keeps them
    out of records files, so those are byte-stable across runs. Each is an
    even share of a block's seconds, so a key summed over a run's records
    is the run's time in it: ``stages`` for phases 1-2 of ``run_pipeline``
    (signals through queries), ``evidence`` for phases 3-4 (search through
    evidence selection), and ``total`` for both.
    """

    article_id: str
    variant: PipelineVariant
    gold_label: VeracityLabel | None = None
    label: VeracityLabel | None = None
    signal_kind: str | None = None
    signal_text: str | None = None
    ranked: tuple[int, ...] | None = None
    distances: tuple[float, ...] | None = None
    claim: str | None = None
    query: str | None = None
    article_date_missing: bool = False
    evidence: EvidenceSet | None = None
    predicted_label: VeracityLabel | None = None
    predicted_probabilities: tuple[float, ...] | None = None
    error: str | None = None
    timings: dict[str, float] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if (self.ranked is None) != (self.distances is None) or len(self.ranked or ()) != len(self.distances or ()):
            raise ValueError("ranked and distances must both be null, or lists of one length")


@dataclass(frozen=True)
class _RankedSentence:  # one entry of a v1 ranking: v1 stored each ranked sentence's text
    index: int
    text: str
    distance: float
    rank: int


@dataclass(frozen=True)
class _V1Ranking:  # a v1 line's ranking, read with v1's errors; a "distances" key is unknown in v1
    ranked: tuple[_RankedSentence, ...] | None = None


def _upgraded(data):
    """A v1 record's stored form in v2 form; any other value as it is."""
    if type(data) is dict and data.get("schema") == "pipeline-record.v1":
        data["schema"] = RECORD_SCHEMA
        ranked = _RECORDS.reader(_V1Ranking)({k: data.pop(k) for k in ("ranked", "distances") if k in data}).ranked
        if ranked is not None:
            ranked = sorted(ranked, key=lambda s: s.rank)
            data["ranked"], data["distances"] = [s.index for s in ranked], [s.distance for s in ranked]
    return data


_RECORDS = jsonio.Codec(
    tags={PipelineRecord: ("schema", RECORD_SCHEMA)},
    # A stored evidence article is its search result's fields, minus the body
    # (full bodies are not persisted), next to the article's own fields.
    inline={EvidenceArticle: ("result", {"body": ""})},
    reshape={PipelineRecord: _upgraded},
)


def _run_block(articles: Sequence[Article], variant: PipelineVariant, runtime: PipelineRuntime) -> list:
    config, started = runtime.config, time.monotonic()
    stages = _derive_block(articles, variant, runtime)
    derived = time.monotonic()
    limits = (config.date_window_months, config.max_search_results, config.max_evidence_articles)
    evidence = [  # one article after another, so a provider sees the queries in article order
        _failed(stage) or _attempt(retrieve, article, stage.query, runtime.provider, runtime.credible, *limits)
        for article, stage in zip(articles, stages)
    ]
    ok = [i for i, survivors in enumerate(evidence) if not _failed(survivors)]
    claims, survivors = [stages[i].claim for i in ok], [evidence[i] for i in ok]
    chosen = select_evidence(claims, survivors, runtime.encoder, config.max_evidence_sentences)
    for i, evidence_set in zip(ok, chosen):
        evidence[i] = evidence_set
    finished, share = time.monotonic(), 1.0 / len(articles)
    timings = {"stages": derived - started, "evidence": finished - derived, "total": finished - started}
    timings = {key: seconds * share for key, seconds in timings.items()}
    return [_record(*entries, variant, timings) for entries in zip(articles, stages, evidence)]


def _record(article: Article, stages, evidence, variant: PipelineVariant, timings: dict) -> PipelineRecord:
    record = PipelineRecord(
        article_id=article.id,
        variant=variant,
        gold_label=article.label,
        article_date_missing=article.published is None,
    )
    record.timings.update(timings)
    if not _failed(stages):
        record.signal_kind, record.signal_text = variant.signal_kind, stages.signal
        record.ranked, record.distances = stages.ranked, stages.distances
        record.claim, record.query = stages.claim, stages.query.text
    error = _failed(evidence)  # a failed article's stage error is its evidence entry too
    if error is None:
        record.evidence = evidence
        record.label = VeracityLabel.NEI if evidence.is_empty else article.label
    else:  # bad input: record it, keep going
        logger.warning("article %s failed in variant %s: %s", article.id, variant.value, error)
        record.error = f"{type(error).__name__}: {error}"
    return record


def run_pipeline(
    articles: Sequence[Article], variant: PipelineVariant, runtime: PipelineRuntime
) -> list[PipelineRecord]:
    """Process every article under one variant; records keep input order.

    Articles run in the calling thread (backends need not be thread-safe)
    in blocks of ``BLOCK_ARTICLES``, phase by phase: (1) each signal, with
    its summary for p2 and p3; (2) for p1 and p2, one ``encode_batch`` for
    the signals and one for all body sentences, then each ranking, claim
    and query; (3) search and filtering in article order, so a provider
    sees the queries in the order one article at a time would send them;
    (4) one ``encode_batch`` for the claims and one for all evidence
    sentences, then each article's top evidence. Every text is checked for
    tokens and every row against the embedding contract, so bad input or a
    bad row fails only its own article's record, with the error that
    article alone would get. Only a run where every article failed raises;
    other exceptions are programming errors and propagate.
    """
    records = []
    for start in range(0, len(articles), BLOCK_ARTICLES):
        records += _run_block(articles[start : start + BLOCK_ARTICLES], variant, runtime)
    if records and all(r.error for r in records):
        raise PipelineError(
            f"every article failed in variant {variant.value}; first error: {records[0].error}"
        )
    return records


def write_records(records: Sequence[PipelineRecord], path: str | Path) -> None:
    """One canonical-JSON record per line; stable bytes for fixed inputs."""
    _RECORDS.write_lines(records, path)


def read_records(path: str | Path) -> list[PipelineRecord]:
    return _RECORDS.read_lines(PipelineRecord, path, "record")


def _concat_text(record: PipelineRecord) -> str:
    return featurize_concat(record.claim, record.evidence.concatenated if record.evidence else "")


def build_examples(
    records: Sequence[PipelineRecord],
    kind: str = "concat",
    articles_by_id: Mapping[str, Article] | None = None,
) -> list[LabeledText]:
    """Turn records into labeled classifier inputs.

    ``concat`` joins each record's claim and evidence text; ``content``
    needs the original articles to recover body text. Errored or unlabeled
    records are skipped.
    """
    if kind not in ("concat", "content"):
        raise ValueError(f"unknown feature kind {kind!r} (expected concat or content)")
    if kind == "content" and articles_by_id is None:
        raise ValueError("content features require articles_by_id")
    examples = []
    for record in records:
        if record.error or record.label is None or not record.claim:
            continue
        if kind == "concat":
            text = _concat_text(record)
        else:
            article = articles_by_id.get(record.article_id)
            if article is None:
                raise ValueError(f"record {record.article_id!r} has no matching article")
            text = featurize_content(article.body)
        examples.append(LabeledText(text=text, label=record.label))
    return examples


def annotate_predictions(
    records: Sequence[PipelineRecord], backend: HashedLinearClassifier
) -> list[PipelineRecord]:
    """Fill predicted label and probabilities from claim+evidence features.

    Records with an error or no claim are passed through; every other
    record is copied, in-memory timings included, with its prediction set.
    """
    scored = [i for i, record in enumerate(records) if not record.error and record.claim]
    probabilities = predict_texts(backend, [_concat_text(records[i]) for i in scored])
    annotated = list(records)
    for i, label, probs in zip(scored, probabilities.argmax(axis=1).tolist(), probabilities.tolist()):
        record = annotated[i] = copy.copy(records[i])
        record.timings = dict(records[i].timings)
        record.predicted_label = VeracityLabel(label)
        record.predicted_probabilities = tuple(probs)
    return annotated


@dataclass(frozen=True)
class GistRow:
    signal: str
    rouge1_f1: float  # mean F1 x 100
    rouge_l_f1: float  # mean F1 x 100


@dataclass(frozen=True)
class GistReport:
    rows: tuple[GistRow, ...]
    sample_size: int


def run_gist_experiment(
    articles: Sequence[Article],
    summarizers: Sequence[SummarizerBackend],
    sample_size: int | None = None,
    seed: int = 0,
) -> GistReport:
    """Score headline and summaries against manually written reference claims.

    Articles without a reference claim are skipped. Reported numbers are
    mean F1 scaled by 100.
    """
    eligible = [a for a in articles if a.claim and a.claim.strip()]
    if not eligible:
        raise ValueError("no articles carry a reference claim")
    if sample_size is not None and 0 < sample_size < len(eligible):
        eligible = random.Random(seed).sample(eligible, sample_size)

    references = [tokenize(a.claim) for a in eligible]
    rows = [_gist_row("headline", [tokenize(a.headline) for a in eligible], references)]
    for backend in summarizers:
        candidates = [tokenize(summarize(backend, a.body)) for a in eligible]
        rows.append(_gist_row(f"summary:{backend.name}", candidates, references))
    return GistReport(rows=tuple(rows), sample_size=len(eligible))


def _gist_row(signal: str, candidates: list, references: list) -> GistRow:
    r1 = [rouge1(c, r).f1 for c, r in zip(candidates, references)]
    rl = [rouge_l(c, r).f1 for c, r in zip(candidates, references)]
    return GistRow(
        signal=signal,
        rouge1_f1=100.0 * sum(r1) / len(r1),
        rouge_l_f1=100.0 * sum(rl) / len(rl),
    )
