"""Independent brute-force oracles for randomized equivalence tests.

Everything here re-derives results by the most literal method available
(explicit matching loops, full DP tables, day-by-day calendar walking) so
the oracles share no code with the implementations they check.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from datetime import date, timedelta
from enum import Enum

import numpy as np

from claimcheck.corpus import VeracityLabel
from claimcheck.encode import NO_TOKENS, cosine_distance, encode, stable_bucket
from claimcheck.errors import ClaimCheckError, EncodeError
from claimcheck.evidence import (
    EvidenceArticle,
    EvidenceSentence,
    EvidenceSet,
    build_query,
    date_window,
    is_credible,
    search,
)
from claimcheck.jsonio import parse_date
from claimcheck.pipeline import RECORD_SCHEMA, PipelineRecord, PipelineVariant
from claimcheck.summarize import summarize
from claimcheck.textproc import DEFAULT_ABBREVIATIONS, has_tokens, split_sentences, tokenize


def clipped_unigram_overlap(candidate: list[str], reference: list[str]) -> int:
    """Count candidate tokens that can be matched 1:1 against the reference."""
    used = [False] * len(reference)
    overlap = 0
    for token in candidate:
        for j, ref_token in enumerate(reference):
            if not used[j] and ref_token == token:
                used[j] = True
                overlap += 1
                break
    return overlap


def precision_recall_f1(overlap: float, candidate_len: int, reference_len: int):
    if candidate_len == 0 or reference_len == 0:
        return 0.0, 0.0, 0.0
    precision = overlap / candidate_len
    recall = overlap / reference_len
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def lcs_length_full_table(a: list[str], b: list[str]) -> int:
    """Quadratic LCS with the whole table materialized."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def shift_months_by_walking(day: date, months: int) -> date:
    """Month shift with end-of-month clamping, derived by walking days.

    Walks one day at a time counting month crossings, then finds the target
    month's first and last day by walking again. No year/month arithmetic.
    """
    if months == 0:
        return day
    one = timedelta(days=1)
    step = one if months > 0 else -one
    cur = day
    crossings = 0
    while crossings < abs(months):
        nxt = cur + step
        if nxt.month != cur.month:
            crossings += 1
        cur = nxt
    first = cur
    while (first - one).month == first.month:
        first -= one
    last = cur
    while (last + one).month == last.month:
        last += one
    return first + one * (min(day.day, last.day) - 1)


def in_window_by_walking(article_date: date, evidence_date: date, months: int = 3) -> bool:
    lower = shift_months_by_walking(article_date, -months)
    upper = shift_months_by_walking(article_date, months)
    return lower <= evidence_date <= upper


def hashed_bag_by_loop(text: str, dimension: int, seed: int) -> np.ndarray:
    """Hashed bag-of-tokens vector by its definition: one keyed hash per
    token occurrence, one count per hash, then division by the L2 norm.

    ``tokenize`` and ``stable_bucket`` are the definition being encoded, so
    this oracle reuses them; it shares nothing else with the encoder.
    """
    vec = np.zeros(dimension, dtype=np.float64)
    for token in tokenize(text):
        vec[stable_bucket(token, seed, dimension)] += 1.0
    norm = float(np.linalg.norm(vec))
    return vec if norm == 0.0 else vec / norm


def encode_rows(backend, texts) -> np.ndarray:
    """``backend.encode_batch(texts)`` under the embedding contract, checked
    on the whole matrix.

    Every text must have tokens, and the matrix must have shape
    ``(len(texts), dimension)``, finite entries and rows of unit norm
    within 1e-9. A breach raises the ``EncodeError`` that ``encode`` gives
    for it; the checks are written out here, one after another.
    """
    if not all(has_tokens(text) for text in texts):
        raise EncodeError("text has no tokens to encode")
    matrix = np.asarray(backend.encode_batch(texts), dtype=np.float64)
    expected = (len(texts), backend.dimension)
    if matrix.shape != expected:
        raise EncodeError(f"backend {backend.name!r} returned shape {matrix.shape}, expected {expected}")
    if not np.all(np.isfinite(matrix)):
        raise EncodeError(f"backend {backend.name!r} returned non-finite entries")
    for row in matrix:
        if abs(float(np.linalg.norm(row)) - 1.0) > 1e-9:
            raise EncodeError(f"backend {backend.name!r} returned a non-unit vector")
    return matrix


def nearest_first_by_sorting(backend, heads, tails) -> list:
    """``nearest_first`` entry by entry: the head through ``encode``, its
    tail's rows through ``encode_rows``, one ``np.dot`` per row, and a sort
    of ``(distance, position)`` pairs, so ties keep position order. An entry
    whose encoding breaks the contract is the ``EncodeError`` it raises alone.
    """
    out: list = []
    for head, tail in zip(heads, tails):
        try:
            head_vec, rows = encode(backend, head), encode_rows(backend, tail)
        except EncodeError as exc:
            out.append(exc)
            continue
        distances = [min(2.0, max(0.0, 1.0 - float(np.dot(head_vec, row)))) for row in rows]
        ranked = sorted(zip(distances, range(len(tail))))
        out.append((tail, tuple(position for _, position in ranked), tuple(d for d, _ in ranked)))
    return out


def lead_by_counting_words(body: str, max_tokens: int) -> str:
    """The lead summary by walking the body's words in order, counting
    tokens one word at a time.

    The walk stops at the first word that takes the count past
    ``max_tokens``. The summary is the sentences the walk finished or, if
    it finished none, the words it took from the first sentence. ``tokenize``
    and ``split_sentences`` are the definitions being composed and are
    reused.
    """
    sentences = split_sentences(body)
    finished, first_words, count = 0, [], 0
    for sentence in sentences:
        for word in sentence.split():
            count += len(tokenize(word))
            if count > max_tokens:
                return " ".join(sentences[:finished]) if finished else " ".join(first_words)
            if not finished:
                first_words.append(word)
        finished += 1
    return " ".join(sentences)


def tokenize_by_scanning(text: str) -> list[str]:
    """Tokens by testing every character of the lowercased text in turn.

    A character that is not ``str.isalnum()`` becomes a space, and the
    result is split on whitespace.
    """
    return "".join(ch if ch.isalnum() else " " for ch in text.lower()).split()


def split_sentences_by_scanning(text: str) -> list[str]:
    """Sentence split by testing every character in turn.

    A ``.``, ``!`` or ``?`` ends a sentence when whitespace and then an
    uppercase letter follow it, or when only whitespace follows it; a
    period does not when the letters right before it, lowercased, are in
    ``DEFAULT_ABBREVIATIONS``.
    """
    sentences = []
    start = 0
    for i in range(len(text)):
        if text[i] not in ".!?":
            continue
        j = i + 1
        while j < len(text) and text[j].isspace():
            j += 1
        if j < len(text) and (j == i + 1 or not text[j].isupper()):
            continue
        if text[i] == ".":
            k = i
            while k > 0 and text[k - 1].isalpha():
                k -= 1
            if text[k:i].lower() in DEFAULT_ABBREVIATIONS:
                continue
        piece = text[start : i + 1].strip()
        if piece:
            sentences.append(piece)
        start = i + 1
    if text[start:].strip():
        sentences.append(text[start:].strip())
    return sentences


def predict_one_text(backend, text: str) -> np.ndarray:
    """The hashed linear classifier's probabilities for one text, computed
    alone: one feature row, one ``weights @ row``, one softmax."""
    logits = backend.weights @ backend.features(text) + backend.bias
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def train_by_refeaturizing(backend, train_set, validation_set, epochs: int):
    """``train`` as a loop that featurizes every text again in every epoch
    and scores validation one text at a time.

    Returns the per-epoch ``(loss, validation accuracy)`` pairs and the
    best-validation parameters (earliest epoch wins ties).
    """
    labels = np.array([int(ex.label) for ex in train_set], dtype=np.intp)
    log, best_la, best_params = [], -1.0, None
    for _ in range(epochs):
        features = np.stack([backend.features(ex.text) for ex in train_set])
        loss = backend.train_epoch(features, labels)
        hits = sum(int(np.argmax(predict_one_text(backend, ex.text))) == int(ex.label) for ex in validation_set)
        val_la = hits / len(validation_set)
        log.append((loss, val_la))
        if val_la > best_la:
            best_la, best_params = val_la, {"weights": backend.weights.copy(), "bias": backend.bias.copy()}
    return log, best_params


def record_by_article(article, variant, runtime) -> PipelineRecord:
    """One article's record, built alone and in the pipeline's stage order,
    with every text encoded on its own by ``encode``.

    An input error (a ``ClaimCheckError`` or ``ValueError``) becomes the
    record's ``error``; record fields are filled only once the stage that
    yields them has finished. Each text is scanned for tokens once, by this
    function's own ``has_tokens`` calls: the signal, the claim, and the
    sentences of one ranking or evidence pool, all before any of those
    sentences is encoded. Leaf functions (summarizer, splitter, query
    builder, search, filters, distance) are the definitions being composed
    and are reused; the stage loop, ranking sort, claim join and evidence
    pool are written out here.
    """
    config, encoder = runtime.config, runtime.encoder
    record = PipelineRecord(
        article_id=article.id,
        variant=variant,
        gold_label=article.label,
        article_date_missing=article.published is None,
    )
    try:
        if variant is PipelineVariant.P1_HEADLINE:
            kind, signal = "headline", article.headline
        else:
            summary = summarize(runtime.summarizer, article.body)
            if variant is PipelineVariant.P2_SUMMARY:
                kind, signal = "summary", summary
            else:
                kind, signal = "headline_plus_summary", f"{article.headline} {summary}"
        if not signal.strip():
            raise ValueError("internal signal text must be non-empty")
        if variant is PipelineVariant.P3_HEADLINE_PLUS_SUMMARY:
            ranked = distances = None
            claim = signal
            query = build_query(article.headline, summary, config.query_word_limit)
        else:
            sentences = split_sentences(article.body)
            if not sentences:
                raise ValueError("article body yields no sentences to rank")
            if not has_tokens(signal):
                raise EncodeError(NO_TOKENS)
            sentences_have_tokens = all(has_tokens(sentence) for sentence in sentences)
            signal_vec = encode(encoder, signal)  # a bad signal row comes before a sentence without tokens
            if not sentences_have_tokens:
                raise EncodeError(NO_TOKENS)
            by_index = [cosine_distance(signal_vec, encode(encoder, sentence)) for sentence in sentences]
            ranked = tuple(sorted(range(len(sentences)), key=lambda i: (by_index[i], i)))
            distances = tuple(by_index[i] for i in ranked)
            claim = " ".join(sentences[i] for i in ranked[: config.claims_k])
            query = build_query(article.headline, claim, config.query_word_limit)
        record.signal_kind, record.signal_text = kind, signal
        record.ranked, record.distances = ranked, distances
        record.claim, record.query = claim, query.text

        survivors = []
        for result in search(runtime.provider, query, config.max_search_results):
            applicable = article.published is not None
            if not is_credible(result.domain, runtime.credible) or result.published is None:
                continue
            if applicable and not date_window(article.published, result.published, config.date_window_months):
                continue
            survivors.append(EvidenceArticle(result=result, date_check_applicable=applicable))
            if len(survivors) == config.max_evidence_articles:
                break
        evidence = EvidenceSet()
        if survivors:
            if not has_tokens(claim):
                raise EncodeError(NO_TOKENS)
            claim_vec = encode(encoder, claim)
            candidates = [
                (order, index, sentence)
                for order, survivor in enumerate(survivors)
                for index, sentence in enumerate(split_sentences(survivor.result.body))
                if has_tokens(sentence)
            ]
            pool = sorted(
                (cosine_distance(claim_vec, encode(encoder, sentence)), order, index, sentence)
                for order, index, sentence in candidates
            )
            top = tuple(
                EvidenceSentence(
                    text=sentence,
                    distance=distance,
                    source_url=survivors[order].result.url,
                    article_order=order,
                    sentence_index=index,
                )
                for distance, order, index, sentence in pool[: config.max_evidence_sentences]
            )
            evidence = EvidenceSet(tuple(survivors), top, " ".join(sentence.text for sentence in top))
        record.evidence = evidence
        record.label = VeracityLabel.NEI if evidence.is_empty else article.label
    except (ClaimCheckError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


# The reference codec that jsonio's generated writers and readers must agree
# with: the C encoder with a ``default=`` hook that gives each dataclass its
# field form, and a decoder that loops over each class's fields.


def field_form(obj):
    """A dataclass's or date's stored form, for the C encoder to write."""
    if type(obj) is EvidenceArticle:  # its result's fields, minus the body, next to its own
        flat = {**vars(obj.result), **vars(obj)}
        del flat["result"], flat["body"]
        return flat
    if dataclasses.is_dataclass(type(obj)):
        form = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}
        return {**form, "schema": RECORD_SCHEMA} if type(obj) is PipelineRecord else form
    if isinstance(obj, date):
        return obj.isoformat()
    raise TypeError(f"no JSON form for {type(obj).__name__}")


canonical_json_by_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=field_form).encode


class _Invalid(ValueError):
    def __init__(self, problem, unknown=None):
        super().__init__(problem)
        self.unknown, self.path = unknown, []


_SCALARS = {str: (str,), int: (int,), float: (float, int), bool: (bool,)}
_MISSING = object()


class LoopDecoder:
    """Stored forms to dataclasses, one closure per type that loops over the
    fields; ``tags`` and ``reshape`` as in ``jsonio.Codec``."""

    def __init__(self, tags=None, reshape=None):
        self.tags, self.reshape = dict(tags or {}), dict(reshape or {})
        self.plan = functools.cache(self._plan)

    def read_line(self, cls, line: str, label: str):
        """The value of one JSON line, or the message a reader gives for line 1."""
        try:
            return self.plan(cls)(json.loads(line))
        except (TypeError, ValueError) as exc:
            path = ".".join(reversed(getattr(exc, "path", [])))
            if getattr(exc, "unknown", None) is None:
                return f"{label} line 1: bad {label}{f' field {path!r}' if path else ''}: {exc}"
            unknown = f"unknown keys in {label} field {path!r}" if path else f"unknown {label} keys"
            return f"{label} line 1: {unknown}: {exc.unknown}"

    def _plan(self, hint):
        if typing.get_origin(hint) is tuple:
            (item_hint,) = {a for a in typing.get_args(hint) if a is not Ellipsis}
            item, kinds = self.plan(item_hint), _SCALARS.get(item_hint, ())

            def decode_tuple(value):
                if type(value) not in (list, tuple):
                    raise TypeError(f"expected a list, got {type(value).__name__}")
                if item is not None:
                    return tuple(map(item, value))
                for index, entry in enumerate(value):
                    if type(entry) not in kinds:
                        raise TypeError(f"item {index}: expected {kinds[0].__name__}, got {type(entry).__name__}")
                return tuple(value)

            return decode_tuple
        if dataclasses.is_dataclass(hint):
            return self._dataclass(hint)
        if isinstance(hint, type) and issubclass(hint, Enum):
            return {member.value: member for member in hint}.__getitem__
        if hint is date:
            return parse_date
        if hint in _SCALARS:
            return None
        raise TypeError(f"no JSON form for {hint!r}")

    def _dataclass(self, cls):
        hints = typing.get_type_hints(cls)
        stored = [f.name for f in dataclasses.fields(cls) if f.init]
        tag_key, tag_value = self.tags.get(cls, (None, None))
        reshape = self.reshape.get(cls)
        scalars, converters = [], []
        for name in stored:
            hint = hints[name]
            nullable = typing.get_origin(hint) in (typing.Union, types.UnionType)
            if nullable:
                (hint,) = set(typing.get_args(hint)) - {type(None)}
            convert = self.plan(hint)
            if convert is None:
                scalars.append((name, _SCALARS[hint] + (object,) + ((type(None),) if nullable else ())))
            else:
                converters.append((name, convert, nullable))

        def decode(data):
            if reshape is not None:
                data = reshape(data)
            if type(data) is not dict:
                raise _Invalid(f"expected an object, got {type(data).__name__}")
            if tag_key and (tag := data.pop(tag_key, None)) != tag_value:
                raise _Invalid(f"unsupported {tag_key} {tag!r}")
            name = None
            try:
                for name, kinds in scalars:
                    if type(data.get(name, _MISSING)) not in kinds:
                        raise TypeError(f"expected {kinds[0].__name__}, got {type(data[name]).__name__}")
                for name, convert, nullable in converters:
                    value = data.get(name)
                    if value is not None or (not nullable and name in data):
                        data[name] = convert(value)
                name = None
                return cls(**data)
            except (KeyError, TypeError, ValueError) as exc:
                if unknown := sorted(data.keys() - stored):
                    raise _Invalid("unknown keys", unknown) from None
                invalid = exc if isinstance(exc, _Invalid) else _Invalid(str(exc))
                invalid.path += [name] if name else []
                raise invalid from None

        return decode


@dataclasses.dataclass(frozen=True)
class _RankedSentence:
    index: int
    text: str
    distance: float
    rank: int


@dataclasses.dataclass(frozen=True)
class _V1Ranking:
    ranked: tuple[_RankedSentence, ...] | None = None


def _nested_evidence_article(flat):
    if type(flat) is not dict:
        raise ValueError(f"expected an object, got {type(flat).__name__}")
    nested = {key: flat.pop(key) for key in ("date_check_applicable", "passed_filters") if key in flat}
    flat["body"] = ""
    nested["result"] = flat
    return nested


def _upgraded_record(data):
    if type(data) is dict and data.get("schema") == "pipeline-record.v1":
        data["schema"] = RECORD_SCHEMA
        ranked = RECORDS_BY_LOOPS.plan(_V1Ranking)({k: data.pop(k) for k in ("ranked", "distances") if k in data}).ranked
        if ranked is not None:
            ranked = sorted(ranked, key=lambda s: s.rank)
            data["ranked"], data["distances"] = [s.index for s in ranked], [s.distance for s in ranked]
    return data


RECORDS_BY_LOOPS = LoopDecoder(
    tags={PipelineRecord: ("schema", RECORD_SCHEMA)},
    reshape={EvidenceArticle: _nested_evidence_article, PipelineRecord: _upgraded_record},
)
PLAIN_BY_LOOPS = LoopDecoder()
