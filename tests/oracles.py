"""Independent brute-force oracles for randomized equivalence tests.

Everything here re-derives results by the most literal method available
(explicit matching loops, full DP tables, day-by-day calendar walking) so
the oracles share no code with the implementations they check.
"""

from __future__ import annotations

from datetime import date, timedelta

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
from claimcheck.pipeline import PipelineRecord, PipelineVariant
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
