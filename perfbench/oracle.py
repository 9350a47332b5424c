"""Oracle checks of pipeline records against the generator's ground truth.

The truth comes from ``workloads.generate`` alone: which results pass the
filters, in provider order, the article's sentences and its lead summary.
Records are checked in the dict form written to the records file.
"""

from __future__ import annotations

NEI = 3
QUERY_WORDS = 40
EVIDENCE_SENTENCES = 3


def check_record(record: dict, truth: dict) -> list[str]:
    """Return one message per violated oracle; empty when the record is right."""
    if record.get("error"):
        return [f"error: {record['error']}"]
    problems = []
    expected = truth["evidence"]
    evidence = record.get("evidence") or {"articles": [], "sentences": []}

    urls = [a["url"] for a in evidence["articles"]]
    expected_urls = [e["url"] for e in expected]
    if urls != expected_urls:
        problems.append(f"evidence urls {urls} != first kept results {expected_urls}")
    expected_label = NEI if not expected else truth["gold"]
    if record.get("label") != expected_label:
        problems.append(f"label {record.get('label')} != {expected_label}")

    if record["variant"] == "p3":
        source = f"{truth['headline']} {truth['summary']}"
    else:
        claim = record.get("claim") or ""
        body = set(truth["body_sentences"])
        if not claim or not _is_join_of(claim, body):
            problems.append("claim is not a join of body sentences")
        source = f"{truth['headline']} {claim}"
    words = source.split()
    query = (record.get("query") or "").split()
    if len(query) > QUERY_WORDS or query != words[: min(QUERY_WORDS, len(words))]:
        problems.append("query is not the 40-word prefix of headline + claim/summary")

    bodies = {e["url"]: set(e["sentences"]) for e in expected}
    for sentence in evidence["sentences"]:
        if sentence["text"] not in bodies.get(sentence["source_url"], ()):
            problems.append(f"evidence sentence not from a kept result: {sentence['text'][:40]!r}")
    pool = sum(len(e["sentences"]) for e in expected)
    if len(evidence["sentences"]) != min(EVIDENCE_SENTENCES, pool):
        problems.append(f"{len(evidence['sentences'])} evidence sentences, expected {min(EVIDENCE_SENTENCES, pool)}")
    return problems


def _is_join_of(claim: str, sentences: set[str]) -> bool:
    """True iff ``claim`` is 1-3 distinct body sentences joined by spaces."""
    pieces = claim.split(". ")
    parts = [p + "." for p in pieces[:-1]] + [pieces[-1]]
    return 1 <= len(parts) <= 3 and len(set(parts)) == len(parts) and all(p in sentences for p in parts)


def check_records(records: list[dict], truth: dict[str, dict]) -> list[tuple[str, str, list[str]]]:
    """Check every record; return (article id, variant, problems) for each failure."""
    failures = []
    for record in records:
        article_truth = truth.get(record["article_id"])
        problems = ["article not in ground truth"] if article_truth is None else check_record(record, article_truth)
        if problems:
            failures.append((record["article_id"], record["variant"], problems))
    return failures
