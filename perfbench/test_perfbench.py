"""Tests of the benchmark's own code: generator, oracle and span arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import tracing
import workloads
from claimcheck import pipeline
from claimcheck.config import PipelineConfig, ProviderSettings
from claimcheck.corpus import DatasetKind, ingest, normalize_articles


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_same_seed_gives_identical_inputs_and_another_seed_differs(tmp_path, name):
    shape = replace(workloads.SHAPES[name], articles=12)
    workloads.generate(shape, 3, tmp_path / "a")
    workloads.generate(shape, 3, tmp_path / "b")
    workloads.generate(shape, 4, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    other = _files(tmp_path / "c")
    assert all(first[path] != other.get(path) for path in ("corpus.jsonl", "truth.json"))


@pytest.fixture(scope="module")
def news_records(tmp_path_factory):
    """p1 records of a small news workload, as written to the records file."""
    out = tmp_path_factory.mktemp("news")
    workloads.generate(replace(workloads.SHAPES["news"], articles=6), 5, out)
    config = PipelineConfig(provider=ProviderSettings(fixture_path=str(out / "search.json")))
    articles = normalize_articles(ingest(out / "corpus.jsonl", DatasetKind.FIXTURE).articles).articles
    records = pipeline.run_pipeline(articles, pipeline.PipelineVariant.P1_HEADLINE, pipeline.build_runtime(config))
    pipeline.write_records(records, out / "records.jsonl")
    lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines], json.loads((out / "truth.json").read_text(encoding="utf-8"))


def test_oracle_accepts_the_pipeline_records(news_records):
    records, truth = news_records
    assert all(len(truth[r["article_id"]]["evidence"]) == 3 for r in records)
    assert oracle.check_records(records, truth) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda articles: articles.pop(1),
        lambda articles: articles.insert(0, articles.pop(1)),
    ],
    ids=["dropped", "reordered"],
)
def test_oracle_flags_a_dropped_or_reordered_evidence_article(news_records, mutate):
    records, truth = news_records
    record = json.loads(json.dumps(records[0]))
    mutate(record["evidence"]["articles"])
    problems = oracle.check_record(record, truth[record["article_id"]])
    assert any("evidence urls" in p for p in problems)


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "t"]


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 40, 0),
        _span("b", 50, 90, 0),
        _span("b.child", 60, 70, 2),
        _span("solo", 200, 230),
    ]
    assert tracing.self_times(spans) == [30, 30, 30, 10, 30]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0, 100), _span("a", 10, 50, 0), _span("b", 40, 60, 0), _span("c", 90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_layer_metrics_on_a_hand_built_trace():
    tracer = tracing.Tracer()
    second = 1_000_000_000
    tracer.spans = [
        _span("pipeline.run_pipeline", 0, 4 * second),
        _span("evidence.gather_evidence", 1 * second, 3 * second, 0),
        _span("encode.cosine_distance", 2 * second, 2 * second + second // 2, 1),
        _span("encode.cosine_distance", 3 * second + second // 2, 4 * second, 0),
    ]
    metrics = tracing.layer_metrics(tracer, traced_wall_s=5.0)
    assert metrics["pipeline.orchestration_s"] == pytest.approx(1.5)
    assert metrics["evidence.select_s"] == pytest.approx(1.5)
    assert metrics["encode.cosine_distance_s"] == pytest.approx(1.0)
    assert metrics["evidence.sentences_scored"] == 1
    assert metrics["trace.uncovered_s"] == pytest.approx(1.0)


def test_instrument_restores_every_original():
    from claimcheck import claimrank, evidence, veracity

    before = (claimrank.encode, evidence.search, vars(veracity.HashedLinearClassifier)["load"])
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert claimrank.encode is not before[0]
        claimrank.split_sentences("One here. Two there.")
    assert (claimrank.encode, evidence.search, vars(veracity.HashedLinearClassifier)["load"]) == before
    assert [s[tracing.NAME] for s in tracer.spans] == ["textproc.split_sentences"]
    assert tracer.counts["sentences_out"] == 2
