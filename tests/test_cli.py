import json
import logging

import pytest

from claimcheck import cli
from claimcheck.cli import main
from claimcheck.corpus import Article, DatasetKind, VeracityLabel, label_distribution, load_store, save_store
from claimcheck.pipeline import read_records
from claimcheck.textproc import split_sentences


def test_run_smoke(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(["run", "--pipeline", "p2", "--corpus", "fixture", "--provider", "fixture",
                 "--out", str(out)])
    assert code == 0
    records = read_records(out)
    assert len(records) == 12
    assert "12 records" in capsys.readouterr().out


def test_unknown_pipeline_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--pipeline", "p9"])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_ingest_writes_store(tmp_path, capsys):
    out = tmp_path / "store.jsonl"
    code = main(["ingest", "--path", "fixture", "--dataset", "fixture", "--out", str(out)])
    assert code == 0
    articles = load_store(out)
    assert len(articles) == 12
    assert all(a.label is not None for a in articles)
    assert "articles stored" in capsys.readouterr().out


def test_run_accepts_store_file(tmp_path):
    store = tmp_path / "store.jsonl"
    assert main(["ingest", "--out", str(store)]) == 0
    out = tmp_path / "records.jsonl"
    assert main(["run", "--pipeline", "p1", "--corpus", str(store), "--out", str(out)]) == 0
    assert len(read_records(out)) == 12


def test_stats_matches_recount(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    main(["run", "--pipeline", "p3", "--out", str(out)])
    capsys.readouterr()
    assert main(["stats", "--records", str(out)]) == 0
    printed = capsys.readouterr().out
    counts = label_distribution(read_records(out))
    for label in VeracityLabel:
        assert f"{label.name.lower():<14}{counts[label]:>8}" in printed


def test_stats_reports_unlabeled_articles_as_it_does_records(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    save_store([Article("1", "h", "b", DatasetKind.FIXTURE, "true", label=VeracityLabel.TRUE),
                Article("2", "h", "b", DatasetKind.FIXTURE, "true")], store)
    assert main(["stats", "--corpus", str(store)]) == 0
    printed = capsys.readouterr().out
    assert f"{'true':<14}{1:>8}" in printed and f"{'(unlabeled)':<14}{1:>8}" in printed


def test_stats_on_corpus(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "label" in out and "count" in out


def test_gist_eval_prints_table(capsys):
    assert main(["gist-eval"]) == 0
    out = capsys.readouterr().out
    assert "sample size: 12" in out
    assert "headline" in out
    assert "summary:lead" in out


def test_train_then_evaluate(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    model = tmp_path / "model.json"
    annotated = tmp_path / "annotated.jsonl"
    assert main(["run", "--pipeline", "p2", "--out", str(records)]) == 0
    assert main(["train", "--records", str(records), "--out", str(model), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "epoch 1" in out and "best epoch" in out
    assert model.exists()

    code = main([
        "evaluate", "--records", str(records), "--model", str(model), "--seed", "3",
        "--annotated-out", str(annotated),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "label accuracy" in out and "macro F1" in out
    assert all(json.loads(line)["predicted_label"] is not None
               for line in annotated.read_text().splitlines())


def test_train_reports_each_epoch_once(tmp_path, capsys, caplog):
    records = tmp_path / "records.jsonl"
    assert main(["run", "--pipeline", "p2", "--out", str(records)]) == 0
    capsys.readouterr()
    with caplog.at_level(logging.INFO):
        assert main(["train", "--records", str(records), "--out", str(tmp_path / "model.json")]) == 0
    assert (capsys.readouterr().out + caplog.text).count("epoch 1:") == 1


def test_evaluate_reads_the_records_file_once(tmp_path, monkeypatch):
    records, model = tmp_path / "records.jsonl", tmp_path / "model.json"
    assert main(["run", "--pipeline", "p2", "--out", str(records)]) == 0
    assert main(["train", "--records", str(records), "--out", str(model)]) == 0
    calls = []
    monkeypatch.setattr(cli, "read_records", lambda path: calls.append(path) or read_records(path))
    argv = ["evaluate", "--records", str(records), "--model", str(model),
            "--annotated-out", str(tmp_path / "annotated.jsonl")]
    assert main(argv) == 0
    assert calls == [records]


def test_content_features_without_corpus_is_an_error(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    main(["run", "--pipeline", "p1", "--out", str(records)])
    code = main(["train", "--records", str(records), "--features", "content",
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "require --corpus" in capsys.readouterr().err


def test_config_file_round(tmp_path, fixture_articles):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"claims_k": 2, "encoder": {"dimension": 128}}), encoding="utf-8")
    out = tmp_path / "records.jsonl"
    assert main(["run", "--pipeline", "p1", "--config", str(config), "--out", str(out)]) == 0
    records = read_records(out)
    # claims_k=2 limits claim sets to two sentences even for long articles.
    longest = max(records, key=lambda r: len(r.ranked))
    bodies = {a.id: a.body for a in fixture_articles}
    sentences = split_sentences(bodies[longest.article_id])  # the default config's guard
    claim_texts = [sentences[i] for i in longest.ranked][:2]
    assert longest.claim == " ".join(claim_texts)


def test_bad_config_key_is_reported(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
    assert main(["run", "--pipeline", "p1", "--config", str(config)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--out", "store.jsonl", "--config", "config.json"],
        ["ingest", "--out", "store.jsonl", "--seed", "3"],
        ["stats", "--config", "config.json"],
        ["stats", "--seed", "3"],
    ],
)
def test_configless_commands_take_no_config_options(argv):
    # ingest and stats read no config, so these options would do nothing.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_gist_eval_and_run_summarize_alike(tmp_path, capsys):
    # "Dr." is guarded, so the first sentence has 3 tokens and the 2-token
    # summary is its first two words; split at "Dr." it would be "Dr." alone.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "id": "a1", "headline": "Smith leaves", "body": "Dr. Smith spoke. Then he left.",
        "published": "2017-01-01", "source_domain": "example.com", "raw_label": "true", "claim": "Dr. Smith",
    }) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"summarizer": {"max_tokens": 2}}), encoding="utf-8")
    common = ["--config", str(config), "--corpus", str(corpus), "--dataset", "fixture"]
    assert main(["gist-eval", *common]) == 0
    assert f"{'summary:lead':<24}{100.0:>12.2f}{100.0:>12.2f}" in capsys.readouterr().out
    assert main(["run", "--pipeline", "p2", "--out", str(tmp_path / "records.jsonl"), *common]) == 0
    [record] = read_records(tmp_path / "records.jsonl")
    assert record.signal_text == "Dr. Smith"


@pytest.mark.parametrize(
    "edit",
    [
        lambda snapshot: [],
        lambda snapshot: {k: v for k, v in snapshot.items() if k != "dimension"},
        lambda snapshot: dict(snapshot, class_order=5),
    ],
    ids=["not-an-object", "no-dimension", "class-order-not-a-list"],
)
def test_malformed_snapshot_is_an_error(tmp_path, capsys, edit):
    records, model = tmp_path / "records.jsonl", tmp_path / "model.json"
    assert main(["run", "--pipeline", "p2", "--out", str(records)]) == 0
    assert main(["train", "--records", str(records), "--out", str(model)]) == 0
    model.write_text(json.dumps(edit(json.loads(model.read_text()))), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--records", str(records), "--model", str(model)]) == 1
    assert f"error: snapshot {model}" in capsys.readouterr().err


@pytest.mark.parametrize("queries", [[1], {"x": 5}], ids=["list", "non-list-entry"])
def test_malformed_fixture_search_file_is_an_error(tmp_path, capsys, queries):
    search = tmp_path / "search.json"
    search.write_text(json.dumps({"format": "fixture-search.v1", "queries": queries}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"provider": {"fixture_path": str(search)}}), encoding="utf-8")
    assert main(["run", "--pipeline", "p1", "--config", str(config), "--out", str(tmp_path / "r.jsonl")]) == 1
    assert f"error: fixture search file {search}" in capsys.readouterr().err


def test_non_utf8_config_is_an_error_naming_the_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"claims_k": 3}\xff\n')
    assert main(["run", "--pipeline", "p1", "--config", str(config), "--out", str(tmp_path / "r.jsonl")]) == 1
    assert f"error: cannot read config file {config}" in capsys.readouterr().err
