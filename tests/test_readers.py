"""A file that is not UTF-8 raises its reader's own error, naming the file."""

import pytest

from claimcheck import config, corpus, pipeline, providers, textproc
from claimcheck.errors import ConfigError, FatalSearchError, IngestError
from claimcheck.evidence import CredibleDomainList
from claimcheck.veracity import HashedLinearClassifier


def _cache_get(path):
    return providers.ResponseCache(path.parent).get(path.stem)


@pytest.mark.parametrize(
    "read,error",
    [
        (config.load_config, ConfigError),
        (HashedLinearClassifier.load, ConfigError),
        (_cache_get, FatalSearchError),
        (lambda path: corpus.ingest(path, corpus.DatasetKind.FIXTURE, "jsonl"), IngestError),
        (lambda path: corpus.ingest(path, corpus.DatasetKind.SNOPES, "csv"), IngestError),
        (pipeline.read_records, ValueError),
        (corpus.load_store, IngestError),
        (textproc.load_abbreviations, ConfigError),
        (CredibleDomainList.from_file, ConfigError),
    ],
    ids=["config", "classifier", "cache", "ingest-jsonl", "ingest-csv", "records", "store", "abbreviations",
         "credible-list"],
)
def test_non_utf8_file_raises_the_readers_error_naming_the_file(tmp_path, read, error):
    path = tmp_path / "0123abcd.json"
    path.write_bytes(b"ab\xffcd\n")
    with pytest.raises(error) as excinfo:
        read(path)
    assert type(excinfo.value) is error  # not the bare UnicodeDecodeError, itself a ValueError
    assert str(path) in str(excinfo.value)
    assert "can't decode byte 0xff in position 2" in str(excinfo.value)
