import json
import re
from pathlib import Path

import pytest

from claimcheck.config import (
    PipelineConfig,
    ProviderSettings,
    build_provider,
    config_from_dict,
    load_config,
    load_credible_list,
)
from claimcheck.errors import ConfigError
from claimcheck.pipeline import build_runtime
from claimcheck.providers import FixtureSearchProvider, LiveSearchProvider


def test_default_config_is_fully_offline():
    config = PipelineConfig()
    runtime = build_runtime(config)
    assert isinstance(runtime.provider, FixtureSearchProvider)
    assert runtime.encoder.dimension == 256
    assert runtime.summarizer.max_tokens == 180
    assert runtime.credible.domains  # shipped test list


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "encoder": {"dimension": 128, "seed": 5},
                "summarizer": {"max_tokens": 90},
                "classifier": {"learning_rate": 0.5, "batch_size": 4},
                "provider": {"kind": "fixture"},
                "train": {"epochs": 2, "split": [0.8, 0.1, 0.1], "seed": 4},
                "claims_k": 2,
            }
        ),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.encoder.dimension == 128
    assert config.summarizer.max_tokens == 90
    assert config.classifier.batch_size == 4
    assert config.train.epochs == 2
    assert config.claims_k == 2


def test_readme_config_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert config_from_dict(json.loads(example)) == PipelineConfig()


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"encoder": {"dimensions": 128}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"encoders": {}})


def test_invalid_train_section_rejected():
    with pytest.raises(ConfigError, match="train"):
        config_from_dict({"train": {"epochs": 0}})


def test_null_batch_size_rejected():
    # One minibatch as large as the training set is the full-batch step; null no longer stands for it.
    with pytest.raises(ConfigError, match="'classifier.batch_size': expected int, got NoneType"):
        config_from_dict({"classifier": {"batch_size": None}})


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/config.json")


def test_unknown_backends_rejected():
    with pytest.raises(ConfigError, match="provider"):
        build_provider(ProviderSettings(kind="crawler"))


def test_live_provider_requires_endpoint():
    with pytest.raises(ConfigError, match="endpoint"):
        build_provider(ProviderSettings(kind="live"))
    provider = build_provider(
        ProviderSettings(kind="live", endpoint="https://search.example/api")
    )
    assert isinstance(provider, LiveSearchProvider)


def test_custom_credible_list(tmp_path):
    path = tmp_path / "domains.txt"
    path.write_text("trusted.org\n", encoding="utf-8")
    config = PipelineConfig(credible_list_path=str(path))
    assert load_credible_list(config).domains == frozenset({"trusted.org"})

