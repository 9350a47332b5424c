import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from claimcheck.errors import (
    ConfigError,
    FatalSearchError,
    RetryableSearchError,
)
from claimcheck.providers import (
    FixtureSearchProvider,
    LiveSearchProvider,
    RateLimiter,
    ResponseCache,
    normalize_query_key,
)

API_ENV = "CLAIMCHECK_SEARCH_API_KEY"


def _normalized_by_key(mapping):
    """The fixture mapping as each key normalized on its own gives it, or that rule's collision error."""
    normalized = {normalize_query_key(key): value for key, value in mapping.items()}
    if len(normalized) < len(mapping):
        groups = {}
        for key in mapping:
            groups.setdefault(normalize_query_key(key), []).append(key)
        collisions = "; ".join(", ".join(map(repr, keys)) for keys in groups.values() if len(keys) > 1)
        raise ConfigError(f"fixture search queries collide after normalization: {collisions}")
    return normalized


def test_normalize_query_key():
    assert normalize_query_key("  Mixed   CASE \t query ") == "mixed case query"


class TestFixtureProvider:
    def test_from_file_format_guard(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"format": "wrong", "queries": {}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="format"):
            FixtureSearchProvider.from_file(path)

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "fixture.json"
        payload = {
            "format": "fixture-search.v1",
            "queries": {"a query": [{"url": "https://example.com/x", "domain": "example.com"}]},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        provider = FixtureSearchProvider.from_file(path)
        results = provider.search("A   QUERY")
        assert len(results) == 1
        assert results[0].domain == "example.com"

    def test_colliding_keys_are_a_config_error(self):
        mapping = {"Foo bar": [{"url": "https://a.example.com"}], "foo  bar": [{"url": "https://b.example.com"}]}
        with pytest.raises(ConfigError, match="'Foo bar', 'foo  bar'"):
            FixtureSearchProvider(mapping)

    def test_from_file_names_the_file_on_colliding_keys(self, tmp_path):
        path = tmp_path / "fixture.json"
        payload = {"format": "fixture-search.v1", "queries": {"A query": [], "a QUERY": []}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"fixture\.json.*'A query', 'a QUERY'"):
            FixtureSearchProvider.from_file(path)

    @pytest.mark.parametrize("keep", [0, 1, 40, 75, -2, -1])
    def test_truncated_file_keeps_its_message(self, tmp_path, keep):
        path = tmp_path / "fixture.json"
        text = json.dumps({"format": "fixture-search.v1", "queries": {"a query": [{"url": "https://a.example.com"}]}})
        path.write_text(text[:keep], encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text[:keep])
        with pytest.raises(ConfigError) as excinfo:
            FixtureSearchProvider.from_file(path)
        assert str(excinfo.value) == f"cannot load fixture search file {path}: {expected.value}"

    def test_non_utf8_file_is_a_config_error_naming_the_file(self, tmp_path):
        path = tmp_path / "fixture.json"
        text = json.dumps({"format": "fixture-search.v1", "queries": {"a query": [{"url": "https://a.example.com"}]}})
        offset = text.index("example")
        path.write_bytes(text[:offset].encode("utf-8") + b"\xff" + text[offset:].encode("utf-8"))
        with pytest.raises(ConfigError) as excinfo:
            FixtureSearchProvider.from_file(path)
        assert str(excinfo.value) == (
            f"cannot load fixture search file {path}: "
            f"'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
        )

    def test_normalized_keys_are_kept_as_they_are(self):
        mapping = {"a query": [], "another query 2": [], "café ünïcode": []}
        assert FixtureSearchProvider(mapping)._mapping is mapping

    @given(st.lists(st.text(st.sampled_from("aB \t\x1c\xa0éΣςİ\u2028"), max_size=5), max_size=5))
    @example(["Upper Case query", "plain query"])
    @example(["double  space", " leading space", "trailing space "])
    @example(["tab\tinside", "group\x1cseparator", "no\xa0break", "line\u2028separator", "next\x85line"])
    @example(["ΣΟΦΊΑ", "ὈΔΥΣΣΕΎΣ", "İstanbul", "", "empty key beside"])
    @example(["Foo bar", "foo  bar", "FOO BAR "])
    def test_keys_match_the_per_key_rule(self, keys):
        mapping = {key: [{"url": f"https://{i}.example.com"}] for i, key in enumerate(keys)}
        try:
            expected = list(_normalized_by_key(mapping).items())
        except ConfigError as exc:
            with pytest.raises(ConfigError) as excinfo:
                FixtureSearchProvider(mapping)
            assert str(excinfo.value) == str(exc)
        else:
            assert list(FixtureSearchProvider(mapping)._mapping.items()) == expected

    def test_domain_derived_from_url_when_missing(self):
        provider = FixtureSearchProvider({"q": [{"url": "https://news.site.org/a"}]})
        assert provider.search("q")[0].domain == "site.org"

    def test_malformed_entry(self):
        provider = FixtureSearchProvider({"q": [{"title": "no url"}]})
        with pytest.raises(FatalSearchError, match="malformed"):
            provider.search("q")

    def test_non_list_entry_is_a_config_error(self):
        with pytest.raises(ConfigError, match="list of results"):
            FixtureSearchProvider({"q": 5}).search("q")

    def test_bad_date_in_entry(self):
        provider = FixtureSearchProvider({"q": [{"url": "https://a.example.com", "published": "junk"}]})
        with pytest.raises(FatalSearchError, match="published"):
            provider.search("q")


class TestRateLimiter:
    def test_paces_requests(self):
        clock = {"now": 0.0}
        sleeps = []

        def fake_time():
            return clock["now"]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        limiter = RateLimiter(requests_per_second=2.0, time_func=fake_time, sleep_func=fake_sleep)
        for _ in range(3):
            limiter.wait()
        # First call free; the next two each wait out the 0.5 s interval.
        assert sleeps == pytest.approx([0.5, 0.5])

    def test_zero_rate_means_no_pacing(self):
        sleeps = []
        limiter = RateLimiter(requests_per_second=0.0, sleep_func=sleeps.append)
        limiter.wait()
        limiter.wait()
        assert sleeps == []

    @pytest.mark.parametrize("rate", [-2.0, -1e-9, float("nan")])
    def test_negative_rate_is_rejected(self, rate):
        # A sign slip must not read as "no limit", which only 0 means.
        with pytest.raises(ValueError, match="requests_per_second must be non-negative"):
            RateLimiter(requests_per_second=rate)


class TestResponseCache:
    def test_roundtrip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = ResponseCache.key("live", "some query")
        assert cache.get(key) is None
        cache.put(key, [{"url": "https://example.com/a"}])
        assert cache.get(key) == [{"url": "https://example.com/a"}]

    def test_entries_are_immutable(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = ResponseCache.key("live", "q")
        cache.put(key, [{"url": "first"}])
        cache.put(key, [{"url": "second"}])
        assert cache.get(key) == [{"url": "first"}]

    def test_put_leaves_a_concurrent_writers_temp_file_alone(self, tmp_path):
        # Another writer of the same key is midway through its temp file.
        cache = ResponseCache(tmp_path / "cache")
        key = ResponseCache.key("live", "q")
        in_progress = tmp_path / "cache" / f"{key}.tmp"
        in_progress.write_text("[partial", encoding="utf-8")
        cache.put(key, [{"url": "https://example.com/a"}])
        assert cache.get(key) == [{"url": "https://example.com/a"}]
        assert in_progress.read_text(encoding="utf-8") == "[partial"
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [f"{key}.json", f"{key}.tmp"]

    def test_key_is_stable_and_distinct(self):
        assert ResponseCache.key("live", "q") == ResponseCache.key("live", "q")
        assert ResponseCache.key("live", "q") != ResponseCache.key("live", "other")
        assert ResponseCache.key("live", "q") != ResponseCache.key("fixture", "q")


def _payload(n=2):
    return [
        {"url": f"https://example.com/{i}", "title": f"t{i}", "body": "Body.", "published": "2017-06-01"}
        for i in range(n)
    ]


class TestLiveProvider:
    def test_missing_api_key(self, monkeypatch, tmp_path):
        monkeypatch.delenv(API_ENV, raising=False)
        provider = LiveSearchProvider("https://search.example/api", cache_dir=tmp_path)
        with pytest.raises(ConfigError, match="API key"):
            provider.search("q")

    def _provider(self, tmp_path, transport, **kwargs):
        return LiveSearchProvider(
            "https://search.example/api", cache_dir=tmp_path / "cache", transport=transport, **kwargs
        )

    def test_parses_bare_list(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_ENV, "secret")
        provider = self._provider(tmp_path, lambda url, headers, timeout: (200, json.dumps(_payload()).encode()))
        results = provider.search("q")
        assert [r.url for r in results] == ["https://example.com/0", "https://example.com/1"]
        assert results[0].domain == "example.com"

    def test_parses_results_envelope(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_ENV, "secret")
        body = json.dumps({"results": _payload(1)}).encode()
        provider = self._provider(tmp_path, lambda url, headers, timeout: (200, body))
        assert len(provider.search("q")) == 1

    @pytest.mark.parametrize("status,exc", [(429, RetryableSearchError), (503, RetryableSearchError), (404, FatalSearchError)])
    def test_http_status_classification(self, monkeypatch, tmp_path, status, exc):
        monkeypatch.setenv(API_ENV, "secret")
        provider = self._provider(tmp_path, lambda url, headers, timeout: (status, b""))
        with pytest.raises(exc):
            provider.search("q")

    def test_malformed_body_is_fatal(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_ENV, "secret")
        provider = self._provider(tmp_path, lambda url, headers, timeout: (200, b"not json"))
        with pytest.raises(FatalSearchError, match="malformed"):
            provider.search("q")

    def test_warm_cache_answers_without_network(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_ENV, "secret")
        calls = []

        def transport(url, headers, timeout):
            calls.append(url)
            return 200, json.dumps(_payload()).encode()

        provider = self._provider(tmp_path, transport)
        first = provider.search("q")
        assert len(calls) == 1

        def exploding_transport(url, headers, timeout):
            raise AssertionError("network touched despite warm cache")

        offline = self._provider(tmp_path, exploding_transport)
        second = offline.search("q")
        assert second == first
        assert len(calls) == 1

    def test_malformed_result_is_not_cached(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_ENV, "secret")
        bodies = [json.dumps([{"title": "no url"}]).encode(), json.dumps(_payload()).encode()]
        provider = self._provider(tmp_path, lambda url, headers, timeout: (200, bodies.pop(0)))
        with pytest.raises(FatalSearchError, match="malformed"):
            provider.search("q")
        assert not list((tmp_path / "cache").iterdir())
        # The endpoint recovers; the bad answer must not replay from the cache.
        assert [r.url for r in provider.search("q")] == ["https://example.com/0", "https://example.com/1"]

    def test_rate_limiter_engaged(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_ENV, "secret")
        clock = {"now": 0.0}
        sleeps = []
        limiter = RateLimiter(
            requests_per_second=1.0,
            time_func=lambda: clock["now"],
            sleep_func=lambda s: sleeps.append(s) or clock.__setitem__("now", clock["now"] + s),
        )
        provider = self._provider(
            tmp_path,
            lambda url, headers, timeout: (200, json.dumps(_payload()).encode()),
            rate_limiter=limiter,
        )
        provider.search("q1")
        provider.search("q2")
        assert sleeps == pytest.approx([1.0])

    def test_endpoint_required(self):
        with pytest.raises(ConfigError):
            LiveSearchProvider("")
