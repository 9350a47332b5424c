"""Search providers: an offline fixture provider and a cached HTTP client.

The fixture provider maps normalized query text to canned results and is
the default for tests and offline runs. The live provider calls a generic
JSON search endpoint with an on-disk response cache; a warm cache answers
without any network access, which also makes live-provider runs replayable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import uuid
from datetime import date
from pathlib import Path
from typing import Callable

from . import jsonio
from .errors import ConfigError, FatalSearchError, RetryableSearchError
from .evidence import SearchProvider, SearchResult, registrable_domain

logger = logging.getLogger(__name__)

FIXTURE_FORMAT = "fixture-search.v1"


def normalize_query_key(text: str) -> str:
    """Lowercase and collapse whitespace so fixture lookups are stable."""
    return " ".join(text.lower().split())


def _result_from_payload(item: dict, rank: int) -> SearchResult:
    if not isinstance(item, dict) or "url" not in item:
        raise FatalSearchError(f"malformed search result at rank {rank}")
    url = str(item["url"])
    domain = str(item.get("domain") or "") or (registrable_domain(url) or "")
    published = None
    raw_date = item.get("published")
    if raw_date:
        try:
            published = date.fromisoformat(str(raw_date))
        except ValueError:
            raise FatalSearchError(f"malformed published date {raw_date!r} at rank {rank}") from None
    return SearchResult(
        url=url,
        domain=domain,
        title=str(item.get("title") or ""),
        body=str(item.get("body") or ""),
        provider_rank=rank,
        published=published,
    )


class FixtureSearchProvider(SearchProvider):
    """Offline provider backed by a query-to-results mapping.

    Unknown queries return an empty list, which downstream turns into the
    no-evidence outcome.
    """

    name = "fixture"

    def __init__(self, mapping: dict[str, list[dict]]):
        if not isinstance(mapping, dict) or not all(isinstance(v, list) for v in mapping.values()):
            raise ConfigError("fixture search queries must map query text to a list of results")
        self._mapping = {normalize_query_key(k): v for k, v in mapping.items()}
        if len(self._mapping) < len(mapping):
            groups: dict[str, list[str]] = {}
            for key in mapping:
                groups.setdefault(normalize_query_key(key), []).append(key)
            collisions = "; ".join(", ".join(map(repr, keys)) for keys in groups.values() if len(keys) > 1)
            raise ConfigError(f"fixture search queries collide after normalization: {collisions}")

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureSearchProvider":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load fixture search file {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != FIXTURE_FORMAT:
            raise ConfigError(f"fixture search file {path} is not in {FIXTURE_FORMAT!r} format")
        try:
            return cls(payload.get("queries", {}))
        except ConfigError as exc:
            raise ConfigError(f"fixture search file {path}: {exc}") from None

    def search(self, query_text: str) -> list[SearchResult]:
        entries = self._mapping.get(normalize_query_key(query_text), [])
        return [_result_from_payload(item, rank) for rank, item in enumerate(entries, start=1)]


class RateLimiter:
    """Enforces a minimum spacing between requests.

    Call ``wait()`` before each request. A rate of 0 means no limit, and a
    negative rate is a ``ValueError``. Thread-safe; time and sleep hooks
    are injectable for tests.
    """

    def __init__(
        self,
        requests_per_second: float = 3.0,
        time_func: Callable[[], float] = time.monotonic,
        sleep_func: Callable[[float], None] = time.sleep,
    ):
        if not requests_per_second >= 0:  # also rejects NaN
            raise ValueError(f"requests_per_second must be non-negative, got {requests_per_second}")
        self._interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._lock = threading.Lock()
        self._next_allowed = 0.0
        self._time = time_func
        self._sleep = sleep_func

    def wait(self) -> None:
        """Block until the next request may start, and book its slot."""
        if self._interval <= 0:
            return
        with self._lock:
            now = self._time()
            delay = self._next_allowed - now
            if delay > 0:
                self._sleep(delay)
                now = self._time()
            self._next_allowed = max(self._next_allowed, now) + self._interval


class ResponseCache:
    """Immutable on-disk cache of provider responses, keyed by query hash."""

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(provider_name: str, query_text: str) -> str:
        digest = hashlib.sha256(f"{provider_name}\n{query_text}".encode("utf-8"))
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def get(self, key: str) -> list[dict] | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FatalSearchError(f"corrupt cache entry {path}: {exc}") from exc

    def put(self, key: str, payload: list[dict]) -> None:
        path = self._path(key)
        if path.exists():
            return  # entries are immutable once written
        # A temp file of its own, so concurrent writers of one key never share one.
        tmp = self._dir / f"{key}.{uuid.uuid4().hex}.part"
        try:
            tmp.write_text(jsonio.CODEC.dumps(payload), encoding="utf-8")
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _default_transport(url: str, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise RetryableSearchError(f"search endpoint unreachable: {exc}") from exc


class LiveSearchProvider(SearchProvider):
    """HTTP client for a JSON web-search endpoint, with response caching.

    The endpoint is expected to answer GET ``?q=<query>`` with a JSON body
    of either a list of result objects or ``{"results": [...]}``; each
    object carries url/title/body and optionally domain/published. The API
    key is read from the environment, never from config files.
    """

    name = "live"

    def __init__(
        self,
        endpoint: str,
        api_key_env: str = "CLAIMCHECK_SEARCH_API_KEY",
        cache_dir: str | Path | None = None,
        rate_limiter: RateLimiter | None = None,
        timeout: float = 10.0,
        transport: Callable[[str, dict[str, str], float], tuple[int, bytes]] | None = None,
    ):
        if not endpoint:
            raise ConfigError("live search provider requires an endpoint URL")
        self._endpoint = endpoint
        self._api_key_env = api_key_env
        self._cache = ResponseCache(cache_dir) if cache_dir else None
        self._limiter = rate_limiter
        self._timeout = timeout
        self._transport = transport or _default_transport

    def search(self, query_text: str) -> list[SearchResult]:
        cache_key = ResponseCache.key(self.name, query_text)
        if self._cache is not None:
            cached = self._cache.get(cache_key)
            if cached is not None:
                return [_result_from_payload(item, rank) for rank, item in enumerate(cached, 1)]

        payload = self._fetch(query_text)
        results = [_result_from_payload(item, rank) for rank, item in enumerate(payload, 1)]
        if self._cache is not None:
            self._cache.put(cache_key, payload)  # only a payload that parsed is replayed
        return results

    def _fetch(self, query_text: str) -> list[dict]:
        api_key = os.environ.get(self._api_key_env)
        if not api_key:
            raise ConfigError(f"search API key not set in ${self._api_key_env}")
        url = f"{self._endpoint}?{urllib.parse.urlencode({'q': query_text})}"
        headers = {"X-Api-Key": api_key, "Accept": "application/json"}

        if self._limiter is not None:
            self._limiter.wait()
        status, body = self._transport(url, headers, self._timeout)

        if status == 429:
            raise RetryableSearchError("search quota exceeded (HTTP 429)")
        if status >= 500:
            raise RetryableSearchError(f"search endpoint error (HTTP {status})")
        if status >= 400:
            raise FatalSearchError(f"search request rejected (HTTP {status})")

        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FatalSearchError(f"malformed search response: {exc}") from exc
        if isinstance(parsed, dict):
            parsed = parsed.get("results")
        if not isinstance(parsed, list):
            raise FatalSearchError("malformed search response: no result list")
        return parsed
