import random
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.corpus import Article, DatasetKind
from claimcheck.encode import NO_TOKENS, HashedBagEncoder, reference_encode
from claimcheck.errors import ConfigError, EncodeError, FatalSearchError
from claimcheck.evidence import (
    CredibleDomainList,
    EvidenceArticle,
    Query,
    SearchProvider,
    SearchResult,
    build_query,
    date_window,
    gather_evidence,
    is_credible,
    registrable_domain,
    search,
    select_evidence,
    shift_months,
)
from claimcheck.providers import FixtureSearchProvider
from oracles import in_window_by_walking, shift_months_by_walking


class TestBuildQuery:
    def test_under_limit_keeps_everything(self):
        headline = " ".join(f"h{i}" for i in range(10))
        claims = " ".join(f"c{i}" for i in range(20))
        query = build_query(headline, claims)
        assert query.text == f"{headline} {claims}"
        assert len(query.text.split()) == 30

    def test_truncates_to_first_forty_words(self):
        headline = " ".join(f"h{i}" for i in range(10))
        claims = " ".join(f"c{i}" for i in range(50))
        query = build_query(headline, claims)
        words = query.text.split()
        assert len(words) == 40
        assert words == (headline.split() + claims.split())[:40]

    def test_headline_only(self):
        query = build_query("short headline text", "")
        assert query.text == "short headline text"

    def test_empty_headline(self):
        with pytest.raises(ValueError):
            build_query("  ", "claims")

    @given(
        st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=1, max_size=200),
        st.lists(st.sampled_from(["delta", "epsilon"]), max_size=200),
    )
    def test_word_bound_and_prefix_property(self, headline_words, claim_words):
        query = build_query(" ".join(headline_words), " ".join(claim_words))
        words = query.text.split()
        assert len(words) <= 40
        assert words == (headline_words + claim_words)[: len(words)]
        assert len(words) == min(40, len(headline_words) + len(claim_words))

    def test_query_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Query(text="  ")


class TestDateWindow:
    def test_inside(self):
        assert date_window(date(2017, 6, 15), date(2017, 8, 1))

    def test_inclusive_bounds(self):
        assert date_window(date(2017, 6, 15), date(2017, 9, 15))
        assert date_window(date(2017, 6, 15), date(2017, 3, 15))
        assert not date_window(date(2017, 6, 15), date(2017, 9, 16))
        assert not date_window(date(2017, 6, 15), date(2017, 3, 14))

    def test_end_of_month_clamping(self):
        # Frozen via the day-walking oracle: May 31 minus three months.
        assert shift_months(date(2017, 5, 31), -3) == date(2017, 2, 28)
        assert shift_months_by_walking(date(2017, 5, 31), -3) == date(2017, 2, 28)
        assert shift_months(date(2016, 11, 30), 3) == date(2017, 2, 28)
        assert shift_months(date(2015, 11, 30), 3) == date(2016, 2, 29)  # leap year

    def test_against_day_enumeration_oracle(self):
        rng = random.Random(777)
        start = date(2014, 1, 1)
        for _ in range(150):
            article_date = start + timedelta(days=rng.randrange(0, 1500))
            evidence_date = article_date + timedelta(days=rng.randrange(-160, 160))
            assert date_window(article_date, evidence_date) == in_window_by_walking(
                article_date, evidence_date
            )
            assert shift_months(article_date, 3) == shift_months_by_walking(article_date, 3)
            assert shift_months(article_date, -3) == shift_months_by_walking(article_date, -3)


class TestRegistrableDomain:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("news.example.com", "example.com"),
            ("example.com", "example.com"),
            ("EXAMPLE.com", "example.com"),
            ("www.news.bbc.co.uk", "bbc.co.uk"),
            ("https://sub.site.org/path?x=1", "site.org"),
            ("host.example.com:8080", "example.com"),
            ("localhost", None),
            ("", None),
            ("192.168.0.1", None),
            ("..", None),
        ],
    )
    def test_extraction(self, value, expected):
        assert registrable_domain(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("dawn.com.pk", "dawn.com.pk"),
            ("www.bangkokpost.co.th", "bangkokpost.co.th"),
            ("pib.gov.in", "pib.gov.in"),
            ("news.gov.sg", "news.gov.sg"),
        ],
    )
    def test_second_level_label_under_any_country_code_takes_a_third(self, value, expected):
        assert registrable_domain(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("www.bbc.co.uk", "bbc.co.uk"),
            ("sport.abc.net.au", "abc.net.au"),
            ("a.x.co.jp", "x.co.jp"),
            ("x.com.br", "x.com.br"),
            ("co.uk", "co.uk"),  # the suffix alone has no third label to take
            ("news.co.com", "co.com"),  # "com" is not a two-letter country code
            ("news.foo.uk", "foo.uk"),  # "foo" is not a second-level label
            ("reuters.com.mirror-site.net", "mirror-site.net"),
        ],
    )
    def test_other_names_reduce_as_before(self, value, expected):
        assert registrable_domain(value) == expected


class TestIsCredible:
    @pytest.fixture()
    def allowlist(self):
        return CredibleDomainList(frozenset({"example.com", "bbc.co.uk"}))

    def test_subdomain_matches(self, allowlist):
        assert is_credible("news.example.com", allowlist)

    def test_non_member(self, allowlist):
        assert not is_credible("example.org", allowlist)

    def test_case_insensitive(self, allowlist):
        assert is_credible("EXAMPLE.com", allowlist)

    def test_multi_label_suffix(self, allowlist):
        assert is_credible("sport.bbc.co.uk", allowlist)

    def test_unparseable_is_not_credible(self, allowlist):
        assert not is_credible("not a domain", allowlist)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            CredibleDomainList(frozenset())

    def test_from_file(self, tmp_path):
        path = tmp_path / "domains.txt"
        path.write_text("# comment\nExample.com\nbbc.co.uk  # inline\n\n", encoding="utf-8")
        allowlist = CredibleDomainList.from_file(path)
        assert allowlist.domains == frozenset({"example.com", "bbc.co.uk"})

    @pytest.mark.parametrize("separator", ["\r\n", "\x85", "\u2028", "\x1c"])
    def test_from_file_splits_at_line_ends_only(self, tmp_path, separator):
        path = tmp_path / "domains.txt"
        path.write_text(f"bbc.co.uk\r\nreuters.com\rexample.com{separator}npr.org\n", encoding="utf-8")
        if separator == "\r\n":
            allowlist = CredibleDomainList.from_file(path)
            assert allowlist.domains == frozenset({"bbc.co.uk", "reuters.com", "example.com", "npr.org"})
        else:  # the entry is not split, so it is one name that is not registrable
            with pytest.raises(ConfigError, match=re.escape(repr(f"example.com{separator}npr.org"))):
                CredibleDomainList.from_file(path)

    @pytest.mark.parametrize(
        "entry, registrable",
        [("www.reuters.com", "reuters.com"), ("news.bbc.co.uk", "bbc.co.uk"), ("localhost", None), ("10.0.0.1", None)],
    )
    def test_from_file_rejects_entries_that_are_not_registrable_domains(self, tmp_path, entry, registrable):
        path = tmp_path / "domains.txt"
        path.write_text(f"example.com\n{entry}\n", encoding="utf-8")
        message = f"credible-list entry {entry!r} is not a registrable domain (registrable form: {registrable!r})"
        with pytest.raises(ConfigError, match=re.escape(message)):
            CredibleDomainList.from_file(path)

    def test_from_file_rejects_scheme(self, tmp_path):
        path = tmp_path / "domains.txt"
        path.write_text("https://example.com\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="scheme or path"):
            CredibleDomainList.from_file(path)


def _result(i, domain="example.com", published="2017-06-20", body="Some body text."):
    return {
        "url": f"https://{domain}/item-{i}",
        "domain": domain,
        "title": f"title {i}",
        "body": body,
        "published": published,
    }


class TestSearch:
    def test_fixture_identity(self):
        provider = FixtureSearchProvider({"known query": [_result(0), _result(1)]})
        results = search(provider, Query("Known  Query"))
        assert [r.url for r in results] == [
            "https://example.com/item-0",
            "https://example.com/item-1",
        ]
        assert [r.provider_rank for r in results] == [1, 2]

    def test_unknown_query_is_empty(self):
        provider = FixtureSearchProvider({"known query": [_result(0)]})
        assert search(provider, Query("other query")) == []

    def test_fifty_results_truncated_to_thirty_five(self):
        provider = FixtureSearchProvider({"big query": [_result(i) for i in range(50)]})
        results = search(provider, Query("big query"))
        assert len(results) == 35
        assert results[-1].provider_rank == 35

    def test_duplicate_ranks_rejected(self):
        class Dupes(SearchProvider):
            name = "dupes"

            def search(self, query_text):
                result = SearchResult("u", "example.com", "t", "b", provider_rank=1)
                return [result, result]

        with pytest.raises(FatalSearchError, match="duplicate ranks"):
            search(Dupes(), Query("q"))


def _article(published=date(2017, 6, 15)):
    return Article(
        id="art-1",
        headline="Harbor dredging resumes next month",
        body="Harbor dredging resumes next month. Crews arrive in June.",
        dataset=DatasetKind.FIXTURE,
        raw_label="true",
        published=published,
    )


@pytest.fixture(scope="module")
def backend():
    return HashedBagEncoder(dimension=256, seed=0)


@pytest.fixture()
def allowlist():
    return CredibleDomainList(frozenset({"example.com", "factnews.org"}))


def _provider(entries):
    return FixtureSearchProvider({"harbor query": entries})


_QUERY = Query("harbor query")


class TestGatherEvidence:
    def test_all_non_credible_yields_empty_set(self, backend, allowlist):
        provider = _provider([_result(i, domain="junk.net") for i in range(4)])
        evidence = gather_evidence(_article(), "harbor dredging", _QUERY, provider, allowlist, backend)
        assert evidence.is_empty
        assert evidence.sentences == ()
        assert evidence.concatenated == ""

    def test_first_three_survivors_kept_in_provider_order(self, backend, allowlist):
        provider = _provider([_result(i) for i in range(5)])
        evidence = gather_evidence(_article(), "harbor dredging", _QUERY, provider, allowlist, backend)
        assert [ea.result.url for ea in evidence.articles] == [
            "https://example.com/item-0",
            "https://example.com/item-1",
            "https://example.com/item-2",
        ]

    def test_claim_identical_sentence_is_first_with_zero_distance(self, backend, allowlist):
        claim = "Harbor dredging resumes next month."
        provider = _provider(
            [_result(0, body=f"Unrelated filler words sentence. {claim} Another line here.")]
        )
        evidence = gather_evidence(_article(), claim, _QUERY, provider, allowlist, backend)
        assert evidence.sentences[0].text == claim
        assert evidence.sentences[0].distance < 1e-9

    def test_positions_map_back_past_a_sentence_without_tokens_and_ties_keep_article_order(self, backend, allowlist):
        claim = "Harbor dredging resumes next month."
        body = f"... {claim} Filler words here."  # "..." is sentence 0 and has no tokens
        provider = _provider([_result(0, body=body), _result(1, body=body)])
        evidence = gather_evidence(_article(), claim, _QUERY, provider, allowlist, backend)
        picked = [(s.article_order, s.sentence_index, s.distance) for s in evidence.sentences]
        assert picked == [(0, 1, 0.0), (1, 1, 0.0), (0, 2, 1.0)]
        assert [s.source_url for s in evidence.sentences] == [f"https://example.com/item-{i}" for i in (0, 1, 0)]

    def test_a_claim_without_tokens_leaves_its_survivors_unscanned(self, backend, token_scans):
        result = SearchResult("https://example.com/a", "example.com", "t", "Crews dredge. Ships wait.", 1)
        survivors = (EvidenceArticle(result=result, date_check_applicable=True),)
        rejected, chosen = select_evidence(["...", "Ships wait."], [survivors, survivors], backend)
        assert type(rejected) is EncodeError and str(rejected) == NO_TOKENS
        assert chosen.concatenated == "Ships wait. Crews dredge."
        assert token_scans == {"...": 1, "Ships wait.": 2, "Crews dredge.": 1}

    def test_undated_evidence_fails_window(self, backend, allowlist):
        provider = _provider([_result(0, published=None), _result(1)])
        evidence = gather_evidence(_article(), "harbor dredging", _QUERY, provider, allowlist, backend)
        assert [ea.result.url for ea in evidence.articles] == ["https://example.com/item-1"]

    def test_out_of_window_evidence_dropped(self, backend, allowlist):
        provider = _provider([_result(0, published="2018-06-20"), _result(1)])
        evidence = gather_evidence(_article(), "harbor dredging", _QUERY, provider, allowlist, backend)
        assert [ea.result.url for ea in evidence.articles] == ["https://example.com/item-1"]

    def test_undated_article_passes_with_flag(self, backend, allowlist):
        provider = _provider([_result(0, published="2030-01-01")])
        evidence = gather_evidence(
            _article(published=None), "harbor dredging", _QUERY, provider, allowlist, backend
        )
        assert len(evidence.articles) == 1
        assert evidence.articles[0].date_check_applicable is False

    def test_filter_algebra_randomized(self, backend, allowlist):
        rng = random.Random(4242)
        domains = ["example.com", "factnews.org", "junk.net", "spam.biz"]
        for _ in range(30):
            entries = []
            for i in range(rng.randint(0, 12)):
                published = None
                if rng.random() < 0.8:
                    published = (date(2017, 6, 15) + timedelta(days=rng.randrange(-300, 300))).isoformat()
                entries.append(_result(i, domain=rng.choice(domains), published=published))
            provider = _provider(entries)
            evidence = gather_evidence(
                _article(), "harbor dredging", _QUERY, provider, allowlist, backend, max_articles=99
            )
            input_urls = {e["url"] for e in entries}
            for ea in evidence.articles:
                assert ea.result.url in input_urls  # output is a subset
                assert is_credible(ea.result.domain, allowlist)
                assert ea.result.published is not None
                assert date_window(date(2017, 6, 15), ea.result.published)

    def test_pooled_selection_matches_brute_force(self, backend, allowlist):
        rng = random.Random(11)
        vocab = ["harbor", "dredging", "crews", "channel", "silt", "barge", "survey", "tide"]
        entries = []
        for i in range(3):
            sentences = [
                (" ".join(rng.choice(vocab) for _ in range(6))).capitalize() + "."
                for _ in range(4)
            ]
            entries.append(_result(i, body=" ".join(sentences)))
        provider = _provider(entries)
        claim = "harbor dredging survey"
        evidence = gather_evidence(_article(), claim, _QUERY, provider, allowlist, backend)

        # Oracle: pool every survivor sentence, full sort on recomputed
        # distances with (article order, sentence index) tie-breaks.
        claim_vec = reference_encode(claim, 256, 0)
        pool = []
        for order, entry in enumerate(entries):
            from claimcheck.textproc import split_sentences, tokenize

            for idx, sentence in enumerate(split_sentences(entry["body"])):
                if not tokenize(sentence):
                    continue
                dist = 1.0 - float(np.dot(claim_vec, reference_encode(sentence, 256, 0)))
                pool.append((dist, order, idx, sentence))
        pool.sort()
        assert [s.text for s in evidence.sentences] == [p[3] for p in pool[:3]]
        assert [s.distance for s in evidence.sentences] == [min(2.0, max(0.0, p[0])) for p in pool[:3]]
        assert evidence.concatenated == " ".join(p[3] for p in pool[:3])
