import logging

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from claimcheck import summarize as summarize_module
from claimcheck.errors import SummarizeError
from claimcheck.summarize import (
    LeadSummarizer,
    SummarizerBackend,
    summarize,
)
from claimcheck.textproc import split_sentences, tokenize
from oracles import lead_by_counting_words


def _sentence(n_tokens: int, tag: str) -> str:
    words = [f"{tag}{i}" for i in range(n_tokens - 1)]
    return ("Start " + " ".join(words)).strip() + "."


def test_sentence_helper_token_counts():
    assert len(tokenize(_sentence(50, "a"))) == 50


class TestLeadFallback:
    def test_short_body_returned_whole(self):
        body = _sentence(20, "a") + " " + _sentence(20, "b")  # 40 tokens total
        assert LeadSummarizer(180).summarize(body) == body

    def test_three_fitting_sentences_kept(self):
        body = " ".join(_sentence(50, t) for t in ("a", "b", "c"))  # 150 tokens
        assert LeadSummarizer(180).summarize(body) == body

    def test_stops_before_budget_overflow(self):
        first = _sentence(100, "a")
        body = first + " " + _sentence(100, "b")  # 200 tokens
        assert LeadSummarizer(180).summarize(body) == first

    def test_single_oversized_sentence_truncated(self):
        body = _sentence(300, "a")
        out = LeadSummarizer(180).summarize(body)
        assert len(tokenize(out)) == 180
        assert body.startswith(out)

    def test_empty_body(self):
        with pytest.raises(SummarizeError):
            LeadSummarizer(180).summarize("   ")

    def test_output_is_sentence_prefix(self):
        body = " ".join(_sentence(30, t) for t in ("a", "b", "c", "d", "e", "f", "g"))
        out = LeadSummarizer(180).summarize(body)
        sentences = split_sentences(body)
        assert out == " ".join(sentences[:6])  # 180 tokens exactly


class TestSummarizeWrapper:
    def test_long_body_lands_in_window(self):
        body = " ".join(_sentence(25, f"t{i}") for i in range(40))  # 1000 tokens
        out = summarize(LeadSummarizer(), body)
        assert 60 <= len(tokenize(out)) <= 180

    def test_deterministic(self):
        body = " ".join(_sentence(25, f"t{i}") for i in range(10))
        backend = LeadSummarizer()
        assert summarize(backend, body) == summarize(backend, body)

    def test_over_budget_backend_is_truncated(self, caplog):
        class Verbose(SummarizerBackend):
            name = "verbose"

            def summarize(self, body):
                return " ".join(f"w{i}" for i in range(500))

        with caplog.at_level(logging.WARNING):
            out = summarize(Verbose(), "Some body text.")
        assert len(tokenize(out)) == 180
        assert "truncating" in caplog.text

    def test_lead_summary_is_not_tokenized_again(self, monkeypatch):
        # The lead rule counts each sentence's tokens as it takes it; its summary is within budget.
        seen = []
        monkeypatch.setattr(summarize_module, "tokenize", lambda text: seen.append(text) or tokenize(text))
        body = " ".join(_sentence(20, t) for t in ("a", "b", "c"))
        assert summarize(LeadSummarizer(), body) == body
        assert seen == split_sentences(body)

    def test_over_budget_lead_subclass_is_truncated(self, caplog):
        class Padded(LeadSummarizer):
            def summarize(self, body):
                return super().summarize(body) + " extra words"

        with caplog.at_level(logging.WARNING):
            out = summarize(Padded(max_tokens=20), _sentence(20, "a"))
        assert out == _sentence(20, "a")
        assert "truncating" in caplog.text

    def test_empty_body_rejected(self):
        with pytest.raises(SummarizeError):
            summarize(LeadSummarizer(), "")

    def test_empty_output_rejected(self):
        class Silent(SummarizerBackend):
            name = "silent"

            def summarize(self, body):
                return "  "

        with pytest.raises(SummarizeError, match="empty summary"):
            summarize(Silent(), "Some body.")

    def test_backend_truncated_to_nothing_is_rejected(self, caplog):
        # The first word alone is over budget, as in the lead rule's own case.
        class Hyphenated(SummarizerBackend):
            name = "hyphenated"

            def summarize(self, body):
                return "a-b-c-d-e-f rest of it"

        with caplog.at_level(logging.WARNING), pytest.raises(SummarizeError, match="empty summary"):
            summarize(Hyphenated(max_tokens=3), "Some body.")
        assert "truncating" in caplog.text
        with pytest.raises(SummarizeError, match="empty summary"):
            summarize(LeadSummarizer(max_tokens=3), "A-b-c-d-e-f rest of it.")

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            LeadSummarizer(max_tokens=0)


_bodies = st.lists(
    st.integers(min_value=1, max_value=120), min_size=1, max_size=8
).map(lambda counts: " ".join(_sentence(c, f"s{i}") for i, c in enumerate(counts)))


@given(_bodies)
def test_budget_is_a_hard_invariant(body):
    out = summarize(LeadSummarizer(), body)
    assert len(tokenize(out)) <= 180
    assert out.strip()


_words = st.sampled_from(
    ["state-of-the-art", "U.S.", "e.g.", "well-known", "3.5%", "don't", "Dr.", "x", "plain", "word", "--", "a1b2c3"]
)
_sentences = st.tuples(
    st.sampled_from(["The", "State-of-the-art", "U.S.", "A-b-c-d-e-f"]),
    st.lists(_words, max_size=12),
    st.sampled_from([".", "!", "?"]),
)
_lead_bodies = st.lists(_sentences, min_size=1, max_size=8).map(
    lambda parts: " ".join(" ".join([head, *words]) + end for head, words, end in parts)
)


@given(_lead_bodies, st.integers(min_value=1, max_value=200))
@example("State-of-the-art work. More text.", 3)  # the first word alone is over budget
def test_lead_rule_matches_the_word_by_word_oracle(body, max_tokens):
    expected = lead_by_counting_words(body, max_tokens)
    backend = LeadSummarizer(max_tokens)
    if not expected:
        with pytest.raises(SummarizeError, match="empty summary"):
            summarize(backend, body)
    else:
        assert summarize(backend, body) == expected
