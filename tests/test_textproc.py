import os
import random
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck import textproc
from claimcheck.textproc import (
    DEFAULT_ABBREVIATIONS,
    RougeScore,
    ascii_token_spans,
    has_tokens,
    rouge1,
    rouge_l,
    split_sentences,
    tokenize,
)
from oracles import (
    clipped_unigram_overlap,
    lcs_length_full_table,
    precision_recall_f1,
    split_sentences_by_scanning,
    tokenize_by_scanning,
)

# Latin through Latin Extended-B keeps lowercasing total; the tokenizer is
# built for news text, not for exotic cased symbols.
_text_strategy = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F), max_size=200
)

_ascii_prose = st.text(alphabet=" .!?,;ABCDEFabcdefgh0123\n\t", max_size=200)

# News-like fragments dense in terminators, guarded abbreviations, quotes
# and digits, glued together with and without spaces.
_fragments = st.sampled_from(
    [
        ".", "!", "?", "...", "?!", " ", "  ", "\n", "\t", "\u00a0", '"', "'", "\u201c", "\u201d", "(", ")",
        "Dr", "dr", "Mr", "St", "etc", "No", "no", "U.S", "Fig", "2017", "3.5", "42", "A", "b",
        "The", "said", "Zoe", "\u00c9t\u00e9", "\u00e9l\u00e8ve", "\u0130stanbul", "\u00df",
        # Where the Unicode classes and the ASCII-only guard words meet: a long s,
        # a dotted capital I, a titlecase letter, an uppercase letter that is not
        # alphabetic, a digit that is not decimal, an uncased letter, an astral capital.
        "\u017ft", "\u0130nc", "\u01c5", "\u24b6", "\u00b2", "\u4e2d", "\U0001d400",
    ]
)
_terminator_dense = st.lists(_fragments, max_size=60).map("".join)

# The same density in pure ASCII, so every example takes the regex lane:
# mixed-case guarded words, a guarded word glued to a digit or a letter,
# and the control characters that ``str.isspace`` counts as whitespace.
_ascii_fragments = st.sampled_from(
    [
        ".", "!", "?", "...", " ", "  ", "\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", '"', "'", "(",
        "Dr", "dr", "DR", "dR", "1dr", "xdr", "St", "etc", "No", "e.g", "U.S", "a", "I", "2017", "3.5",
        "A", "b", "The", "said", "Zoe",
    ]
)
_ascii_dense = st.lists(_ascii_fragments, max_size=60).map("".join)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_dropped(self):
        assert tokenize("The cat, sat.") == ["the", "cat", "sat"]

    def test_digits_kept(self):
        assert tokenize("42 cats in 2017") == ["42", "cats", "in", "2017"]

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_code_point_matches_character_scan(self, code):
        ch = chr(code)
        for text in (f"ab{ch}cd", f"{ch}Ab", f"aB{ch}", ch, ch * 3):
            assert tokenize(text) == tokenize_by_scanning(text), repr(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("\u0130stanbul", ["i", "stanbul"]),  # lowercases to "i" + combining dot above
            ("Stra\u00dfe", ["stra\u00dfe"]),
            ("\u216b\u00b2", ["\u217b\u00b2"]),  # roman numeral twelve, superscript two
            ("don\u2019t", ["don", "t"]),  # right single quotation mark
            ("It\u2019s 5\u00a0km \u2014 not 50", ["it", "s", "5", "km", "not", "50"]),
        ],
    )
    def test_non_ascii_pins(self, text, tokens):
        assert not text.isascii()
        assert tokenize(text) == tokens == tokenize_by_scanning(text)

    def test_has_tokens_on_every_code_point_matches_character_scan(self):
        chars = map(chr, range(sys.maxunicode + 1))
        assert [ch for ch in chars if has_tokens(ch) != bool(tokenize_by_scanning(ch))] == []

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=200))
    def test_ascii_text_matches_character_scan(self, text):
        assert tokenize(text) == tokenize_by_scanning(text)

    @given(st.one_of(st.text(max_size=200), _text_strategy, _terminator_dense))
    def test_mixed_text_matches_character_scan(self, text):
        assert tokenize(text) == tokenize_by_scanning(text)

    @given(st.one_of(_text_strategy, _terminator_dense))
    def test_has_tokens_agrees_with_tokenize(self, text):
        assert has_tokens(text) == bool(tokenize(text))

    @given(_text_strategy)
    def test_tokens_lowercase_and_punctuation_free(self, text):
        # Character-scan oracle over every produced token.
        for token in tokenize(text):
            assert token
            for ch in token:
                assert not ch.isupper()
                assert unicodedata.category(ch)[0] not in ("P", "Z", "S", "C")


# Texts for the one-pass tokenizer: empty and whitespace-only texts, NUL and
# other control bytes, punctuation-only texts, and glued ASCII tokens.
_ascii_batch_text = st.one_of(
    st.sampled_from(["", " ", "   ", "\t\n", "\x00", "a\x00b", "\x1c\x1f\x7f", "...", "?!", "-_-", "A1b2"]),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
    _ascii_dense,
)


class TestAsciiTokenSpans:
    def _check(self, texts):
        data, starts, ends, counts = ascii_token_spans(texts)
        per_text = [tokenize(text) for text in texts]
        assert counts.tolist() == [len(t) for t in per_text]
        assert [data[s:e].decode("ascii") for s, e in zip(starts, ends)] == [token for t in per_text for token in t]
        assert data.decode("ascii").split() == [token for t in per_text for token in t]  # spaces frame every token

    @given(st.lists(_ascii_batch_text, max_size=12))
    def test_ascii_batch_matches_tokenize_per_text(self, texts):
        self._check(texts)

    @pytest.mark.parametrize(
        "texts",
        [[], [""], ["", ""], ["  ", "a"], ["a", "  "], ["\x00", "x\x00y"], ["...", "!?"], ["Caf au lait", "Plain"]],
    )
    def test_edge_batches(self, texts):
        self._check(texts)


class TestSplitSentences:
    def test_terminator_mix(self):
        assert split_sentences("A. B? C!") == ["A.", "B?", "C!"]

    def test_abbreviation_guard(self):
        assert split_sentences("Dr. Smith spoke. He left.") == ["Dr. Smith spoke.", "He left."]

    def test_no_terminator_is_one_sentence(self):
        assert split_sentences("no terminators here") == ["no terminators here"]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_lowercase_after_period_does_not_split(self):
        text = "version 2.5 shipped. next stop"
        assert split_sentences(text) == [text]

    @pytest.mark.parametrize("case", [str.lower, str.title, str.upper], ids=["lower", "title", "upper"])
    @pytest.mark.parametrize("word", sorted(DEFAULT_ABBREVIATIONS))
    def test_every_guarded_word_matches_character_scan(self, word, case):
        guarded = case(word)
        assert split_sentences(f"See {guarded}. X") == [f"See {guarded}. X"]
        # A letter glued before the word makes another word; a digit does not.
        # The accented text takes the Unicode classes instead of the ASCII ones.
        texts = [f"{guarded}. X", f"1{guarded}. X", f"a{guarded}. X", f"See {guarded}. X. Y{guarded}. Z"]
        for text in [*texts, f"\u00c9t\u00e9 {guarded}. X", f"\u00e9{guarded}. X"]:
            assert split_sentences(text) == split_sentences_by_scanning(text), repr(text)

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_code_point_near_a_terminator_matches_character_scan(self, code):
        ch = chr(code)
        texts = [f"Ab{ch}{t} Cd" for t in ".!?"]  # right before a terminator
        texts += [f"Ab{t}{ch}Cd" for t in ".!?"]  # right after one
        texts += [f"Ab. {ch}Cd", f"{ch}. Ab", f"dr{ch}. Ab", f"Ab.{ch}"]
        for text in texts:
            assert text.isascii()
            expected = split_sentences_by_scanning(text)
            assert split_sentences(text) == expected, repr(text)

    @given(st.one_of(_terminator_dense, _ascii_dense, _ascii_prose, _text_strategy))
    def test_matches_character_scan(self, text):
        assert split_sentences(text) == split_sentences_by_scanning(text)

    @pytest.mark.parametrize(
        "text, sentences",
        [
            ("See \u017ft. X \u00e9", ["See \u017ft.", "X \u00e9"]),  # "\u017ft" lowercases to itself, not to "st"
            ("See \u0130nc. X", ["See \u0130nc.", "X"]),  # "\u0130nc" lowercases to "i\u0307nc", not to "inc"
            ("Ab. \u01c5x \u00e9", ["Ab. \u01c5x \u00e9"]),  # titlecase, not uppercase
            ("Ab. \u24b6x", ["Ab.", "\u24b6x"]),  # uppercase but not alphabetic
            ("\u24b6dr. X \u00e9", ["\u24b6dr. X \u00e9"]),  # so it does not lengthen the guarded word
            ("\u00b2dr. X", ["\u00b2dr. X"]),
            ("\u4e2dst. X", ["\u4e2dst.", "X"]),  # alphabetic, uncased: "\u4e2dst" is not a guarded word
            ("Ab. \U0001d400x", ["Ab.", "\U0001d400x"]),
            ("Ab.\x85Cd \u00e9", ["Ab.", "Cd \u00e9"]),  # U+0085 is whitespace to str.isspace
        ],
    )
    def test_unicode_probes_match_character_scan(self, text, sentences):
        assert not text.isascii()
        assert split_sentences(text) == sentences == split_sentences_by_scanning(text)

    @given(
        st.characters(),
        st.sampled_from(
            [
                "Ab. {}x \u00e9", "Ab.{}Cd \u00e9", "Ab. {} Cd \u00e9", "{}dr. X \u00e9", "See {}t. X \u00e9",
                "See {}nc. X \u00e9", "Ab{}. Cd \u00e9", "Ab{} Cd \u00e9", "Ab. Cd \u00e9{}",
            ]
        ),
    )
    def test_any_character_in_a_boundary_context_matches_character_scan(self, ch, context):
        text = context.format(ch)
        assert split_sentences(text) == split_sentences_by_scanning(text)

    def test_unicode_classes_are_exactly_the_str_predicates(self):
        pattern = textproc._unicode_boundary_re().pattern
        upper = re.search(r"\(\?=\[(.*)\]\)\Z", pattern, re.S).group(1)
        (alpha,) = set(re.findall(r"\(\?<!\[(.*?)\]\)", pattern, re.S))  # one per guarded word length
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        for cls, predicate in ((upper, str.isupper), (alpha, str.isalpha)):
            assert re.findall(f"[{cls}]", every) == list(filter(predicate, every))

    @given(st.one_of(_ascii_dense, _ascii_prose))
    def test_both_patterns_split_ascii_text_alike(self, text):
        unicode_re = textproc._unicode_boundary_re()
        assert unicode_re.split(text) == textproc._ASCII_BOUNDARY_RE.split(text)

    def test_import_and_ascii_text_build_no_unicode_class(self):
        script = "\n".join(
            [
                "import sys",
                "calls = []",
                "sys.setprofile(lambda frame, event, arg: event == 'call' and calls.append(frame.f_code.co_name))",
                "from claimcheck import textproc",
                "textproc.split_sentences('Dr. A met B. C left.')",
                "sys.setprofile(None)",
                "assert '_code_point_class' not in calls",
                "textproc.split_sentences('\\u00c9mile left. He came.')",
                "textproc.split_sentences('Then \\u00c9mile left.')",
                "assert textproc._unicode_boundary_re.cache_info().misses == 1",
            ]
        )
        src = str(Path(textproc.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_a_returned_list_is_the_callers_own(self):
        for text in ("One here. Two there.", "\u00c9mile left. He came."):
            first = split_sentences(text)
            first.append("Extra.")
            first[0] = "Changed."
            assert split_sentences(text) == split_sentences_by_scanning(text)
            assert split_sentences(text) is not split_sentences(text)

    @given(_ascii_prose)
    def test_token_conservation(self, text):
        rejoined = [token for sentence in split_sentences(text) for token in tokenize(sentence)]
        assert rejoined == tokenize(text)


class TestRouge1:
    def test_identity(self):
        assert rouge1(["a", "b"], ["a", "b"]) == RougeScore(1.0, 1.0, 1.0)

    def test_hand_case(self):
        # Clipped multiset count by hand: only "a" matches.
        score = rouge1(["a", "b", "c"], ["a", "d"])
        assert score.precision == pytest.approx(1 / 3, abs=1e-12)
        assert score.recall == pytest.approx(1 / 2, abs=1e-12)
        assert score.f1 == pytest.approx(0.4, abs=1e-12)

    def test_empty_candidate(self):
        assert rouge1([], ["a"]) == RougeScore(0.0, 0.0, 0.0)
        assert rouge1(["a"], []) == RougeScore(0.0, 0.0, 0.0)

    def test_clipping(self):
        # "a" appears twice in the candidate but only once in the reference.
        score = rouge1(["a", "a"], ["a"])
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(1.0)


class TestRougeL:
    def test_identity(self):
        assert rouge_l(["x", "y", "z"], ["x", "y", "z"]).f1 == pytest.approx(1.0)

    def test_hand_case(self):
        score = rouge_l(["the", "cat", "sat"], ["the", "cat", "ran"])
        assert score.precision == pytest.approx(2 / 3, abs=1e-12)
        assert score.recall == pytest.approx(2 / 3, abs=1e-12)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["c", "d"]) == RougeScore(0.0, 0.0, 0.0)


_token_lists = st.lists(st.sampled_from([f"w{i}" for i in range(10)]), max_size=20)


@given(_token_lists, _token_lists)
def test_swap_symmetry(candidate, reference):
    for scorer in (rouge1, rouge_l):
        forward = scorer(candidate, reference)
        backward = scorer(reference, candidate)
        assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
        assert forward.recall == pytest.approx(backward.precision, abs=1e-12)
        assert forward.f1 == pytest.approx(backward.f1, abs=1e-12)


@given(_token_lists, _token_lists)
def test_overlap_bounded_by_min_length(candidate, reference):
    bound = min(len(candidate), len(reference))
    assert clipped_unigram_overlap(candidate, reference) <= bound
    assert lcs_length_full_table(candidate, reference) <= bound


def test_randomized_equivalence_against_oracles():
    rng = random.Random(1234)
    vocabulary = [f"w{i}" for i in range(10)]
    for _ in range(250):
        candidate = [rng.choice(vocabulary) for _ in range(rng.randint(0, 20))]
        reference = [rng.choice(vocabulary) for _ in range(rng.randint(0, 20))]

        expected_1 = precision_recall_f1(
            clipped_unigram_overlap(candidate, reference), len(candidate), len(reference)
        )
        got_1 = rouge1(candidate, reference)
        assert got_1.precision == pytest.approx(expected_1[0], abs=1e-9)
        assert got_1.recall == pytest.approx(expected_1[1], abs=1e-9)
        assert got_1.f1 == pytest.approx(expected_1[2], abs=1e-9)

        expected_l = precision_recall_f1(
            lcs_length_full_table(candidate, reference), len(candidate), len(reference)
        )
        got_l = rouge_l(candidate, reference)
        assert got_l.precision == pytest.approx(expected_l[0], abs=1e-9)
        assert got_l.recall == pytest.approx(expected_l[1], abs=1e-9)
        assert got_l.f1 == pytest.approx(expected_l[2], abs=1e-9)
