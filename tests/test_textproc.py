import random
import sys
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.textproc import (
    DEFAULT_ABBREVIATIONS,
    RougeScore,
    has_tokens,
    load_abbreviations,
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
# Guard entries that cannot match ASCII text ("Dr", "e.g", "\u00e9") must
# change nothing; "" guards a period after a non-letter.
_custom_guards = st.frozensets(
    st.sampled_from(["", "dr", "st", "etc", "no", "a", "i", "u", "s", "zoe", "Dr", "e.g", "\u00e9"])
)


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

    def test_custom_guard_list(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_text("Fig.\n# comment\nca\n", encoding="utf-8")
        guard = load_abbreviations(path)
        assert guard == frozenset({"fig", "ca"})
        assert split_sentences("See Fig. 2 now. Done.", guard) == ["See Fig. 2 now.", "Done."]
        # "Dr" is not in the custom guard, so it splits there.
        assert split_sentences("Dr. Smith spoke.", guard) == ["Dr.", "Smith spoke."]

    def test_empty_word_guard_blocks_periods_after_non_letters(self):
        assert split_sentences("2017. The end. A", frozenset({""})) == ["2017. The end.", "A"]

    @pytest.mark.parametrize(
        "guard, sentences",
        [
            # Entries compare with the lowercased word, so "Dr" and "e.g" never match.
            (frozenset({"Dr", "e.g"}), ["See Dr.", "Smith.", "Use e.g.", "Tea."]),
            (frozenset({"dr", "g"}), ["See Dr. Smith.", "Use e.g. Tea."]),
        ],
    )
    def test_guard_entries_match_lowercased_letter_runs(self, guard, sentences):
        text = "See Dr. Smith. Use e.g. Tea."
        assert split_sentences(text, guard) == sentences == split_sentences_by_scanning(text, guard)

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_code_point_near_a_terminator_matches_character_scan(self, code):
        ch = chr(code)
        texts = [f"Ab{ch}{t} Cd" for t in ".!?"]  # right before a terminator
        texts += [f"Ab{t}{ch}Cd" for t in ".!?"]  # right after one
        texts += [f"Ab. {ch}Cd", f"{ch}. Ab", f"dr{ch}. Ab", f"Ab.{ch}"]
        for text in texts:
            assert text.isascii()
            expected = split_sentences_by_scanning(text, DEFAULT_ABBREVIATIONS)
            assert split_sentences(text) == expected, repr(text)

    @given(st.one_of(_terminator_dense, _ascii_dense, _ascii_prose, _text_strategy))
    def test_matches_character_scan(self, text):
        assert split_sentences(text) == split_sentences_by_scanning(text, DEFAULT_ABBREVIATIONS)

    @given(st.one_of(_terminator_dense, _ascii_dense), _custom_guards)
    def test_matches_character_scan_under_custom_guard(self, text, guard):
        assert split_sentences(text, guard) == split_sentences_by_scanning(text, guard)

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
