import numpy as np
import pytest
from hypothesis import given, strategies as st

from phonrich.inventory import ARPABET_39, PHONEME_INDEX, PresenceVector
from phonrich.lexicon import (Lexicon, LexiconError, PhonemeTranscription, load_lexicon,
                              presence_vector, tokenize, transcribe)

from conftest import EXPECTED_PRONUNCIATIONS

phoneme_seqs = st.lists(st.sampled_from(ARPABET_39), max_size=60)


def make_lexicon(entries):
    return Lexicon.from_entries(entries)


class TestLoadLexicon:
    def test_stress_stripping(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("CAT  K AE1 T\n")
        lex = load_lexicon(path)
        assert lex.lookup("cat") == [("K", "AE", "T")]

    def test_empty_file_gives_empty_lexicon(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("")
        lex = load_lexicon(path)
        assert len(lex) == 0
        assert transcribe("anything", lex).oov_words == 1

    def test_bad_symbol_names_line_and_symbol(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("CAT  K AE1 T\nFOO  K QX T\n")
        with pytest.raises(LexiconError, match=r"lex.txt:2.*'QX'"):
            load_lexicon(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("JUSTAWORD\n")
        with pytest.raises(LexiconError, match="malformed"):
            load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconError):
            load_lexicon(tmp_path / "nope.txt")

    def test_variants_kept_under_base_word(self, lexicon_file):
        lex = load_lexicon(lexicon_file)
        assert lex.lookup("hello") == [("HH", "AH", "L", "OW"), ("HH", "EH", "L", "OW")]

    def test_no_digits_survive(self, lexicon_file):
        lex = load_lexicon(lexicon_file)
        for prons in lex.entries.values():
            for pron in prons:
                assert not any(any(c.isdigit() for c in sym) for sym in pron)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(";;; a comment\nCAT  K AE1 T\n")
        assert len(load_lexicon(path)) == 1

    def test_hand_verified_words(self, lexicon_file):
        lex = load_lexicon(lexicon_file)
        for word, pron in EXPECTED_PRONUNCIATIONS.items():
            assert lex.lookup(word)[0] == pron, word


class TestTranscribe:
    def test_simple_lookup(self):
        lex = make_lexicon({"cat": ("K", "AE", "T")})
        trans = transcribe("cat", lex)
        assert trans.phonemes == ("K", "AE", "T")
        assert trans.oov_words == 0

    def test_empty_text(self):
        lex = make_lexicon({"cat": ("K", "AE", "T")})
        trans = transcribe("", lex)
        assert trans.phonemes == ()
        assert trans.oov_words == 0

    def test_oov_counted_not_fatal(self):
        lex = make_lexicon({"cat": ("K", "AE", "T")})
        trans = transcribe("zzqq cat", lex)
        assert trans.phonemes == ("K", "AE", "T")
        assert trans.oov_words == 1

    def test_first_pronunciation_used(self):
        lex = make_lexicon({"hello": [("HH", "AH", "L", "OW"), ("HH", "EH", "L", "OW")]})
        assert transcribe("hello", lex).phonemes == ("HH", "AH", "L", "OW")

    def test_case_and_punctuation(self):
        lex = make_lexicon({"cat": ("K", "AE", "T"), "don't": ("D", "OW", "N", "T")})
        trans = transcribe('"Cat, DON\'T!!"', lex)
        assert trans.phonemes == ("K", "AE", "T", "D", "OW", "N", "T")
        assert trans.oov_words == 0

    def test_deterministic(self):
        lex = make_lexicon({"cat": ("K", "AE", "T"), "dog": ("D", "AO", "G")})
        a = transcribe("cat dog cat", lex)
        b = transcribe("cat dog cat", lex)
        assert a == b

    def test_tokenize_keeps_internal_apostrophe(self):
        assert tokenize("don't 'quoted'") == ["don't", "quoted"]


class TestPresenceVector:
    def test_empty_is_all_zero(self):
        pv = presence_vector(PhonemeTranscription("u", ()))
        assert pv.bits.sum() == 0

    def test_repeats_collapse(self):
        pv = presence_vector(PhonemeTranscription("u", ("K", "AE", "T", "K")))
        assert pv.bits.sum() == 3
        for sym in ("K", "AE", "T"):
            assert pv.bits[PHONEME_INDEX[sym]] == 1

    def test_saturation(self):
        pv = presence_vector(PhonemeTranscription("u", ARPABET_39))
        assert pv.bits.sum() == 39

    @given(phoneme_seqs, st.sampled_from(ARPABET_39))
    def test_idempotent_under_repetition(self, seq, extra):
        base = presence_vector(PhonemeTranscription("u", tuple(seq) + (extra,)))
        doubled = presence_vector(PhonemeTranscription("u", tuple(seq) + (extra, extra)))
        assert np.array_equal(base.bits, doubled.bits)

    @given(phoneme_seqs, phoneme_seqs)
    def test_concat_is_elementwise_or(self, a, b):
        pa = presence_vector(PhonemeTranscription("a", tuple(a)))
        pb = presence_vector(PhonemeTranscription("b", tuple(b)))
        pab = presence_vector(PhonemeTranscription("ab", tuple(a) + tuple(b)))
        assert np.array_equal(pab.bits, pa.bits | pb.bits)


class TestInventory:
    def test_exactly_39_symbols(self):
        assert len(set(ARPABET_39)) == len(ARPABET_39) == 39
        assert list(ARPABET_39) == sorted(ARPABET_39)
        assert PHONEME_INDEX == {sym: i for i, sym in enumerate(ARPABET_39)}

    def test_bitstring_round_trip(self):
        bits = np.zeros(39, dtype=np.int8)
        bits[[0, 5, 38]] = 1
        pv = PresenceVector(bits, "u")
        assert np.array_equal(PresenceVector.from_bitstring(pv.to_bitstring(), "u").bits, bits)
