import numpy as np
import pytest
from hypothesis import given, strategies as st

from phonrich.inventory import ARPABET_39, PHONEME_INDEX, PresenceVector
from phonrich.io import RowError
from phonrich.data import DEMO_VOCABULARY, demo_lexicon_lines
from phonrich.lexicon import PhonemeTranscription, load_lexicon, presence_vector, tokenize, transcribe

from conftest import EXPECTED_PRONUNCIATIONS

phoneme_seqs = st.lists(st.sampled_from(ARPABET_39), max_size=60)


class TestLoadLexicon:
    def test_stress_stripping(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("CAT  K AE1 T\n")
        lex = load_lexicon(path)
        assert lex["cat"] == ("K", "AE", "T")

    def test_empty_file_gives_empty_lexicon(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("")
        lex = load_lexicon(path)
        assert len(lex) == 0
        assert transcribe("anything", lex).oov_words == 1

    def test_bad_symbol_names_line_and_symbol(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("CAT  K AE1 T\nFOO  K QX T\n")
        with pytest.raises(ValueError, match=r"lex.txt:2.*'QX'"):
            load_lexicon(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("JUSTAWORD\n")
        with pytest.raises(ValueError, match="malformed"):
            load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.txt"):
            load_lexicon(tmp_path / "nope.txt")

    def test_first_listed_variant_kept(self, lexicon_file):
        lex = load_lexicon(lexicon_file)
        assert lex["hello"] == ("HH", "AH", "L", "OW")

    def test_bad_symbol_on_a_variant_line_names_its_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("HELLO  HH AH0 L OW1\nHELLO(1)  HH QX L OW1\n")
        with pytest.raises(ValueError, match=r"lex.txt:2.*'QX'"):
            load_lexicon(path)

    def test_no_digits_survive(self, lexicon_file):
        lex = load_lexicon(lexicon_file)
        for pron in lex.values():
            assert not any(any(c.isdigit() for c in sym) for sym in pron)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(";;; a comment\nCAT  K AE1 T\n")
        assert len(load_lexicon(path)) == 1

    def test_hand_verified_words(self, lexicon_file):
        lex = load_lexicon(lexicon_file)
        for word, pron in EXPECTED_PRONUNCIATIONS.items():
            assert lex[word] == pron, word


class TestDemoVocabulary:
    def test_words_are_lower_case_and_symbols_in_the_inventory(self):
        for word, pron in DEMO_VOCABULARY.items():
            assert word and word == word.lower(), word
            assert set(pron) <= set(ARPABET_39), word

    def test_is_what_load_lexicon_reads_from_its_dictionary_text(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text(demo_lexicon_lines())
        assert load_lexicon(path) == DEMO_VOCABULARY


class TestTranscribe:
    def test_simple_lookup(self):
        lex = {"cat": ("K", "AE", "T")}
        trans = transcribe("cat", lex)
        assert trans.phonemes == ("K", "AE", "T")
        assert trans.oov_words == 0

    def test_empty_text(self):
        lex = {"cat": ("K", "AE", "T")}
        trans = transcribe("", lex)
        assert trans.phonemes == ()
        assert trans.oov_words == 0

    def test_oov_counted_not_fatal(self):
        lex = {"cat": ("K", "AE", "T")}
        trans = transcribe("zzqq cat", lex)
        assert trans.phonemes == ("K", "AE", "T")
        assert trans.oov_words == 1
        assert trans.words == 2

    def test_punctuation_only_fields_are_not_words(self):
        trans = transcribe("cat -- zzz !!", {"cat": ("K", "AE", "T")})
        assert (trans.oov_words, trans.words) == (1, 2)

    def test_first_pronunciation_used(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("HELLO  HH AH0 L OW1\nHELLO(1)  HH EH0 L OW1\n")
        assert transcribe("hello", load_lexicon(path)).phonemes == ("HH", "AH", "L", "OW")

    def test_case_and_punctuation(self):
        lex = {"cat": ("K", "AE", "T"), "don't": ("D", "OW", "N", "T")}
        trans = transcribe('"Cat, DON\'T!!"', lex)
        assert trans.phonemes == ("K", "AE", "T", "D", "OW", "N", "T")
        assert trans.oov_words == 0

    def test_deterministic(self):
        lex = {"cat": ("K", "AE", "T"), "dog": ("D", "AO", "G")}
        a = transcribe("cat dog cat", lex)
        b = transcribe("cat dog cat", lex)
        assert a == b

    def test_tokenize_keeps_internal_apostrophe(self):
        assert tokenize("don't 'quoted'") == ["don't", "quoted"]


def presence_bits(phonemes):
    """The presence row of one transcription."""
    return presence_vector([PhonemeTranscription("u", tuple(phonemes))]).bits[0]


class TestPresenceVector:
    def test_empty_is_all_zero(self):
        assert presence_bits(()).sum() == 0

    def test_repeats_collapse(self):
        bits = presence_bits(("K", "AE", "T", "K"))
        assert bits.sum() == 3
        for sym in ("K", "AE", "T"):
            assert bits[PHONEME_INDEX[sym]] == 1

    def test_saturation(self):
        assert presence_bits(ARPABET_39).sum() == 39

    @given(phoneme_seqs, st.sampled_from(ARPABET_39))
    def test_idempotent_under_repetition(self, seq, extra):
        base = presence_bits(tuple(seq) + (extra,))
        doubled = presence_bits(tuple(seq) + (extra, extra))
        assert np.array_equal(base, doubled)

    @given(phoneme_seqs, phoneme_seqs)
    def test_concat_is_elementwise_or(self, a, b):
        pa = presence_bits(a)
        pb = presence_bits(b)
        pab = presence_bits(tuple(a) + tuple(b))
        assert np.array_equal(pab, pa | pb)

    @given(st.lists(phoneme_seqs, max_size=12))
    def test_one_row_per_transcription_in_order(self, seqs):
        transcriptions = [PhonemeTranscription(f"u{i}", tuple(seq)) for i, seq in enumerate(seqs)]
        pv = presence_vector(transcriptions)
        assert pv.utterance_ids == [t.utterance_id for t in transcriptions]
        expected = [[int(sym in seq) for sym in ARPABET_39] for seq in seqs]
        assert pv.bits.dtype == np.int8
        assert pv.bits.reshape(len(seqs), 39).tolist() == expected

    def test_no_transcriptions_give_an_empty_int8_matrix(self):
        pv = presence_vector([])
        assert (pv.bits.shape, pv.bits.dtype, pv.utterance_ids) == ((0, 39), np.int8, [])

    def test_unknown_symbol_names_the_utterance(self):
        with pytest.raises(ValueError, match=r"u2: phoneme 'XX' is not an ARPABET-39 symbol"):
            presence_vector([PhonemeTranscription("u1", ("K",)), PhonemeTranscription("u2", ("T", "XX"))])


class TestInventory:
    def test_exactly_39_symbols(self):
        assert len(set(ARPABET_39)) == len(ARPABET_39) == 39
        assert list(ARPABET_39) == sorted(ARPABET_39)
        assert PHONEME_INDEX == {sym: i for i, sym in enumerate(ARPABET_39)}

    def test_bitstring_round_trip(self):
        rng = np.random.default_rng(12)
        P = (rng.random((5000, 39)) < rng.random((5000, 1))).astype(np.int8)
        P[0], P[1] = 0, 1
        ids = [f"u{i}" for i in range(len(P))]
        pv = PresenceVector.from_bitstring(PresenceVector(P, ids).to_bitstring(), ids)
        assert np.array_equal(pv.bits, P)
        assert pv.bits.dtype == np.int8
        assert pv.utterance_ids == ids

    def test_bitstrings_equal_a_per_row_reference(self):
        rng = np.random.default_rng(13)
        P = (rng.random((5000, 39)) < rng.random((5000, 1))).astype(np.int8)
        strings = PresenceVector(P, [""] * len(P)).to_bitstring()
        assert strings == ["".join(str(int(b)) for b in row) for row in P]

    def test_empty_file(self):
        pv = PresenceVector.from_bitstring([], [])
        assert pv.bits.shape == (0, 39)
        assert pv.to_bitstring() == []

    @pytest.mark.parametrize("bad, message", [
        ("0" * 38, "bits must have 39 characters, got 38"),
        ("0" * 40, "bits must have 39 characters, got 40"),
        ("0" * 38 + "2", "bits must be 0s and 1s, got '" + "0" * 38 + "2'"),
        ("0" * 38 + " ", "bits must be 0s and 1s, got '" + "0" * 38 + " '"),
        ("0" * 38 + "\u00e9", "bits must be 0s and 1s, got '" + "0" * 38 + "\u00e9'"),
    ], ids=["short", "long", "digit-2", "space", "non-ascii"])
    def test_first_bad_bitstring_names_its_row(self, bad, message):
        good = "01" * 19 + "0"
        with pytest.raises(RowError) as exc:
            PresenceVector.from_bitstring([good, good, bad, bad], ["a", "b", "c", "d"])
        assert exc.value.row == 2
        assert str(exc.value) == message
