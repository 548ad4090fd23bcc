from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phonrich.inventory import ARPABET_39, PHONEME_INDEX, PresenceVector
from phonrich.data import DEMO_VOCABULARY
from phonrich.lexicon import load_lexicon, phoneme_codes, presence_vector, tokenize, transcribe

from conftest import EXPECTED_PRONUNCIATIONS, demo_lexicon_lines

phoneme_seqs = st.lists(st.sampled_from(ARPABET_39), max_size=60)


def transcribed(texts, lexicon):
    """Per text: (its phonemes, OOV words, words), from one transcribe call over all the texts."""
    codes, lengths, oov_words, words = transcribe(texts, lexicon)
    symbols = [ARPABET_39[code] for code in codes.tolist()]
    ends = np.cumsum(lengths).tolist()
    return [(tuple(symbols[end - n:end]), oov, n_words)
            for end, n, oov, n_words in zip(ends, lengths.tolist(), oov_words.tolist(), words.tolist())]


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
        assert transcribed(["anything"], lex) == [((), 1, 1)]

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


LEXICON = {"cat": ("K", "AE", "T"), "dog": ("D", "AO", "G"), "don't": ("D", "OW", "N", "T")}
CAT, DONT = ("K", "AE", "T"), ("D", "OW", "N", "T")
# (text, its phonemes, its OOV words, its words) under LEXICON
TRANSCRIPTS = [
    ("cat", CAT, 0, 1),
    ("", (), 0, 0),
    ("zzqq cat", CAT, 1, 2),
    ("cat -- zzz !!", CAT, 1, 2),  # fields of punctuation alone are not words
    ('"Cat, DON\'T!!"', CAT + DONT, 0, 2),
    ('(cat) dog "Cat, cat cat', CAT + ("D", "AO", "G") + CAT * 3, 0, 5),
    ("Zzqq, zzqq (zzqq) -- dog", ("D", "AO", "G"), 3, 4),
    ("don't 'don't' DON'T, dont", DONT * 3, 1, 4),
]


class TestTranscribe:
    def test_one_call_agrees_with_each_text_alone(self):
        """A raw token that one text holds is looked up once for all; each text keeps its own counts."""
        texts = [text for text, *_ in TRANSCRIPTS]
        expected = [tuple(counts) for _, *counts in TRANSCRIPTS]
        assert [transcribed([text], LEXICON)[0] for text in texts] == expected
        assert transcribed(texts, LEXICON) == expected
        assert transcribed(texts[::-1] * 2, LEXICON) == expected[::-1] * 2

    @settings(max_examples=200)
    @example(["aΣ-t aΣt cİt, (aς-T) I", "aΣ-"])
    @given(st.lists(st.text(alphabet="catdogn'-\"(),. \t\n\u00a0\u2028ΣσςİI", max_size=24), max_size=6))
    def test_agrees_with_the_definition_over_tokenize(self, texts):
        """Lower-casing each raw token, not the whole text, finds the same words: a capital sigma lower-cases
        by its context (final "ς" or "σ"), and a dotted capital I to two characters."""
        lexicon = {**LEXICON, "aς-t": ("T",), "aσt": ("S",), "ci\u0307t": ("IY",), "i": ("AY",)}
        expected = []
        for text in texts:
            prons = [lexicon.get(word) for word in tokenize(text)]
            expected.append((tuple(chain.from_iterable(filter(None, prons))), sum(not p for p in prons), len(prons)))
        assert transcribed(texts, lexicon) == expected

    def test_simple_lookup(self):
        assert transcribed(["cat"], {"cat": CAT}) == [(CAT, 0, 1)]

    def test_empty_text(self):
        assert transcribed([""], {"cat": CAT}) == [((), 0, 0)]

    def test_empty_texts_among_others(self):
        """A text with no raw token counts zero of each, wherever it stands, and every count is an integer."""
        codes, *counts = transcribe(["", "cat zzqq", "", " ", "cat", ""], {"cat": CAT})
        assert codes.dtype == np.uint8 and [column.dtype for column in counts] == [np.int64] * 3
        assert [column.tolist() for column in counts] == [[0, 3, 0, 0, 3, 0], [0, 1, 0, 0, 0, 0], [0, 2, 0, 0, 1, 0]]

    def test_oov_counted_not_fatal(self):
        assert transcribed(["zzqq cat"], {"cat": CAT}) == [(CAT, 1, 2)]

    def test_punctuation_only_fields_are_not_words(self):
        assert transcribed(["cat -- zzz !!"], {"cat": CAT}) == [(CAT, 1, 2)]

    def test_case_and_punctuation(self):
        assert transcribed(['"Cat, DON\'T!!"'], {"cat": CAT, "don't": DONT}) == [(CAT + DONT, 0, 2)]

    def test_no_texts(self):
        codes, lengths, oov_words, words = transcribe([], LEXICON)
        assert [len(codes), len(lengths), len(oov_words), len(words)] == [0, 0, 0, 0]

    def test_first_pronunciation_used(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("HELLO  HH AH0 L OW1\nHELLO(1)  HH EH0 L OW1\n")
        assert transcribed(["hello"], load_lexicon(path)) == [(("HH", "AH", "L", "OW"), 0, 1)]

    def test_deterministic(self):
        a = transcribe(["cat dog cat", "dog"], LEXICON)
        b = transcribe(["cat dog cat", "dog"], LEXICON)
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_tokenize_keeps_internal_apostrophe(self):
        assert tokenize("don't 'quoted'") == ["don't", "quoted"]


def presence_bits(phonemes):
    """The presence row of one transcription."""
    return presence_vector(phoneme_codes([phonemes]), [len(phonemes)], ["u"]).bits[0]


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
        ids = [f"u{i}" for i in range(len(seqs))]
        pv = presence_vector(phoneme_codes(seqs), list(map(len, seqs)), ids)
        assert pv.utterance_ids == ids
        expected = [[int(sym in seq) for sym in ARPABET_39] for seq in seqs]
        assert pv.bits.dtype == np.int8
        assert pv.bits.reshape(len(seqs), 39).tolist() == expected

    def test_no_transcriptions_give_an_empty_int8_matrix(self):
        pv = presence_vector(phoneme_codes([]), [], [])
        assert (pv.bits.shape, pv.bits.dtype, pv.utterance_ids) == ((0, 39), np.int8, [])


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
