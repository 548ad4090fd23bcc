"""Pronunciation-dictionary lookup: transcripts to phoneme sequences and presence vectors."""

from __future__ import annotations

import re
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .inventory import ARPABET_39, PHONEME_INDEX, PresenceVector
from .io import numbered_lines

_STRESS_RE = re.compile(r"^([A-Z]+)([0-2])$")
_VARIANT_RE = re.compile(r"^(.*)\((\d+)\)$")
# edges lose all non-alphanumerics; internal apostrophes ("don't") survive
_EDGE_STRIP_RE = re.compile(r"^[^a-z0-9]+|[^a-z0-9]+$")


# lower-case word -> its first-listed, stress-free ARPABET_39 pronunciation
Lexicon = dict[str, tuple[str, ...]]


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a CMU-dictionary-style text file.

    One entry per line: ``WORD  PH1 PH2 ...``. Words are lower-cased and
    stress digits 0-2 are stripped from symbols. A word keeps its
    first-listed pronunciation; later variant lines, whose word carries a
    ``(n)`` suffix, are checked but not kept. Lines starting with ``;;;``
    are comments.
    """
    lexicon: Lexicon = {}
    for lineno, line in numbered_lines(path, errors="replace"):
        line = line.strip()
        if not line or line.startswith(";;;"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: malformed line (need word and pronunciation)")
        word = _VARIANT_RE.sub(r"\1", parts[0])  # a variant's word without its (n)
        pron = tuple(_STRESS_RE.sub(r"\1", raw.upper()) for raw in parts[1:])  # each without its stress digit
        if (bad := next((raw for raw, sym in zip(parts[1:], pron) if sym not in PHONEME_INDEX), None)) is not None:
            raise ValueError(f"{path}:{lineno}: symbol {bad!r} not in inventory after stress stripping")
        lexicon.setdefault(word.lower(), pron)
    return lexicon


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric edge characters."""
    return [token for token in (_EDGE_STRIP_RE.sub("", raw) for raw in text.lower().split()) if token]


def transcribe(texts: list[str], lexicon: Lexicon) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The words of every text (see tokenize) looked up in one pass: the ARPABET_39 code of each phoneme
    token, text after text, and per text its phoneme-token count, out-of-vocabulary word count and word
    count. A word's phonemes are its first-listed pronunciation; an OOV word is counted, not fatal.

    Each distinct raw token (a whitespace-separated field of a text) is lower-cased, stripped and
    looked up once. The texts are split again for each column, so one text's tokens are held at a time.
    """
    distinct = dict.fromkeys(chain.from_iterable(map(str.split, texts)))
    words = [_EDGE_STRIP_RE.sub("", token.lower()) for token in distinct]
    prons = [lexicon.get(word, ()) if word else () for word in words]

    def per_text(tallies) -> np.ndarray:
        """Per text, the sum over its raw tokens of their tallies, given one per distinct raw token."""
        tally = dict(zip(distinct, tallies)).__getitem__
        return np.fromiter(map(sum, map(map, repeat(tally), map(str.split, texts))), dtype=np.int64, count=len(texts))

    pron_of = dict(zip(distinct, prons)).__getitem__
    return (phoneme_codes(map(pron_of, chain.from_iterable(map(str.split, texts)))), per_text(map(len, prons)),
            per_text(bool(word) and not pron for word, pron in zip(words, prons)), per_text(map(bool, words)))


def phoneme_codes(phonemes) -> np.ndarray:
    """The ARPABET_39 index of every symbol of some sequences of symbols, one sequence after another."""
    return np.fromiter(map(PHONEME_INDEX.__getitem__, chain.from_iterable(phonemes)), dtype=np.uint8)


def presence_vector(codes: np.ndarray, lengths: np.ndarray, utterance_ids: list[str]) -> PresenceVector:
    """Row u, component i is 1 iff ARPABET_39[i] is among the ``lengths[u]`` codes of utterance u, which
    follow those of the utterances before it in ``codes``."""
    bits = np.zeros((len(lengths), len(ARPABET_39)), dtype=np.int8)
    bits[np.repeat(np.arange(len(lengths)), lengths), codes] = 1
    return PresenceVector(bits, list(utterance_ids))
