"""Pronunciation-dictionary lookup: transcripts to phoneme sequences and presence vectors."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
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


@dataclass
class PhonemeTranscription:
    """Phoneme sequence for one utterance, its out-of-vocabulary word count and its word count."""

    utterance_id: str
    phonemes: tuple[str, ...]
    oov_words: int = 0
    words: int = 0  # the tokens looked up, out-of-vocabulary ones included


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric edge characters."""
    return [token for token in (_EDGE_STRIP_RE.sub("", raw) for raw in text.lower().split()) if token]


def transcribe(text: str, lexicon: Lexicon, utterance_id: str = "") -> PhonemeTranscription:
    """Look up each word's first-listed pronunciation; OOV words are counted, not fatal."""
    prons = [lexicon.get(word) for word in tokenize(text)]
    return PhonemeTranscription(utterance_id, tuple(chain.from_iterable(filter(None, prons))),
                                sum(not pron for pron in prons), len(prons))


def phoneme_codes(transcriptions: list[PhonemeTranscription]) -> tuple[np.ndarray, np.ndarray]:
    """ARPABET_39 index of every phoneme token, and the row of the transcription it is in."""
    lengths = np.fromiter((len(t.phonemes) for t in transcriptions), dtype=np.intp, count=len(transcriptions))
    tokens = [sym for t in transcriptions for sym in t.phonemes]
    codes = np.fromiter(map(PHONEME_INDEX.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    return codes, np.repeat(np.arange(len(transcriptions)), lengths)


def presence_vector(transcriptions: list[PhonemeTranscription]) -> PresenceVector:
    """Row u, component i is 1 iff ARPABET_39[i] occurs in transcription u."""
    codes, rows = phoneme_codes(transcriptions)
    bits = np.zeros((len(transcriptions), len(ARPABET_39)), dtype=np.int8)
    bits[rows, codes] = 1
    return PresenceVector(bits, [t.utterance_id for t in transcriptions])
