"""Pronunciation-dictionary lookup: transcripts to phoneme sequences and presence vectors."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .inventory import ARPABET_39, PHONEME_INDEX, PresenceVector
from .io import text_lines

_STRESS_RE = re.compile(r"^([A-Z]+)([0-2])$")
_VARIANT_RE = re.compile(r"^(.*)\((\d+)\)$")
# edges lose all non-alphanumerics; internal apostrophes ("don't") survive
_EDGE_STRIP_RE = re.compile(r"^[^a-z0-9]+|[^a-z0-9]+$")


class LexiconError(ValueError):
    """Raised for unreadable or malformed dictionary files."""


def strip_stress(symbol: str) -> str:
    m = _STRESS_RE.match(symbol)
    return m.group(1) if m else symbol


@dataclass
class Lexicon:
    """Immutable word-to-pronunciations map over the ARPABET_39 symbols."""

    entries: dict[str, list[tuple[str, ...]]]

    def lookup(self, word: str) -> list[tuple[str, ...]]:
        return self.entries.get(word.lower(), [])

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_entries(cls, entries: dict[str, list[tuple[str, ...]] | tuple[str, ...] | list[str]]) -> "Lexicon":
        """Build a lexicon from in-memory word -> pronunciation(s) pairs."""
        normalized: dict[str, list[tuple[str, ...]]] = {}
        for word, prons in entries.items():
            if prons and isinstance(prons[0], str):
                prons = [prons]
            variants = []
            for pron in prons:
                pron = tuple(strip_stress(p.upper()) for p in pron)
                for sym in pron:
                    if sym not in PHONEME_INDEX:
                        raise LexiconError(f"symbol {sym!r} for word {word!r} not in inventory")
                variants.append(pron)
            normalized[word.lower()] = variants
        return cls(normalized)


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a CMU-dictionary-style text file.

    One entry per line: ``WORD  PH1 PH2 ...``. Variant entries carry a
    ``(n)`` suffix on the word and are kept under the base key, in file
    order. Stress digits 0-2 are stripped from symbols. Lines starting
    with ``;;;`` are comments.
    """
    path = Path(path)
    try:
        lines = text_lines(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon file {path}: {exc}") from exc

    entries: dict[str, list[tuple[str, ...]]] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith(";;;"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise LexiconError(f"{path}:{lineno}: malformed line (need word and pronunciation)")
        word = parts[0]
        m = _VARIANT_RE.match(word)
        if m:
            word = m.group(1)
        pron = []
        for raw in parts[1:]:
            sym = strip_stress(raw.upper())
            if sym not in PHONEME_INDEX:
                raise LexiconError(f"{path}:{lineno}: symbol {raw!r} not in inventory after stress stripping")
            pron.append(sym)
        entries.setdefault(word.lower(), []).append(tuple(pron))
    return Lexicon(entries)


@dataclass
class PhonemeTranscription:
    """Phoneme sequence for one utterance plus its out-of-vocabulary word count."""

    utterance_id: str
    phonemes: tuple[str, ...]
    oov_words: int = 0


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric edge characters."""
    tokens = []
    for raw in text.lower().split():
        tok = _EDGE_STRIP_RE.sub("", raw)
        if tok:
            tokens.append(tok)
    return tokens


def transcribe(text: str, lexicon: Lexicon, utterance_id: str = "") -> PhonemeTranscription:
    """Look up each word's first-listed pronunciation; OOV words are counted, not fatal."""
    phonemes: list[str] = []
    oov = 0
    for word in tokenize(text):
        prons = lexicon.lookup(word)
        if prons:
            phonemes.extend(prons[0])
        else:
            oov += 1
    return PhonemeTranscription(utterance_id, tuple(phonemes), oov)


def phoneme_codes(transcriptions: list[PhonemeTranscription]) -> tuple[np.ndarray, np.ndarray]:
    """ARPABET_39 index of every phoneme token, and the row of the transcription it is in.

    A symbol outside ARPABET_39 raises a ValueError naming its utterance.
    """
    lengths = np.fromiter((len(t.phonemes) for t in transcriptions), dtype=np.intp,
                          count=len(transcriptions))
    tokens = [sym for t in transcriptions for sym in t.phonemes]
    codes = np.fromiter(map(PHONEME_INDEX.get, tokens, repeat(-1)), dtype=np.intp, count=len(tokens))
    rows = np.repeat(np.arange(len(transcriptions)), lengths)
    if codes.size and codes.min() < 0:
        k = int(np.argmin(codes))
        raise ValueError(f"{transcriptions[rows[k]].utterance_id}: phoneme {tokens[k]!r} "
                         f"is not an ARPABET-39 symbol")
    return codes, rows


def presence_vector(transcriptions: list[PhonemeTranscription]) -> PresenceVector:
    """Row u, component i is 1 iff ARPABET_39[i] occurs in transcription u."""
    codes, rows = phoneme_codes(transcriptions)
    bits = np.zeros((len(transcriptions), len(ARPABET_39)), dtype=np.int8)
    bits[rows, codes] = 1
    return PresenceVector(bits, [t.utterance_id for t in transcriptions])
