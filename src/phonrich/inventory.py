"""The fixed 39-symbol phoneme inventory and the presence matrix of a file's utterances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import RowError

# Stress-free ARPABET symbols of the CMU pronouncing dictionary, alphabetized
# so vector indices are stable across runs.
ARPABET_39 = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH",
    "EH", "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K",
    "L", "M", "N", "NG", "OW", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
)
# symbol -> its axis in presence vectors and weight vectors
PHONEME_INDEX = {sym: i for i, sym in enumerate(ARPABET_39)}


@dataclass
class PresenceVector:
    """Presence vectors of a file's utterances, one per row of an (n, 39) int8 matrix.

    Component i of row u is 1 iff ARPABET_39[i] occurs in utterance
    ``utterance_ids[u]``.
    """

    bits: np.ndarray
    utterance_ids: list[str]

    def to_bitstring(self) -> list[str]:
        """Each row as a string of 39 '0'/'1' characters."""
        n = len(ARPABET_39)
        text = (self.bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        return [text[i:i + n] for i in range(0, len(text), n)]

    @classmethod
    def from_bitstring(cls, strings: list[str], utterance_ids: list[str]) -> "PresenceVector":
        """Parse one bitstring per utterance; the first bad one raises a RowError."""
        n = len(ARPABET_39)
        lengths = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
        if np.any(lengths != n):
            row = int(np.argmax(lengths != n))
            raise RowError(row, f"bits must have {n} characters, got {lengths[row]}")
        # a non-ASCII character becomes '?', one byte, so every row stays n bytes
        data = "".join(strings).encode("ascii", errors="replace")
        bits = (np.frombuffer(data, dtype=np.uint8).reshape(len(strings), n) - ord("0")).view(np.int8)
        bad = (bits != 0) & (bits != 1)
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            raise RowError(row, f"bits must be 0s and 1s, got {strings[row]!r}")
        return cls(bits, list(utterance_ids))
