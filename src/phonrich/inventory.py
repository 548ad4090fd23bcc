"""The fixed 39-symbol phoneme inventory and the presence matrix of a file's utterances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        """One row per string of 39 '0'/'1' characters, as io.iter_jsonl checks a presence file's bits."""
        data = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8)
        bits = (data.reshape(len(strings), len(ARPABET_39)) - ord("0")).view(np.int8)
        return cls(bits, list(utterance_ids))
