"""The fixed 39-symbol phoneme inventory and per-utterance presence vectors."""

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
    """Binary indicator of which ARPABET_39 phonemes occur in one utterance."""

    bits: np.ndarray
    utterance_id: str = ""

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int8)
        if self.bits.ndim != 1 or self.bits.shape[0] != len(ARPABET_39):
            raise ValueError(f"presence vector must have length {len(ARPABET_39)}, "
                             f"got shape {self.bits.shape}")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise ValueError("presence vector components must be 0 or 1")

    def to_bitstring(self) -> str:
        return "".join(str(int(b)) for b in self.bits)

    @classmethod
    def from_bitstring(cls, s: str, utterance_id: str = "") -> "PresenceVector":
        return cls(np.array([int(c) for c in s], dtype=np.int8), utterance_id)
