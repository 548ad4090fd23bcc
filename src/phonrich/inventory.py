"""The fixed 39-symbol phoneme inventory and per-utterance presence vectors."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stress-free ARPABET symbols of the CMU pronouncing dictionary, alphabetized
# so vector indices are stable across runs.
ARPABET_39 = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH",
    "EH", "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K",
    "L", "M", "N", "NG", "OW", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
)


@dataclass(frozen=True)
class PhonemeInventory:
    """Ordered phoneme alphabet defining the axes of presence vectors."""

    symbols: tuple[str, ...] = ARPABET_39

    def __post_init__(self):
        if len(self.symbols) != 39:
            raise ValueError(f"inventory must have exactly 39 symbols, got {len(self.symbols)}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("inventory symbols must be unique")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in inventory") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    @classmethod
    def from_file(cls, path: str | Path) -> "PhonemeInventory":
        """Load an inventory override: one symbol per line, blank lines ignored."""
        symbols = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                symbols.append(line.upper())
        return cls(tuple(symbols))


@dataclass
class PresenceVector:
    """Binary indicator of which inventory phonemes occur in one utterance."""

    bits: np.ndarray
    utterance_id: str = ""

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int8)
        if self.bits.ndim != 1 or self.bits.shape[0] != 39:
            raise ValueError(f"presence vector must have length 39, got shape {self.bits.shape}")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise ValueError("presence vector components must be 0 or 1")

    def to_bitstring(self) -> str:
        return "".join(str(int(b)) for b in self.bits)

    @classmethod
    def from_bitstring(cls, s: str, utterance_id: str = "") -> "PresenceVector":
        return cls(np.array([int(c) for c in s], dtype=np.int8), utterance_id)
