"""Phonetic-richness quality measures and score calibration for speaker verification."""

__version__ = "0.1.0"
