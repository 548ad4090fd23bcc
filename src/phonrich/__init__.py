"""Phonetic-richness quality measures and score calibration for speaker verification."""

__version__ = "0.1.0"

from .inventory import ARPABET_39, PresenceVector
from .lexicon import Lexicon, PhonemeTranscription, load_lexicon, presence_vector, transcribe
from .richness import RichnessWeights, count_unique, fit_weights, weighted_count_unique
from .metrics import Trials, compute_eer, compute_min_c_primary, kendall_tau
from .calibration import CalibrationModel, apply_lr, cross_validated_calibration, fit_lr
