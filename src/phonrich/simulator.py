"""Synthetic speaker-embedding generator with richness-dependent within-speaker noise."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inventory import PhonemeInventory
from .lexicon import Lexicon, presence_vector, transcribe
from .calibration import log_net_speech
from .metrics import Trials
from .protocols import ProtocolSpec
from .richness import count_unique

# substream tags so per-entity RNG draws are order-independent
_SPEAKER_STREAM = 1
_MODEL_STREAM = 2
_TEST_STREAM = 3


@dataclass
class SimConfig:
    n_speakers: int
    sigma0: float
    kappa: float
    seed: int
    vocabulary: dict[str, tuple[str, ...]]
    dim: int = 32

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be > 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


@dataclass
class Embedding:
    vector: np.ndarray
    utterance_id: str = ""

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)
        norm = np.linalg.norm(self.vector)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"embedding {self.utterance_id!r} is not unit-norm (|v| = {norm})")


def cosine_score(a: Embedding, b: Embedding) -> float:
    """Dot product of unit vectors, in [-1, 1]."""
    if a.vector.shape != b.vector.shape:
        raise ValueError("embedding dimension mismatch")
    return float(a.vector @ b.vector)


@dataclass
class SimResult:
    model_embeddings: dict[str, Embedding]
    test_embeddings: dict[str, Embedding]
    trials: Trials
    qmfs: dict[str, dict[str, float]]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _noisy_embedding(mean: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    # per-component scale sigma/sqrt(dim), so ||noise|| is about sigma
    noise = rng.standard_normal(mean.shape[0]) * (sigma / np.sqrt(mean.shape[0]))
    return _unit(mean + noise)


def simulate_corpus(config: SimConfig, protocol: ProtocolSpec) -> SimResult:
    """Score a protocol with synthetic embeddings.

    Each speaker gets a mean direction uniform on the unit sphere. Test
    embeddings perturb the mean with isotropic noise whose scale grows as
    phonetic richness drops: sigma(CU) = sigma0 * (1 + kappa*(39-CU)/39).
    Enrollment models use sigma0/4. All draws come from seed-derived
    per-entity substreams, so generation order does not matter.
    """
    inventory = PhonemeInventory()
    lexicon = Lexicon.from_entries(dict(config.vocabulary), inventory)

    speakers = sorted({m.speaker_id for m in protocol.models} |
                      {t.speaker_id for t in protocol.tests})
    means = {}
    for idx, spk in enumerate(speakers):
        rng = np.random.default_rng([config.seed, _SPEAKER_STREAM, idx])
        means[spk] = _unit(rng.standard_normal(config.dim))

    model_embeddings = {}
    for idx, m in enumerate(sorted(protocol.models, key=lambda m: m.model_id)):
        rng = np.random.default_rng([config.seed, _MODEL_STREAM, idx])
        vec = _noisy_embedding(means[m.speaker_id], config.sigma0 / 4.0, rng)
        model_embeddings[m.model_id] = Embedding(vec, m.model_id)

    test_embeddings = {}
    qmfs = {}
    for idx, t in enumerate(sorted(protocol.tests, key=lambda t: t.test_id)):
        trans = transcribe(t.transcript, lexicon, t.test_id)
        cu = count_unique(presence_vector(trans, inventory))
        sigma = config.sigma0 * (1.0 + config.kappa * (39 - cu) / 39.0)
        rng = np.random.default_rng([config.seed, _TEST_STREAM, idx])
        vec = _noisy_embedding(means[t.speaker_id], sigma, rng)
        test_embeddings[t.test_id] = Embedding(vec, t.test_id)
        qmfs[t.test_id] = {
            "cu": float(cu),
            "net_speech": float(t.net_speech),
            "lns": log_net_speech(t.net_speech),
        }

    pairs = protocol.positive_trials + protocol.negative_trials
    trials = Trials([m_id for m_id, _ in pairs], [t_id for _, t_id in pairs],
                    np.arange(len(pairs)) < len(protocol.positive_trials),
                    [cosine_score(model_embeddings[m_id], test_embeddings[t_id]) for m_id, t_id in pairs])
    return SimResult(model_embeddings, test_embeddings, trials, qmfs)
