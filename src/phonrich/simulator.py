"""Synthetic speaker-embedding generator with richness-dependent within-speaker noise."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .inventory import ARPABET_39
from .lexicon import Lexicon, presence_vector, transcribe
from .calibration import log_net_speech
from .metrics import Qmfs, Trials
from .protocols import ProtocolSpec
from .richness import count_unique

# substream tags so per-entity RNG draws are order-independent
_SPEAKER_STREAM = 1
_MODEL_STREAM = 2
_TEST_STREAM = 3

SCORE_CHUNK = 1 << 12  # trials per matmul of cosine_score: two (chunk, dim) gathers, 1 MiB each at dim 32


def cosine_score(models: np.ndarray, tests: np.ndarray, model_rows: np.ndarray,
                 test_rows: np.ndarray) -> np.ndarray:
    """Per trial k, the dot product of unit rows models[model_rows[k]] and tests[test_rows[k]].

    A stack of (1, dim) @ (dim, 1) products, each equal bit for bit to the
    vector product ``models[i] @ tests[j]``; a row-wise einsum or
    multiply-and-sum rounds differently in the last bits. Rows of unequal
    length raise a ValueError. The trials are scored SCORE_CHUNK at a time,
    so the gathered rows take memory that does not grow with the trial count.
    """
    scores = np.empty(len(model_rows))
    for start in range(0, len(scores), SCORE_CHUNK):
        part = slice(start, start + SCORE_CHUNK)
        scores[part] = np.matmul(models[model_rows[part]][:, None, :],
                                 tests[test_rows[part]][:, :, None])[:, 0, 0]
    return scores


@dataclass
class SimResult:
    models: np.ndarray  # unit rows, one per model in sorted model-id order
    tests: np.ndarray  # unit rows, one per test in sorted test-id order
    trials: Trials
    qmfs: Qmfs  # cu, lns and net_speech of each test, in sorted test-id order


def _unit(v: np.ndarray) -> np.ndarray:
    # a norm that overflows fails: v / inf would be a zero vector, scoring 0 against everything
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        raise ValueError(f"an embedding's norm is {norm:g}, not a finite number > 0: "
                         f"--sigma0 or --kappa is too large")
    return v / norm


def _noisy_embedding(mean: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    # per-component scale sigma/sqrt(dim), so ||noise|| is about sigma
    noise = rng.standard_normal(mean.shape[0]) * (sigma / np.sqrt(mean.shape[0]))
    return _unit(mean + noise)


def simulate_corpus(protocol: ProtocolSpec, lexicon: Lexicon, sigma0: float, kappa: float, seed: int,
                    dim: int) -> SimResult:
    """Score a protocol with synthetic ``dim``-dimensional embeddings.

    Each speaker gets a mean direction uniform on the unit sphere. Test
    embeddings perturb the mean with isotropic noise whose scale grows as
    phonetic richness drops: sigma(CU) = sigma0 * (1 + kappa*(39-CU)/39),
    39 being the size of ARPABET_39.
    Enrollment models use sigma0/4. ``lexicon`` transcribes the tests'
    transcripts. All draws come from seed-derived per-entity substreams, so
    generation order does not matter.
    """
    n_phonemes = len(ARPABET_39)

    speakers = sorted({m.speaker_id for m in protocol.models} |
                      {t.speaker_id for t in protocol.tests})
    means = {}
    for idx, spk in enumerate(speakers):
        rng = np.random.default_rng([seed, _SPEAKER_STREAM, idx])
        means[spk] = _unit(rng.standard_normal(dim))

    # embeddings are drawn in sorted-id order; a trial finds its rows by their rank
    trials = protocol.trials()
    model_order = sorted(range(len(trials.models)), key=trials.models.__getitem__)
    test_order = sorted(range(len(trials.tests)), key=trials.tests.__getitem__)

    models = [protocol.models[i] for i in model_order]
    model_matrix = np.array([
        _noisy_embedding(means[m.speaker_id], sigma0 / 4.0,
                         np.random.default_rng([seed, _MODEL_STREAM, idx]))
        for idx, m in enumerate(models)], dtype=float).reshape(-1, dim)

    tests = [protocol.tests[i] for i in test_order]
    cus = count_unique(presence_vector([transcribe(t.transcript, lexicon, t.test_id)
                                        for t in tests])).tolist()
    test_vectors = []
    for idx, (t, cu) in enumerate(zip(tests, cus)):
        sigma = sigma0 * (1.0 + kappa * (n_phonemes - cu) / n_phonemes)
        rng = np.random.default_rng([seed, _TEST_STREAM, idx])
        test_vectors.append(_noisy_embedding(means[t.speaker_id], sigma, rng))
    net_speech = [t.net_speech for t in tests]
    qmfs = Qmfs.from_columns([t.test_id for t in tests], {
        "cu": cus, "net_speech": net_speech, "lns": list(map(log_net_speech, net_speech))})
    test_matrix = np.array(test_vectors, dtype=float).reshape(-1, dim)

    scores = cosine_score(model_matrix, test_matrix, np.argsort(model_order)[trials.model_codes],
                          np.argsort(test_order)[trials.test_codes])
    return SimResult(model_matrix, test_matrix, replace(trials, scores=scores), qmfs)
