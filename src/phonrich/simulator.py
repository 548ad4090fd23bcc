"""Synthetic speaker-embedding generator with richness-dependent within-speaker noise."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .inventory import ARPABET_39
from .lexicon import Lexicon, presence_vector, transcribe
from .metrics import Qmfs, Trials
from .protocols import ProtocolSpec
from .richness import count_unique, quality_measures

# substream tags so per-entity RNG draws are order-independent
_SPEAKER_STREAM = 1
_MODEL_STREAM = 2
_TEST_STREAM = 3

# trials per matmul of cosine_score, two (chunk, dim) gathers of 256 KiB each at dim 32, and rows per
# addition of the speaker means to the noise
SCORE_CHUNK = 1 << 10


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
    qmfs: Qmfs  # richness.quality_measures of the tests (cu, net_speech, lns), in sorted test-id order


def _draws(n: int, dim: int, seed: int, stream: int) -> np.ndarray:
    """An (n, dim) matrix whose row idx is drawn from default_rng([seed, stream, idx]), so no row
    depends on the order in which the others are drawn."""
    rows = np.empty((n, dim))
    for idx, row in enumerate(rows):
        np.random.default_rng([seed, stream, idx]).standard_normal(out=row)
    return rows


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows``, each divided in place by its norm: the square root of its stacked product with itself,
    as cosine_score takes it, equal bit for bit to np.linalg.norm of the row."""
    rows /= np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0]
    return rows


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

    models, tests = protocol.models, protocol.tests
    speakers = {spk: idx for idx, spk in enumerate(sorted(set(models["speaker_id"]) | set(tests["speaker_id"])))}
    means = _unit_rows(_draws(len(speakers), dim, seed, _SPEAKER_STREAM))

    # embeddings are drawn in sorted-id order; a trial finds its rows by their rank
    trials = protocol.trials()
    model_order = sorted(range(len(trials.models)), key=trials.models.__getitem__)
    test_order = sorted(range(len(trials.tests)), key=trials.tests.__getitem__)

    def embeddings(table, order, sigmas, stream) -> np.ndarray:
        """Row idx: its speaker's mean plus noise of norm about sigmas[idx], scaled to unit norm."""
        rows = _draws(len(order), dim, seed, stream)
        rows *= (sigmas / np.sqrt(dim))[:, None]  # per-component scale sigma/sqrt(dim), so ||noise|| is about sigma
        speaker_rows = np.array([speakers[table["speaker_id"][row]] for row in order], dtype=np.intp)
        for start in range(0, len(rows), SCORE_CHUNK):  # a chunk of gathered means at a time, not a second matrix
            rows[start:start + SCORE_CHUNK] += means[speaker_rows[start:start + SCORE_CHUNK]]
        return _unit_rows(rows)

    model_matrix = embeddings(models, model_order, np.full(len(model_order), sigma0 / 4.0), _MODEL_STREAM)
    codes, lengths, _, _ = transcribe([tests["transcript"][row] for row in test_order], lexicon)
    presence = presence_vector(codes, lengths, [tests["test_id"][row] for row in test_order])
    qmfs = quality_measures(presence, net_speech=dict(zip(tests["test_id"], tests["net_speech"])))
    test_matrix = embeddings(tests, test_order, sigma0 * (1.0 + kappa * (n_phonemes - count_unique(presence))
                                                          / n_phonemes), _TEST_STREAM)

    scores = cosine_score(model_matrix, test_matrix, np.argsort(model_order)[trials.model_codes],
                          np.argsort(test_order)[trials.test_codes])
    return SimResult(model_matrix, test_matrix, replace(trials, scores=scores), qmfs)
