"""Synthetic speaker-embedding generator with richness-dependent within-speaker noise."""

from __future__ import annotations

from collections.abc import Iterator
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
# addition of the speaker means to the noise and per seeding pass of substreams
SCORE_CHUNK = 1 << 10

# numpy's SeedSequence hash constants and pool size, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _POOL, _PCG_MULT = 0xca01f9dd, 0x4973f715, 4, 0x2360ed051fc65da44385df649fccf645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix of a uint32 column, its hash constant carried from call to call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        return value ^ value >> 16
    return hashmix


def substreams(seed: int, stream: int, rows: range) -> Iterator[np.random.Generator]:
    """For each idx in ``rows``, one Generator, its PCG64 state set anew to that of
    np.random.default_rng([seed, stream, idx]) (seed, stream >= 0, idx < 2**32): take a row's draws before
    the next. SCORE_CHUNK rows at a time, SeedSequence's entropy pool and generate_state(4, uint64) are
    worked out as uint32 columns, whose arithmetic wraps as SeedSequence's does, and PCG64's seeding step
    in 128-bit ints; numpy's stream-compatibility policy (NEP 19) keeps both as they are.
    """
    rng = np.random.default_rng()
    # seed and stream as SeedSequence takes them: 32-bit words, least significant first, [0] for 0
    head = [n >> shift & 0xFFFFFFFF for n in (seed, stream) for shift in range(0, max(n.bit_length(), 1), 32)]
    for start in range(0, len(rows), SCORE_CHUNK):
        idx = np.asarray(rows[start:start + SCORE_CHUNK], dtype=np.uint32)
        entropy = [np.full(len(idx), word, dtype=np.uint32) for word in head] + [idx]
        entropy += [np.zeros_like(idx)] * (_POOL - len(entropy))
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in entropy[:_POOL]]
        for src in range(len(entropy)):  # the pool words into each other, then the entropy words past the pool
            for dst in range(_POOL):
                if src != dst:
                    mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src] if src < _POOL else entropy[src])
                    pool[dst] = mixed ^ mixed >> 16
        hashmix = _hasher(_INIT_B, _MULT_B)
        state = [hashmix(pool[k % _POOL]).astype(np.uint64) for k in range(8)]
        halves = [(state[k] | state[k + 1] << 32).tolist() for k in range(0, 8, 2)]
        for high, low, seq_high, seq_low in zip(*halves):
            inc = ((seq_high << 64 | seq_low) << 1 | 1) & ((1 << 128) - 1)
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
                "state": ((inc + (high << 64 | low)) * _PCG_MULT + inc) & ((1 << 128) - 1), "inc": inc}}
            yield rng


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
    """An (n, dim) matrix whose row idx is standard normals from substream [seed, stream, idx]."""
    rows = np.empty((n, dim))
    for row, rng in zip(rows, substreams(seed, stream, range(n))):
        rng.standard_normal(out=row)
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
