"""Evaluation-protocol generators: random-clip and repetitive word-concatenation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from sys import intern

import numpy as np

from .io import iter_jsonl, read_trial_table, write_jsonl, write_trial_table
from .metrics import Trials, encode_ids

MAX_PROBE_REDRAWS = 20
MAX_CLIP_WORDS = 10_000  # a clip window grows a word per step: tiny word durations would never end it
# keys, with their JSON types, that load_protocol reads from each manifest and models
# record and load_inventory_jsonl from each corpus record
MANIFEST_KEYS = {"test_id": "string", "speaker_id": "string", "transcript": "string",
                 "net_speech": "number", "source_ids": "list"}
MODEL_KEYS = {"model_id": "string", "speaker_id": "string", "net_speech": "number", "source_ids": "list"}
CORPUS_KEYS = {"utterance_id": "string", "speaker_id": "string", "kind": "string", "net_speech": "number"}
# keys a corpus record may hold, with their JSON types
CORPUS_OPTIONAL_KEYS = {"transcript": "string", "word_text": "string", "repetition_index": "integer",
                        "gender": "string", "word_durations": "list of numbers or null"}
CORPUS_KINDS = ("sentence", "word", "digit", "free")


@dataclass
class UtteranceRecord:
    """One source recording in the corpus inventory."""

    utterance_id: str
    speaker_id: str
    kind: str  # one of CORPUS_KINDS
    net_speech: float
    transcript: str
    word_text: str = ""
    repetition_index: int = 0
    gender: str = ""
    word_durations: list[float] | None = None


@dataclass
class ProbeEntry:
    """A synthesized test probe: source recordings in concatenation order."""

    test_id: str
    speaker_id: str
    transcript: str
    net_speech: float
    source_ids: list[str]
    gender: str = ""


@dataclass
class ModelRecord:
    """One enrollment model: all of a speaker's enrollment recordings."""

    model_id: str
    speaker_id: str
    net_speech: float
    source_ids: list[str]
    transcript: str = ""
    gender: str = ""


@dataclass
class ProtocolSpec:
    """Trials as (n, 2) intp arrays of (row in ``models``, row in ``tests``) pairs."""

    positive_trials: np.ndarray
    negative_trials: np.ndarray
    tests: list[ProbeEntry]
    models: list[ModelRecord]

    def trials(self) -> Trials:
        """The trials as a table over the model and test ids, positives first, with no scores."""
        pairs = np.concatenate([self.positive_trials, self.negative_trials])
        return Trials([m.model_id for m in self.models], [t.test_id for t in self.tests], pairs[:, 0],
                      pairs[:, 1], np.arange(len(pairs)) < len(self.positive_trials), None)


def build_enrollment(inventory: list[UtteranceRecord], source: str = "") -> list[ModelRecord]:
    """One model per speaker from all of that speaker's sentence recordings. A refusal that concerns
    the whole corpus, here or in a protocol builder, names ``source``, the corpus file, if given."""
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in inventory:
        if rec.kind == "sentence":
            by_speaker.setdefault(rec.speaker_id, []).append(rec)
    if not by_speaker:
        where = f"{source}: " if source else ""
        raise ValueError(f"{where}no sentence recordings to enroll from")
    models = []
    for spk in sorted(by_speaker):
        recs = sorted(by_speaker[spk], key=lambda r: r.utterance_id)
        models.append(ModelRecord(
            model_id=spk,
            speaker_id=spk,
            net_speech=sum(r.net_speech for r in recs),
            source_ids=[r.utterance_id for r in recs],
            transcript=" ".join(r.transcript for r in recs),
            gender=recs[0].gender,
        ))
    return models


def _clip_window(rec: UtteranceRecord, target: float, rng: np.random.Generator):
    """Pick a start word index and extend until the summed duration reaches target.

    When the whole utterance is long enough the window stays contiguous
    (no wraparound) and the start is uniform over the starts whose suffix
    can still reach the target; otherwise the word sequence is logically
    repeated end-to-end and any start is valid. A window that would take
    more than MAX_CLIP_WORDS words fails, naming the utterance.
    """
    durations = rec.word_durations
    n = len(durations)
    if sum(durations) >= target:
        suffix = np.cumsum(durations[::-1])[::-1]
        valid = [s for s in range(n) if suffix[s] >= target]
        start = valid[rng.integers(len(valid))]
    else:
        start = int(rng.integers(n))
    idx = []
    acc = 0.0
    i = start
    while acc < target:
        if len(idx) == MAX_CLIP_WORDS:
            raise ValueError(f"{rec.utterance_id}: a {target:g} s clip would take more than "
                             f"{MAX_CLIP_WORDS} words")
        idx.append(i % n)
        acc += durations[i % n]
        i += 1
    return idx


def build_clip_protocol(inventory: list[UtteranceRecord], target: float, seed: int,
                        base_trials: str | Path | None = None, source: str = "") -> ProtocolSpec:
    """Fixed-duration protocol: one random word-boundary clip per base test, each sentence and
    free recording of the inventory, of ``target`` seconds (a finite number > 0).

    Clips are realized as contiguous word subsequences (with end-to-end
    repetition when the utterance is shorter than the target), so net
    speech and transcript of each clip are fully determined by the chosen
    word window. ``base_trials`` is an optional trial list over the base
    utterance ids; its trials are joined onto the clips and onto the
    enrollment models of the base sentences (see join_trials). ``source``: see build_enrollment.
    """
    where = f"{source}: " if source else ""
    base = [r for r in inventory if r.kind in ("sentence", "free")]
    if not base:
        raise ValueError(f"{where}empty base utterance list")
    rng = np.random.default_rng(seed)
    tests = []
    for rec in sorted(base, key=lambda r: r.utterance_id):
        words = rec.transcript.split()
        if not words:
            raise ValueError(f"{where}{rec.utterance_id}: utterance has no words")
        durations = rec.word_durations
        if durations is None or len(durations) != len(words):
            raise ValueError(f"{where}{rec.utterance_id}: word_durations must align with transcript words")
        idx = _clip_window(rec, target, rng)
        tests.append(ProbeEntry(
            test_id=f"{rec.utterance_id}@{target:g}s",
            speaker_id=rec.speaker_id,
            transcript=" ".join(words[i] for i in idx),
            net_speech=float(sum(durations[i] for i in idx)),
            source_ids=[rec.utterance_id],
            gender=rec.gender,
        ))
    if base_trials is None:
        return ProtocolSpec(np.empty((0, 2), np.intp), np.empty((0, 2), np.intp), tests, [])
    return join_trials(base_trials, tests, build_enrollment(inventory, source),
                       [t.source_ids[0] for t in tests])


def _draw_probe(word_types: list[str], reps: dict[str, list[UtteranceRecord]],
                rng: np.random.Generator):
    """One repetitive probe: T total words, U unique, distinct recordings per slot."""
    for _ in range(MAX_PROBE_REDRAWS):
        total = int(rng.integers(2, 11))
        unique = int(rng.integers(1, min(10, total) + 1))
        if unique > len(word_types):
            continue
        # draws over indices, not the strings, which numpy would copy into an array on each call
        types = rng.choice(len(word_types), size=unique, replace=False).tolist()
        slots = types + [types[i] for i in rng.choice(unique, size=total - unique, replace=True).tolist()]
        slots = [word_types[slots[i]] for i in rng.permutation(total)]
        need = Counter(slots)
        if any(len(reps[w]) < k for w, k in need.items()):
            continue
        # per word type, pick distinct repetition recordings, then hand them
        # out to that type's slots in order
        picks = {w: iter([reps[w][i] for i in rng.choice(len(reps[w]), size=need[w], replace=False)])
                 for w in sorted(need)}
        return [next(picks[w]) for w in slots]
    raise ValueError("could not assemble a probe: a word type has too few repetition recordings")


def build_repetitive_protocol(inventory: list[UtteranceRecord], n_probes_per_speaker: int, seed: int,
                              negatives_per_probe: int | None = None, source: str = "") -> ProtocolSpec:
    """Word-concatenation protocol with independently controlled length and diversity: probes
    of the inventory's word recordings, models of its sentences.

    Each probe concatenates T ~ uniform{2..10} single-word recordings over
    U ~ uniform{1..T} distinct word types; every repeated slot consumes a
    distinct repetition recording. Negative trials pair each probe with
    all other matching-gender models, optionally subsampled to
    ``negatives_per_probe`` with the same seed stream. ``source``: see build_enrollment.
    """
    where = f"{source}: " if source else ""
    models = build_enrollment(inventory, source)
    model_row = {m.speaker_id: row for row, m in enumerate(models)}

    by_speaker: dict[str, dict[str, list[UtteranceRecord]]] = {}
    for rec in inventory:
        if rec.kind == "word":
            by_speaker.setdefault(rec.speaker_id, {}).setdefault(rec.word_text, []).append(rec)
    for spk, types in by_speaker.items():
        if spk not in model_row:
            raise ValueError(f"{where}speaker {spk} has word recordings but no enrollment sentences")
        for w in types:
            types[w] = sorted(types[w], key=lambda r: r.repetition_index)

    rng = np.random.default_rng(seed)
    tests = []
    positive = []
    for spk in sorted(by_speaker):
        reps = by_speaker[spk]
        word_types = sorted(reps)
        gender = models[model_row[spk]].gender
        for j in range(n_probes_per_speaker):
            try:
                recs = _draw_probe(word_types, reps, rng)
            except ValueError as exc:
                fewest = min(word_types, key=lambda w: len(reps[w]))
                raise ValueError(f"{where}speaker {spk}: {exc} ({fewest!r} has {len(reps[fewest])})") from None
            test_id = f"{spk}_probe{j:05d}"
            positive.append((model_row[spk], len(tests)))
            tests.append(ProbeEntry(
                test_id=test_id,
                speaker_id=spk,
                transcript=" ".join(r.word_text for r in recs),
                net_speech=float(sum(r.net_speech for r in recs)),
                source_ids=[r.utterance_id for r in recs],
                gender=gender,
            ))

    rows_by_gender: dict[str, list[int]] = {}
    for row, m in enumerate(models):
        rows_by_gender.setdefault(m.gender, []).append(row)
    negative_models, negative_tests = [], []
    for row, t in enumerate(tests):
        impostors = [i for i in rows_by_gender.get(t.gender, []) if models[i].speaker_id != t.speaker_id]
        if negatives_per_probe is not None and len(impostors) > negatives_per_probe:
            chosen = rng.choice(len(impostors), size=negatives_per_probe, replace=False)
            impostors = [impostors[i] for i in sorted(chosen)]
        negative_models += impostors
        negative_tests += [row] * len(impostors)

    return ProtocolSpec(np.array(positive, dtype=np.intp).reshape(-1, 2),
                        np.array([negative_models, negative_tests], dtype=np.intp).T, tests, models)


def emit_trials(spec: ProtocolSpec, trials_path: str | Path, manifest_path: str | Path,
                models_path: str | Path, provenance: str | None = None) -> None:
    """Write the trial TSV and manifest/models JSONL; byte-stable for a given spec.

    A model or test whose net_speech is not finite (a sum of recordings
    that overflowed) fails, naming it, before any file is written.
    """
    bad = next((r for r in chain(spec.models, spec.tests) if not math.isfinite(r.net_speech)), None)
    if bad is not None:
        name = f"model {bad.model_id}" if isinstance(bad, ModelRecord) else f"test {bad.test_id}"
        raise ValueError(f"{name}: net_speech of its recordings sums to {bad.net_speech}, "
                         f"not a finite number")
    write_trial_table(trials_path, spec.trials(), provenance)
    # one key per field; write_jsonl sorts the keys
    write_jsonl(manifest_path, map(vars, spec.tests), provenance)
    write_jsonl(models_path, map(vars, spec.models), provenance)


def join_trials(path: str | Path, tests: list[ProbeEntry], models: list[ModelRecord],
                test_keys: list[str] | None = None) -> ProtocolSpec:
    """The trial list at ``path`` joined onto ``tests`` and ``models``, and checked.

    A trial names its model by model id and its test by ``test_keys``
    (default: the test ids), one key per test. The spec holds the
    positives in file order, then the negatives. A trial that names an
    unknown id, then a target trial across two speakers or a nontarget
    trial within one, fails with the file and line; of each kind, the
    first in file order is named.
    """
    trials, lines = read_trial_table(path)
    model_row = {m.model_id: row for row, m in enumerate(models)}
    test_row = dict(zip(test_keys if test_keys is not None else [t.test_id for t in tests],
                        range(len(tests))))
    pairs = np.column_stack([
        np.array([model_row.get(m, -1) for m in trials.models], dtype=np.intp)[trials.model_codes],
        np.array([test_row.get(t, -1) for t in trials.tests], dtype=np.intp)[trials.test_codes]])
    unknown = (pairs < 0).any(axis=1)
    if unknown.any():
        row = int(np.argmax(unknown))
        m, t = pairs[row].tolist()
        m_id = trials.models[trials.model_codes[row]]
        # a known test is named as the spec holds it: a clip by its clip id
        t_id = tests[t].test_id if t >= 0 else trials.tests[trials.test_codes[row]]
        raise ValueError(f"{path}:{lines[row]}: trial ({m_id}, {t_id}) names an unknown "
                         f"{'model' if m < 0 else 'test'}")
    _, speakers = encode_ids([m.speaker_id for m in models] + [t.speaker_id for t in tests])
    wrong = (speakers[pairs[:, 0]] == speakers[len(models) + pairs[:, 1]]) != trials.is_target
    if wrong.any():
        row = int(np.argmax(wrong))
        m_id, t_id = models[pairs[row, 0]].model_id, tests[pairs[row, 1]].test_id
        raise ValueError(f"{path}:{lines[row]}: " + (
            f"positive trial ({m_id}, {t_id}) crosses speakers" if trials.is_target[row] else
            f"negative trial ({m_id}, {t_id}) pairs a speaker with itself"))
    return ProtocolSpec(pairs[trials.is_target], pairs[~trials.is_target], tests, models)


def load_protocol(trials_path: str | Path, manifest_path: str | Path,
                  models_path: str | Path) -> ProtocolSpec:
    """Manifest, models and trial list as one validated spec (see join_trials).

    A test id repeated in the manifest, or a model id in the models file,
    fails at its second record with the file and line.
    """
    tests = [ProbeEntry(r["test_id"], r["speaker_id"], r["transcript"], r["net_speech"],
                       list(r["source_ids"]), r.get("gender", ""))
             for _, r in iter_jsonl(manifest_path, required=MANIFEST_KEYS, unique="test_id")]
    models = [ModelRecord(r["model_id"], r["speaker_id"], r["net_speech"],
                          list(r["source_ids"]), r.get("transcript", ""), r.get("gender", ""))
              for _, r in iter_jsonl(models_path, required=MODEL_KEYS, unique="model_id")]
    return join_trials(trials_path, tests, models)


def load_inventory_jsonl(path: str | Path) -> list[UtteranceRecord]:
    """Utterance inventory JSONL -> records (see README for the field list).

    Records are built as the file streams in, and the strings that repeat
    from record to record are shared through sys.intern. A record of an
    unknown kind, with net_speech <= 0, a word recording with
    repetition_index < 1 or a word duration <= 0 fails with the file and line.
    """
    records = []
    for lineno, rec in iter_jsonl(path, required=CORPUS_KEYS, unique="utterance_id",
                                  optional=CORPUS_OPTIONAL_KEYS):
        kind, rep, durations = rec["kind"], rec.get("repetition_index", 0), rec.get("word_durations")
        short = next((d for d in durations or () if not d > 0), None)  # a clip would never reach its target
        error = (f"kind must be one of {'|'.join(CORPUS_KINDS)}, got {kind!r}" if kind not in CORPUS_KINDS else
                 "net_speech must be > 0" if rec["net_speech"] <= 0 else
                 "word recordings need repetition_index >= 1" if kind == "word" and rep < 1 else
                 f"word_durations must be > 0, got {short}" if short is not None else None)
        if error:
            raise ValueError(f"{path}:{lineno}: {rec['utterance_id']}: {error}")
        records.append(UtteranceRecord(
            rec["utterance_id"], intern(rec["speaker_id"]), intern(kind), float(rec["net_speech"]),
            intern(rec.get("transcript", "")), intern(rec.get("word_text", "")), rep,
            intern(rec.get("gender", "")), durations))
    return records
