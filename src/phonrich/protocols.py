"""Evaluation-protocol generators: random-clip and repetitive word-concatenation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import data_line, read_jsonl, read_tsv, write_jsonl, write_tsv
from .metrics import NONTARGET, TARGET

MAX_PROBE_REDRAWS = 20
TRIAL_COLUMNS = ["model_id", "test_id", "label"]
# keys, with their JSON types, that load_protocol reads from each manifest and models
# record and load_inventory_jsonl from each corpus record
MANIFEST_KEYS = {"test_id": "string", "speaker_id": "string", "transcript": "string",
                 "net_speech": "number", "source_ids": "list"}
MODEL_KEYS = {"model_id": "string", "speaker_id": "string", "net_speech": "number", "source_ids": "list"}
CORPUS_KEYS = {"utterance_id": "string", "speaker_id": "string", "kind": "string", "net_speech": "number"}


@dataclass
class UtteranceRecord:
    """One source recording in the corpus inventory."""

    utterance_id: str
    speaker_id: str
    kind: str  # sentence | word | digit | free
    net_speech: float
    transcript: str
    word_text: str = ""
    repetition_index: int = 0
    gender: str = ""
    word_durations: list[float] | None = None

    def __post_init__(self):
        if self.net_speech <= 0:
            raise ValueError(f"{self.utterance_id}: net_speech must be > 0")
        if self.kind == "word" and self.repetition_index < 1:
            raise ValueError(f"{self.utterance_id}: word recordings need repetition_index >= 1")


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
    positive_trials: list[tuple[str, str]]
    negative_trials: list[tuple[str, str]]
    tests: list[ProbeEntry]
    models: list[ModelRecord]

    def validate(self) -> None:
        speaker_of_model = {m.model_id: m.speaker_id for m in self.models}
        speaker_of_test = {t.test_id: t.speaker_id for t in self.tests}
        pos = set(self.positive_trials)
        neg = set(self.negative_trials)
        if pos & neg:
            raise ValueError("positive and negative trial lists overlap")
        for m_id, t_id in self.positive_trials + self.negative_trials:
            if m_id not in speaker_of_model or t_id not in speaker_of_test:
                unknown = "model" if m_id not in speaker_of_model else "test"
                raise ValueError(f"trial ({m_id}, {t_id}) names an unknown {unknown}")
        for m_id, t_id in self.positive_trials:
            if speaker_of_model[m_id] != speaker_of_test[t_id]:
                raise ValueError(f"positive trial ({m_id}, {t_id}) crosses speakers")
        for m_id, t_id in self.negative_trials:
            if speaker_of_model[m_id] == speaker_of_test[t_id]:
                raise ValueError(f"negative trial ({m_id}, {t_id}) pairs a speaker with itself")


def build_enrollment(sentences: list[UtteranceRecord]) -> list[ModelRecord]:
    """One model per speaker from all of that speaker's sentence recordings."""
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in sentences:
        if rec.kind != "sentence":
            continue
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    if not by_speaker:
        raise ValueError("no sentence recordings to enroll from")
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


def _clip_window(durations: list[float], target: float, rng: np.random.Generator):
    """Pick a start word index and extend until the summed duration reaches target.

    When the whole utterance is long enough the window stays contiguous
    (no wraparound) and the start is uniform over the starts whose suffix
    can still reach the target; otherwise the word sequence is logically
    repeated end-to-end and any start is valid.
    """
    n = len(durations)
    total = sum(durations)
    if total >= target:
        suffix = np.cumsum(durations[::-1])[::-1]
        valid = [s for s in range(n) if suffix[s] >= target]
        start = valid[rng.integers(len(valid))]
        idx = []
        acc = 0.0
        i = start
        while acc < target:
            idx.append(i)
            acc += durations[i]
            i += 1
        return idx
    start = int(rng.integers(n))
    idx = []
    acc = 0.0
    i = start
    while acc < target:
        idx.append(i % n)
        acc += durations[i % n]
        i += 1
    return idx


def build_clip_protocol(base: list[UtteranceRecord], target: float, seed: int,
                        trials: list[tuple[str, str, str]] | None = None,
                        models: list[ModelRecord] | None = None) -> ProtocolSpec:
    """Fixed-duration protocol: one random word-boundary clip per base test.

    Clips are realized as contiguous word subsequences (with end-to-end
    repetition when the utterance is shorter than the target), so net
    speech and transcript of each clip are fully determined by the chosen
    word window. ``trials`` is an optional passthrough list of
    (model_id, test_id, label) rows over the base utterance ids, as
    ``read_trials`` returns them.
    """
    if target <= 0:
        raise ValueError("target duration must be > 0")
    if not base:
        raise ValueError("empty base utterance list")
    rng = np.random.default_rng(seed)
    tests = []
    id_map = {}
    for rec in sorted(base, key=lambda r: r.utterance_id):
        words = rec.transcript.split()
        if not words:
            raise ValueError(f"{rec.utterance_id}: utterance has no words")
        durations = rec.word_durations
        if durations is None or len(durations) != len(words):
            raise ValueError(f"{rec.utterance_id}: word_durations must align with transcript words")
        idx = _clip_window(durations, target, rng)
        clip_id = f"{rec.utterance_id}@{target:g}s"
        id_map[rec.utterance_id] = clip_id
        tests.append(ProbeEntry(
            test_id=clip_id,
            speaker_id=rec.speaker_id,
            transcript=" ".join(words[i] for i in idx),
            net_speech=float(sum(durations[i] for i in idx)),
            source_ids=[rec.utterance_id],
            gender=rec.gender,
        ))
    positive, negative = [], []
    for m_id, t_id, label in trials or []:
        pair = (m_id, id_map.get(t_id, t_id))  # an unknown id is reported by validate()
        (positive if label == TARGET else negative).append(pair)
    return ProtocolSpec(positive, negative, tests, models or [])


def _draw_probe(word_types: list[str], reps: dict[str, list[UtteranceRecord]],
                rng: np.random.Generator):
    """One repetitive probe: T total words, U unique, distinct recordings per slot."""
    for _ in range(MAX_PROBE_REDRAWS):
        total = int(rng.integers(2, 11))
        unique = int(rng.integers(1, min(10, total) + 1))
        if unique > len(word_types):
            continue
        types = list(rng.choice(word_types, size=unique, replace=False))
        slots = list(types)
        extra = rng.choice(types, size=total - unique, replace=True)
        slots.extend(extra)
        perm = rng.permutation(total)
        slots = [slots[i] for i in perm]
        need: dict[str, int] = {}
        for w in slots:
            need[w] = need.get(w, 0) + 1
        if any(len(reps[w]) < k for w, k in need.items()):
            continue
        # per word type, pick distinct repetition recordings, then hand them
        # out to that type's slots in order
        picks = {}
        for w in sorted(need):
            chosen = rng.choice(len(reps[w]), size=need[w], replace=False)
            picks[w] = [reps[w][i] for i in chosen]
        used = {w: 0 for w in need}
        recs = []
        for w in slots:
            recs.append(picks[w][used[w]])
            used[w] += 1
        return recs
    raise ValueError("could not assemble a probe: a word type has too few repetition recordings")


def build_repetitive_protocol(words: list[UtteranceRecord], sentences: list[UtteranceRecord],
                              n_probes_per_speaker: int, seed: int,
                              negatives_per_probe: int | None = None) -> ProtocolSpec:
    """Word-concatenation protocol with independently controlled length and diversity.

    Each probe concatenates T ~ uniform{2..10} single-word recordings over
    U ~ uniform{1..T} distinct word types; every repeated slot consumes a
    distinct repetition recording. Negative trials pair each probe with
    all other matching-gender models, optionally subsampled to
    ``negatives_per_probe`` with the same seed stream.
    """
    models = build_enrollment(sentences)
    model_by_speaker = {m.speaker_id: m for m in models}

    by_speaker: dict[str, dict[str, list[UtteranceRecord]]] = {}
    for rec in words:
        if rec.kind != "word":
            continue
        by_speaker.setdefault(rec.speaker_id, {}).setdefault(rec.word_text, []).append(rec)
    for spk, types in by_speaker.items():
        if spk not in model_by_speaker:
            raise ValueError(f"speaker {spk} has word recordings but no enrollment sentences")
        for w in types:
            types[w] = sorted(types[w], key=lambda r: r.repetition_index)

    rng = np.random.default_rng(seed)
    tests = []
    positive = []
    for spk in sorted(by_speaker):
        reps = by_speaker[spk]
        word_types = sorted(reps)
        gender = model_by_speaker[spk].gender
        for j in range(n_probes_per_speaker):
            recs = _draw_probe(word_types, reps, rng)
            test_id = f"{spk}_probe{j:05d}"
            tests.append(ProbeEntry(
                test_id=test_id,
                speaker_id=spk,
                transcript=" ".join(r.word_text for r in recs),
                net_speech=float(sum(r.net_speech for r in recs)),
                source_ids=[r.utterance_id for r in recs],
                gender=gender,
            ))
            positive.append((spk, test_id))

    models_by_gender: dict[str, list[ModelRecord]] = {}
    for m in models:
        models_by_gender.setdefault(m.gender, []).append(m)
    negative = []
    for t in tests:
        impostors = [m.model_id for m in models_by_gender.get(t.gender, [])
                     if m.speaker_id != t.speaker_id]
        if negatives_per_probe is not None and len(impostors) > negatives_per_probe:
            chosen = rng.choice(len(impostors), size=negatives_per_probe, replace=False)
            impostors = [impostors[i] for i in sorted(chosen)]
        negative.extend((m_id, t.test_id) for m_id in impostors)

    return ProtocolSpec(positive, negative, tests, models)


def emit_trials(spec: ProtocolSpec, trials_path: str | Path, manifest_path: str | Path,
                models_path: str | Path | None = None, provenance: str | None = None) -> None:
    """Write the trial TSV and manifest/models JSONL; byte-stable for a given spec."""
    spec.validate()
    rows = [(m, t, TARGET) for m, t in spec.positive_trials]
    rows += [(m, t, NONTARGET) for m, t in spec.negative_trials]
    write_tsv(trials_path, TRIAL_COLUMNS, rows, provenance)
    write_jsonl(manifest_path, [
        {"test_id": t.test_id, "speaker_id": t.speaker_id, "transcript": t.transcript,
         "net_speech": t.net_speech, "source_ids": t.source_ids, "gender": t.gender}
        for t in spec.tests
    ], provenance)
    if models_path is not None:
        write_jsonl(models_path, [
            {"model_id": m.model_id, "speaker_id": m.speaker_id, "net_speech": m.net_speech,
             "source_ids": m.source_ids, "transcript": m.transcript, "gender": m.gender}
            for m in spec.models
        ], provenance)


def read_trials(path: str | Path) -> list[tuple[str, str, str]]:
    """Trial TSV -> (model_id, test_id, label) rows.

    A wrong header, a row with other than three fields, a label other
    than target/nontarget or a repeated (model_id, test_id) fails with
    the file and line.
    """
    header, rows = read_tsv(path)

    def fail(row: int, message: str):
        raise ValueError(f"{path}:{data_line(path, row)}: {message}")

    if header != TRIAL_COLUMNS:
        fail(-1, f"expected columns {TRIAL_COLUMNS}, got {header}")
    first: dict[tuple[str, str], int] = {}
    for row, cells in enumerate(rows):
        if len(cells) != 3:
            fail(row, f"expected 3 tab-separated fields, got {len(cells)}")
        m_id, t_id, label = cells
        if label not in (TARGET, NONTARGET):
            fail(row, f"label must be target/nontarget, got {label!r}")
        if first.setdefault((m_id, t_id), row) != row:
            fail(row, f"duplicate trial ({m_id}, {t_id}), "
                      f"first at line {data_line(path, first[m_id, t_id])}")
    return [tuple(cells) for cells in rows]


def load_protocol(trials_path: str | Path, manifest_path: str | Path,
                  models_path: str | Path | None = None) -> ProtocolSpec:
    rows = read_trials(trials_path)
    positive = [(m, t) for m, t, lab in rows if lab == TARGET]
    negative = [(m, t) for m, t, lab in rows if lab == NONTARGET]
    tests = [ProbeEntry(r["test_id"], r["speaker_id"], r["transcript"], r["net_speech"],
                       list(r["source_ids"]), r.get("gender", ""))
             for r in read_jsonl(manifest_path, required=MANIFEST_KEYS)]
    models = []
    if models_path is not None:
        models = [ModelRecord(r["model_id"], r["speaker_id"], r["net_speech"],
                              list(r["source_ids"]), r.get("transcript", ""), r.get("gender", ""))
                  for r in read_jsonl(models_path, required=MODEL_KEYS)]
    return ProtocolSpec(positive, negative, tests, models)


def load_inventory_jsonl(path: str | Path) -> list[UtteranceRecord]:
    """Utterance inventory JSONL -> records (see README for the field list)."""
    records = []
    for rec in read_jsonl(path, required=CORPUS_KEYS):
        records.append(UtteranceRecord(
            utterance_id=rec["utterance_id"],
            speaker_id=rec["speaker_id"],
            kind=rec["kind"],
            net_speech=float(rec["net_speech"]),
            transcript=rec.get("transcript", ""),
            word_text=rec.get("word_text", ""),
            repetition_index=int(rec.get("repetition_index", 0)),
            gender=rec.get("gender", ""),
            word_durations=rec.get("word_durations"),
        ))
    return records
