"""Built-in desk-scale demo vocabulary and corpus generator.

66 common English words with stress-free ARPABET pronunciations covering
all 39 inventory phonemes, mirroring the shape of an isolated-word corpus
(10 repetitions of each word per speaker plus enrollment sentences).
"""

from __future__ import annotations

import numpy as np

from .io import Table
from .protocols import left_sum

# word -> pronunciation; union of all pronunciations covers the full inventory
DEMO_VOCABULARY: dict[str, tuple[str, ...]] = {
    "about": ("AH", "B", "AW", "T"),
    "azure": ("AE", "ZH", "ER"),
    "bird": ("B", "ER", "D"),
    "blue": ("B", "L", "UW"),
    "book": ("B", "UH", "K"),
    "box": ("B", "AA", "K", "S"),
    "boy": ("B", "OY"),
    "cat": ("K", "AE", "T"),
    "chair": ("CH", "EH", "R"),
    "child": ("CH", "AY", "L", "D"),
    "cow": ("K", "AW"),
    "day": ("D", "EY"),
    "dog": ("D", "AO", "G"),
    "door": ("D", "AO", "R"),
    "duck": ("D", "AH", "K"),
    "egg": ("EH", "G"),
    "eight": ("EY", "T"),
    "father": ("F", "AA", "DH", "ER"),
    "fish": ("F", "IH", "SH"),
    "five": ("F", "AY", "V"),
    "frog": ("F", "R", "AA", "G"),
    "go": ("G", "OW"),
    "goat": ("G", "OW", "T"),
    "good": ("G", "UH", "D"),
    "green": ("G", "R", "IY", "N"),
    "hat": ("HH", "AE", "T"),
    "house": ("HH", "AW", "S"),
    "ice": ("AY", "S"),
    "jam": ("JH", "AE", "M"),
    "judge": ("JH", "AH", "JH"),
    "key": ("K", "IY"),
    "king": ("K", "IH", "NG"),
    "lamb": ("L", "AE", "M"),
    "measure": ("M", "EH", "ZH", "ER"),
    "moon": ("M", "UW", "N"),
    "mouse": ("M", "AW", "S"),
    "night": ("N", "AY", "T"),
    "nose": ("N", "OW", "Z"),
    "owl": ("AW", "L"),
    "pen": ("P", "EH", "N"),
    "pig": ("P", "IH", "G"),
    "quick": ("K", "W", "IH", "K"),
    "rain": ("R", "EY", "N"),
    "red": ("R", "EH", "D"),
    "run": ("R", "AH", "N"),
    "ship": ("SH", "IH", "P"),
    "sing": ("S", "IH", "NG"),
    "snow": ("S", "N", "OW"),
    "sun": ("S", "AH", "N"),
    "thing": ("TH", "IH", "NG"),
    "this": ("DH", "IH", "S"),
    "thumb": ("TH", "AH", "M"),
    "toy": ("T", "OY"),
    "tree": ("T", "R", "IY"),
    "under": ("AH", "N", "D", "ER"),
    "up": ("AH", "P"),
    "vision": ("V", "IH", "ZH", "AH", "N"),
    "voice": ("V", "OY", "S"),
    "vote": ("V", "OW", "T"),
    "water": ("W", "AO", "T", "ER"),
    "win": ("W", "IH", "N"),
    "wolf": ("W", "UH", "L", "F"),
    "yard": ("Y", "AA", "R", "D"),
    "yellow": ("Y", "EH", "L", "OW"),
    "yes": ("Y", "EH", "S"),
    "zoo": ("Z", "UW"),
}

N_SENTENCES = 5
N_REPETITIONS = 10
RECORDS_PER_SPEAKER = N_SENTENCES + len(DEMO_VOCABULARY) * N_REPETITIONS
DEMO_BLOCK = 4  # speakers per table that make-demo builds and writes at a time


def word_duration(word: str) -> float:
    """Nominal spoken duration in seconds, driven by phoneme count."""
    return 0.25 + 0.08 * len(DEMO_VOCABULARY[word])


def demo_sentences() -> list[str]:
    """Five sentence transcripts whose union covers the whole vocabulary."""
    words = sorted(DEMO_VOCABULARY)
    return [" ".join(words[k::N_SENTENCES]) for k in range(N_SENTENCES)]


def make_demo_inventory(n_speakers: int, seed: int = 0, first: int = 0) -> Table:
    """Aplawd-shaped corpus table (see protocols.Corpus) of speakers ``first`` to ``first + n_speakers - 1``:
    per speaker, 5 sentences and 66 words x 10 reps.

    Word-recording durations get a small deterministic per-recording jitter
    so net speech is not exactly tied to word identity. Each speaker draws
    from its own rng and every other step is elementwise, so tables of
    consecutive speakers, one after another, hold the rows of one table of them all.
    """
    sentences = demo_sentences()
    sentence_durations = [[word_duration(w) for w in text.split()] for text in sentences]
    words = [word for word in sorted(DEMO_VOCABULARY) for _ in range(N_REPETITIONS)]
    reps = list(range(1, N_REPETITIONS + 1)) * len(DEMO_VOCABULARY)
    numbers = range(first, first + n_speakers)
    # per speaker, one draw per word recording, in recording order; a recording's net speech is
    # word_duration * (1 + 0.1 * (draw - 0.5)), each operation as the scalar one rounds it
    draws = np.array([np.random.default_rng([seed, 97, s]).random(len(words))
                      for s in numbers]).reshape(n_speakers, len(words))
    word_net_speech = np.array([word_duration(word) for word in words]) * (1.0 + 0.1 * (draws - 0.5))
    net_speech = np.hstack([np.tile([float(left_sum(d)) for d in sentence_durations], (n_speakers, 1)),
                            word_net_speech])
    suffixes = [f"_sent{k}" for k in range(len(sentences))] + [f"_{w}_{r:02d}" for w, r in zip(words, reps)]
    speakers = [f"spk{s:03d}" for s in numbers]
    return Table({
        "utterance_id": [spk + suffix for spk in speakers for suffix in suffixes],
        "speaker_id": [spk for spk in speakers for _ in suffixes],
        "kind": (["sentence"] * len(sentences) + ["word"] * len(words)) * n_speakers,
        "net_speech": net_speech.ravel().tolist(),
        "transcript": (sentences + words) * n_speakers,
        "word_text": ([""] * len(sentences) + words) * n_speakers,
        "repetition_index": ([0] * len(sentences) + reps) * n_speakers,
        "gender": [("m", "f")[s % 2] for s in numbers for _ in suffixes],
        "word_durations": (sentence_durations + [None] * len(words)) * n_speakers,
    })


def demo_lexicon_lines() -> str:
    """The demo vocabulary rendered as CMU-dictionary text."""
    return "".join(f"{word.upper()}  {' '.join(pron)}\n" for word, pron in sorted(DEMO_VOCABULARY.items()))
