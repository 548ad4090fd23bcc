from pathlib import Path

import numpy as np
import pytest

from phonrich.data import DEMO_VOCABULARY
from phonrich.metrics import Trials, encode_ids

# 20 hand-verified CMU dictionary entries (with stress digits) and their
# expected stress-free pronunciations
CMUDICT_LINES = """\
ABOUT  AH0 B AW1 T
BLUE  B L UW1
BOOK  B UH1 K
BOY  B OY1
CAT  K AE1 T
DOG  D AO1 G
DON'T  D OW1 N T
GREEN  G R IY1 N
HELLO  HH AH0 L OW1
HELLO(1)  HH EH0 L OW1
HOUSE  HH AW1 S
JUDGE  JH AH1 JH
MEASURE  M EH1 ZH ER0
PHONEME  F OW1 N IY2 M
RED  R EH1 D
SING  S IH1 NG
THING  TH IH1 NG
THIS  DH IH1 S
VOICE  V OY1 S
WATER  W AO1 T ER0
YES  Y EH1 S
"""

EXPECTED_PRONUNCIATIONS = {
    "about": ("AH", "B", "AW", "T"),
    "blue": ("B", "L", "UW"),
    "book": ("B", "UH", "K"),
    "boy": ("B", "OY"),
    "cat": ("K", "AE", "T"),
    "dog": ("D", "AO", "G"),
    "don't": ("D", "OW", "N", "T"),
    "green": ("G", "R", "IY", "N"),
    "hello": ("HH", "AH", "L", "OW"),
    "house": ("HH", "AW", "S"),
    "judge": ("JH", "AH", "JH"),
    "measure": ("M", "EH", "ZH", "ER"),
    "phoneme": ("F", "OW", "N", "IY", "M"),
    "red": ("R", "EH", "D"),
    "sing": ("S", "IH", "NG"),
    "thing": ("TH", "IH", "NG"),
    "this": ("DH", "IH", "S"),
    "voice": ("V", "OY", "S"),
    "water": ("W", "AO", "T", "ER"),
    "yes": ("Y", "EH", "S"),
}


@pytest.fixture
def lexicon_file(tmp_path):
    path = tmp_path / "cmudict.txt"
    path.write_text(CMUDICT_LINES)
    return path


def trials_from_ids(model_ids, test_ids, is_target, scores):
    """Trials from one model id, test id, target flag and (unless None) score per trial."""
    codes = encode_ids(model_ids, models := {}), encode_ids(test_ids, tests := {})
    return Trials(list(models), list(tests), *codes, np.asarray(is_target, dtype=bool),
                  None if scores is None else np.asarray(scores, dtype=float))


def demo_lexicon_lines():
    """The demo vocabulary rendered as CMU-dictionary text."""
    return "".join(f"{word.upper()}  {' '.join(pron)}\n" for word, pron in sorted(DEMO_VOCABULARY.items()))


def trial_rows(trials):
    """(model_id, test_id, label) of each trial, in trial order."""
    return [(trials.models[m], trials.tests[t], label) for m, t, label in
            zip(trials.model_codes.tolist(), trials.test_codes.tolist(), trials.labels())]


def read_model_fields(path):
    """The KEY<TAB>value lines save_model writes, as {key: value text} in file order."""
    return dict(line.split("\t", 1) for line in Path(path).read_text().splitlines()
                if line and not line.startswith("#"))
