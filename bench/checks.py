"""Checks of each pipeline stage's outputs, computed apart from phonrich.

Every check reads the files a stage wrote with the benchmark's own parsers
and compares them with an independent computation (numpy, scipy, or a
property the method must have). A check returns a list of failure
messages; an empty list is a pass. Nothing here imports phonrich.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats

# the 39 stress-free ARPABET symbols in alphabetical order (presence-bit axes)
ARPABET = sorted((
    "AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M N NG OW OY P R "
    "S SH T TH UH UW V W Y Z ZH").split())
NET_SPEECH_FLOOR = 0.01
PRIORS = (0.01, 0.005)
MAX_REPORTED = 5  # failure messages kept per check


# ---------------------------------------------------------------- parsers

def read_tsv(path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def read_jsonl(path) -> list[dict]:
    return [json.loads(ln) for ln in Path(path).read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]


def read_scores(path):
    """Scores TSV -> (keys [(model, test)], labels bool array, scores float array)."""
    header, rows = read_tsv(path)
    if header != ["model_id", "test_id", "label", "raw_score"]:
        raise ValueError(f"{path}: unexpected header {header}")
    keys = [(r[0], r[1]) for r in rows]
    labels = np.array([r[2] == "target" for r in rows])
    scores = np.array([float(r[3]) for r in rows])
    return keys, labels, scores


def parse_lexicon(path) -> dict[str, tuple[str, ...]]:
    """CMU text -> word: first pronunciation, stress digits stripped."""
    lex: dict[str, tuple[str, ...]] = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or line.startswith(";;;"):
            continue
        word = re.sub(r"\(\d+\)$", "", parts[0]).lower()
        lex.setdefault(word, tuple(p.rstrip("012") for p in parts[1:]))
    return lex


def phonemes_of(transcript: str, lex) -> list[str]:
    out = []
    for raw in transcript.lower().split():
        word = re.sub(r"^[^a-z0-9]+|[^a-z0-9]+$", "", raw)
        out.extend(lex.get(word, ()))
    return out


def bits_of(phonemes) -> str:
    present = set(phonemes)
    return "".join("1" if s in present else "0" for s in ARPABET)


def read_weights(path) -> tuple[np.ndarray, dict]:
    values, header = {}, {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# n_train="):
            for field in line[2:].split("\t"):
                key, val = field.split("=")
                header[key] = float(val)
        elif line.strip() and not line.startswith("#"):
            sym, val = line.split("\t")
            values[sym] = float(val)
    return np.array([values.get(s, math.nan) for s in ARPABET]), header


def read_model(path) -> dict:
    model = {"coef": {}}
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, val = line.split("\t", 1)
        if key.startswith("coef:"):
            model["coef"][key[5:]] = float(val)
        else:
            model[key] = val
    return model


def _first(failures: list[str]) -> list[str]:
    if len(failures) > MAX_REPORTED:
        return failures[:MAX_REPORTED] + [f"... and {len(failures) - MAX_REPORTED} more"]
    return failures


def _close(a, b, rel=1e-12, abs_=1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------- metrics

def sort_eer_minc(tar: np.ndarray, non: np.ndarray) -> tuple[float, float]:
    """EER (linear interpolation on the ROC) and minC_primary by one joint sort.

    Accept iff score >= threshold. Sorting all scores descending and
    sweeping the thresholds gives the miss and false-alarm rates at every
    distinct score; the reject-all point closes the curve.
    """
    scores = np.concatenate([tar, non])
    is_tar = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])
    order = np.argsort(-scores, kind="stable")
    s, t = scores[order], is_tar[order]
    last = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # end of each tie group
    accepted_tar = np.cumsum(t)[last]
    accepted_non = np.cumsum(~t)[last]
    # thresholds in increasing order, then the reject-all point
    far = np.append((accepted_non / non.size)[::-1], 0.0)
    frr = np.append((1.0 - accepted_tar / tar.size)[::-1], 1.0)
    diff = far - frr
    i = int(np.argmax(diff <= 0))
    if diff[i] == 0 or i == 0:
        eer = far[i]
    else:
        alpha = diff[i - 1] / (diff[i - 1] - diff[i])
        eer = far[i - 1] + alpha * (far[i] - far[i - 1])
    minc = np.mean([np.min(p * frr + (1 - p) * far) / min(p, 1 - p) for p in PRIORS])
    return float(eer), float(minc)


def check_metric_oracle(oracles, tar, non, rng) -> list[str]:
    """The sort-based EER/minC must equal tests/oracles.py on a subsample."""
    tar_s = rng.choice(tar, size=min(300, tar.size), replace=False)
    non_s = rng.choice(non, size=min(700, non.size), replace=False)
    eer, minc = sort_eer_minc(tar_s, non_s)
    failures = []
    if not _close(eer, oracles.brute_force_eer(tar_s, non_s), 1e-9, 1e-12):
        failures.append(f"sort-based EER {eer} differs from the brute-force oracle")
    if not _close(minc, oracles.brute_force_min_c_primary(tar_s, non_s), 1e-9, 1e-12):
        failures.append(f"sort-based minC {minc} differs from the brute-force oracle")
    return failures


def _matches_printed(value: float, printed: str) -> bool:
    """True when ``printed`` is ``value`` rounded to the printed decimals."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - float(printed)) <= 0.5 * 10 ** -decimals + 1e-9


# ---------------------------------------------------------------- stage checks

def check_protocol(corpus, trials, manifest, models, n_speakers, n_probes,
                   negatives_per_probe) -> list[str]:
    """gen-protocol: probe make-up, net speech, positives, negatives, impostor counts."""
    failures = []
    utts = {r["utterance_id"]: r for r in read_jsonl(corpus)}
    tests = read_jsonl(manifest)
    model_recs = read_jsonl(models)
    gender = {m["model_id"]: m["gender"] for m in model_recs}
    speaker = {m["model_id"]: m["speaker_id"] for m in model_recs}
    if len(tests) != n_speakers * n_probes:
        failures.append(f"{len(tests)} tests, expected {n_speakers} x {n_probes}")
    test_by_id = {}
    for t in tests:
        tid, src = t["test_id"], t["source_ids"]
        test_by_id[tid] = t
        recs = [utts.get(s) for s in src]
        if any(r is None for r in recs):
            failures.append(f"{tid}: a source id is not in the corpus")
            continue
        types = {r["word_text"] for r in recs}
        if not 2 <= len(src) <= 10:
            failures.append(f"{tid}: T={len(src)} outside [2, 10]")
        if not 1 <= len(types) <= len(src):
            failures.append(f"{tid}: U={len(types)} outside [1, T]")
        if len(set(src)) != len(src):
            failures.append(f"{tid}: a source recording is used twice")
        if any(r["kind"] != "word" or r["speaker_id"] != t["speaker_id"] for r in recs):
            failures.append(f"{tid}: a source is not a word recording of its speaker")
        if t["transcript"].split() != [r["word_text"] for r in recs]:
            failures.append(f"{tid}: transcript does not spell the source words")
        if not _close(t["net_speech"], math.fsum(r["net_speech"] for r in recs), 1e-12):
            failures.append(f"{tid}: net_speech {t['net_speech']} is not the sum of its sources")
    header, rows = read_tsv(trials)
    if header != ["model_id", "test_id", "label"]:
        failures.append(f"trials header {header}")
    if len({(r[0], r[1]) for r in rows}) != len(rows):
        failures.append("duplicate (model, test) trials")
    pos = Counter()
    neg = defaultdict(set)
    for m_id, t_id, label in rows:
        t = test_by_id.get(t_id)
        if t is None or m_id not in speaker:
            failures.append(f"trial ({m_id}, {t_id}) names an unknown model or test")
        elif label == "target":
            pos[t_id] += 1
            if speaker[m_id] != t["speaker_id"]:
                failures.append(f"positive ({m_id}, {t_id}) crosses speakers")
        elif label == "nontarget":
            neg[t_id].add(m_id)
            if speaker[m_id] == t["speaker_id"] or gender[m_id] != t["gender"]:
                failures.append(f"negative ({m_id}, {t_id}) is not another same-gender speaker")
        else:
            failures.append(f"trial ({m_id}, {t_id}) has label {label!r}")
    models_of = Counter((speaker[m], gender[m]) for m in speaker)
    models_of_gender = Counter(gender.values())
    for tid, t in test_by_id.items():
        if pos[tid] != 1:
            failures.append(f"{tid}: {pos[tid]} positive trials")
        eligible = models_of_gender[t["gender"]] - models_of[(t["speaker_id"], t["gender"])]
        want = eligible if negatives_per_probe is None else min(eligible, negatives_per_probe)
        if len(neg[tid]) != want:
            failures.append(f"{tid}: {len(neg[tid])} impostors, expected {want}")
    return _first(failures)


def check_simulate(trials, manifest, scores, sim_qmf, lexicon) -> list[str]:
    """simulate: scored trials equal the protocol's, scores in [-1, 1], cu and lns."""
    failures = []
    _, rows = read_tsv(trials)
    keys, labels, values = read_scores(scores)
    if sorted((m, t, lab) for m, t, lab in rows) != sorted(
            (m, t, "target" if lab else "nontarget") for (m, t), lab in zip(keys, labels)):
        failures.append("scored trials and labels differ from the protocol's")
    if not np.all(np.isfinite(values)) or np.any(np.abs(values) > 1.0):
        failures.append("a score lies outside [-1, 1]")
    lex = parse_lexicon(lexicon)
    tests = {t["test_id"]: t for t in read_jsonl(manifest)}
    qmfs = {q["test_id"]: q for q in read_jsonl(sim_qmf)}
    if set(qmfs) != set(tests):
        failures.append("QMF test ids differ from the manifest's")
    for tid, t in tests.items():
        q = qmfs.get(tid)
        if q is None:
            continue
        if q["cu"] != len(set(phonemes_of(t["transcript"], lex))):
            failures.append(f"{tid}: cu {q['cu']} is not the distinct phoneme count")
        if q["net_speech"] != t["net_speech"]:
            failures.append(f"{tid}: net_speech differs from the manifest")
        if not _close(q["lns"], math.log(max(t["net_speech"], NET_SPEECH_FLOOR))):
            failures.append(f"{tid}: lns {q['lns']} is not log(max(net_speech, 0.01))")
    return _first(failures)


def check_g2p(transcripts, lexicon, presence) -> list[str]:
    """g2p: phonemes, presence bits and cu match the benchmark's own lexicon parse."""
    failures = []
    lex = parse_lexicon(lexicon)
    want = {r["utterance_id"]: phonemes_of(r["transcript"], lex) for r in read_jsonl(transcripts)}
    got = read_jsonl(presence)
    if sorted(r["utterance_id"] for r in got) != sorted(want):
        failures.append("presence utterance ids differ from the transcripts'")
    for rec in got:
        ph = want.get(rec["utterance_id"])
        if ph is None:
            continue
        if rec["phonemes"] != ph:
            failures.append(f"{rec['utterance_id']}: phonemes differ from the lexicon")
        if rec["bits"] != bits_of(ph):
            failures.append(f"{rec['utterance_id']}: presence bits differ from the lexicon")
        if rec["cu"] != rec["bits"].count("1"):
            failures.append(f"{rec['utterance_id']}: cu is not the number of set bits")
    return _first(failures)


def _presence_matrix(presence_recs) -> tuple[dict, np.ndarray]:
    index = {r["utterance_id"]: i for i, r in enumerate(presence_recs)}
    bits = np.array([[c == "1" for c in r["bits"]] for r in presence_recs], dtype=float)
    return index, bits.reshape(len(presence_recs), len(ARPABET))


def check_richness(presence, weights, manifest, qmf) -> list[str]:
    """richness: cu = set bits, wcu = weights . bits, lns from the manifest net speech."""
    failures = []
    pres = read_jsonl(presence)
    index, P = _presence_matrix(pres)
    w, _ = read_weights(weights)
    ns = {t["test_id"]: t["net_speech"] for t in read_jsonl(manifest)}
    recs = read_jsonl(qmf)
    if sorted(r["test_id"] for r in recs) != sorted(index):
        failures.append("QMF test ids differ from the presence file's")
    for rec in recs:
        i = index.get(rec["test_id"])
        if i is None:
            continue
        if rec["cu"] != P[i].sum():
            failures.append(f"{rec['test_id']}: cu {rec['cu']} is not the number of set bits")
        if not _close(rec["wcu"], float(np.dot(w, P[i])), 1e-12, 1e-15):
            failures.append(f"{rec['test_id']}: wcu {rec['wcu']} is not weights . bits")
        net = ns.get(rec["test_id"])
        if net is None or rec.get("net_speech") != net or not _close(
                rec.get("lns", math.nan), math.log(max(net, NET_SPEECH_FLOOR))):
            failures.append(f"{rec['test_id']}: net_speech/lns differ from the manifest")
    return _first(failures)


def check_fit_weights(presence, scores, weights) -> list[str]:
    """fit-weights: non-negative, NNLS optimality on our own join, residual = scipy's."""
    failures = []
    index, P_all = _presence_matrix(read_jsonl(presence))
    keys, labels, values = read_scores(scores)
    rows = [(index[t], s) for (_, t), lab, s in zip(keys, labels, values) if lab and t in index]
    P = P_all[[i for i, _ in rows]]
    s = np.array([v for _, v in rows])
    w, header = read_weights(weights)
    if np.any(np.isnan(w)):
        return ["weights file does not name all 39 phonemes"]
    if np.any(w < 0):
        failures.append(f"negative weight(s): {np.flatnonzero(w < 0).tolist()}")
    if header.get("n_train") != len(rows):
        failures.append(f"n_train {header.get('n_train')} != {len(rows)} joined positive trials")
    grad = P.T @ (s - P @ w)  # minus half the gradient of ||Pw - s||^2
    tol = 1e-8 * max(1.0, float(np.abs(P.T @ s).max()))
    free = w > 0
    if np.any(np.abs(grad[free]) > tol) or np.any(grad[~free] > tol):
        failures.append(f"NNLS optimality violated: max stationarity {np.abs(grad[free]).max(initial=0):.3g}, "
                        f"max bound gradient {grad[~free].max(initial=-np.inf):.3g}, tol {tol:.3g}")
    _, rnorm = optimize.nnls(P, s)
    rms = rnorm / math.sqrt(len(rows))
    if not _close(header.get("fit_residual", math.nan), rms, 1e-8):
        failures.append(f"fit_residual {header.get('fit_residual')} != scipy's {rms}")
    return _first(failures)


def check_report_weights(weights, presence, report) -> list[str]:
    """report-weights: normalized weights and phoneme token frequencies."""
    w, _ = read_weights(weights)
    counts = Counter(p for r in read_jsonl(presence) for p in r["phonemes"])
    total = sum(counts.values())
    header, rows = read_tsv(report)
    failures = []
    if header != ["phoneme", "normalized_weight", "frequency"] or [r[0] for r in rows] != ARPABET:
        return ["report rows are not the 39 phonemes in inventory order"]
    for (sym, nw, freq), wi in zip(rows, w):
        if not _matches_printed(wi / w.sum(), nw):
            failures.append(f"{sym}: normalized weight {nw} != {wi / w.sum()}")
        if not _matches_printed(counts[sym] / total, freq):
            failures.append(f"{sym}: frequency {freq} != {counts[sym] / total}")
    return _first(failures)


def check_stats(qmf, stdout: str) -> list[str]:
    """stats: mean (population std) of net_speech and cu, computed with numpy."""
    recs = [r for r in read_jsonl(qmf) if "net_speech" in r and "cu" in r]
    ns = np.array([r["net_speech"] for r in recs])
    cu = np.array([r["cu"] for r in recs])
    found = dict(re.findall(r"^(\w+): ([-\d.]+ \([-\d.]+\))", stdout, re.M))
    failures = []
    for name, col in (("net_speech", ns), ("cu", cu)):
        text = found.get(name)
        if text is None:
            failures.append(f"stats printed no {name} line")
            continue
        mean, std = text.replace("(", "").replace(")", "").split()
        if not (_matches_printed(col.mean(), mean) and _matches_printed(col.std(), std)):
            failures.append(f"{name}: printed {text}, numpy gives {col.mean():.4f} ({col.std():.4f})")
    return failures


def check_evaluate_none(scores, eval_tsv) -> list[str]:
    """evaluate none: printed EER and minC match the sort-based computation."""
    _, labels, values = read_scores(scores)
    eer, minc = sort_eer_minc(values[labels], values[~labels])
    rows = {r[0]: r for r in read_tsv(eval_tsv)[1]}
    row = rows.get("none")
    if row is None:
        return ["evaluate wrote no 'none' row"]
    failures = []
    if not _matches_printed(100 * eer, row[1]):
        failures.append(f"none: EER {row[1]}% but the scores give {100 * eer:.4f}%")
    if not _matches_printed(minc, row[2]):
        failures.append(f"none: minC {row[2]} but the scores give {minc:.5f}")
    return failures


def feature_matrix(keys, scores, qmf_recs, names) -> np.ndarray:
    q = {r["test_id"]: r for r in qmf_recs}
    cols = []
    for name in names:
        cols.append(scores if name == "raw" else np.array([q[t][name] for _, t in keys], dtype=float))
    return np.column_stack(cols)


def _weighted_nll(beta, X1, y, sw):
    z = X1 @ beta
    return float(np.sum(sw * (np.logaddexp(0.0, z) - y * z)))


def _weighted_nll_grad(beta, X1, y, sw):
    return X1.T @ (sw * (special.expit(X1 @ beta) - y))


def check_calibrate(scores, qmf, cal_scores, model_paths, features: str, folds: int,
                    eval_tsv) -> list[str]:
    """calibrate: fold membership, fold sizes, fold optimality, EER vs the evaluate row."""
    failures = []
    names = features.split(",")
    keys, labels, raw = read_scores(scores)
    cal_keys, cal_labels, cal = read_scores(cal_scores)
    if cal_keys != keys or not np.array_equal(cal_labels, labels):
        return ["calibrated trials differ from the input trials or their order"]
    X = feature_matrix(keys, raw, read_jsonl(qmf), names)
    X1 = np.column_stack([np.ones(len(keys)), X])
    models = [read_model(p) for p in model_paths]
    if len(models) != folds:
        return [f"{len(models)} model files for {folds} folds"]
    betas = []
    for i, m in enumerate(models):
        if list(m["coef"]) != names:
            return [f"fold {i}: model features {list(m['coef'])} != {names}"]
        betas.append(np.array([float(m["intercept"])] + [m["coef"][n] for n in names]))
    pred = X1 @ np.column_stack(betas)
    # A trial's own model reproduces its score to about 1e-15; at 1e-9 another
    # model came that close by chance on one trial in a few hundred thousand.
    match = np.abs(pred - cal[:, None]) <= 1e-12 * np.maximum(1.0, np.abs(cal[:, None]))
    n_match = match.sum(axis=1)
    if np.any(n_match != 1):
        bad = int(np.sum(n_match != 1))
        failures.append(f"{bad} trials are reproduced by {sorted(set(n_match.tolist()))} fold models, not one")
        return failures
    fold = match.argmax(axis=1)
    for cls, name in ((True, "target"), (False, "nontarget")):
        sizes = np.bincount(fold[labels == cls], minlength=folds)
        if sizes.max() - sizes.min() > 1:
            failures.append(f"{name} fold sizes {sizes.tolist()} differ by more than one")
    y = labels.astype(float)
    for i, beta in enumerate(betas):
        train = fold != i
        Xt, yt = X1[train], y[train]
        n, n_tar = yt.size, yt.sum()
        sw = np.where(yt == 1.0, n / (2 * n_tar), n / (2 * (n - n_tar)))
        if not (_close(float(models[i]["class_weight_target"]), n / (2 * n_tar), 1e-12)
                and _close(float(models[i]["class_weight_nontarget"]), n / (2 * (n - n_tar)), 1e-12)):
            failures.append(f"fold {i}: class weights do not match its training complement")
        grad = Xt.T @ (sw * (yt - special.expit(Xt @ beta)))
        if np.max(np.abs(grad)) > 1e-6 * n:
            failures.append(f"fold {i}: log-likelihood gradient {np.max(np.abs(grad)):.3g} is not ~0")
        fit = optimize.minimize(_weighted_nll, np.zeros_like(beta), args=(Xt, yt, sw),
                                jac=_weighted_nll_grad,
                                method="BFGS", options={"gtol": 1e-8 * n, "maxiter": 500})
        if _weighted_nll(beta, Xt, yt, sw) > fit.fun + 1e-6 * n:
            failures.append(f"fold {i}: scipy finds a better fit ({fit.fun:.9g} < "
                            f"{_weighted_nll(beta, Xt, yt, sw):.9g})")
        if not np.allclose(fit.x, beta, rtol=1e-3, atol=1e-3):
            failures.append(f"fold {i}: coefficients {beta} differ from scipy's {fit.x}")
    eer, minc = sort_eer_minc(cal[labels], cal[~labels])
    row = {r[0]: r for r in read_tsv(eval_tsv)[1]}.get(features)
    if row is None:
        failures.append(f"evaluate wrote no {features!r} row")
    elif not (_matches_printed(100 * eer, row[1]) and _matches_printed(minc, row[2])):
        failures.append(f"{features}: evaluate printed {row[1]}% / {row[2]}, calibrate's "
                        f"scores give {100 * eer:.4f}% / {minc:.5f}")
    return _first(failures)


def check_correlation(scores, qmf, scatter, stdout: str) -> list[str]:
    """--correlation-out: scatter rows = trials x QMF names; taus = scipy tau-b."""
    failures = []
    keys, labels, values = read_scores(scores)
    q = {r.pop("test_id"): r for r in read_jsonl(qmf)}
    names = sorted(next(iter(q.values())))
    lines = Path(scatter).read_text().splitlines()
    if lines[0] != "test_id,qmf_name,qmf_value,score,label":
        failures.append(f"scatter header {lines[0]!r}")
    body = lines[1:]
    if len(body) != len(keys) * len(names):
        return failures + [f"scatter has {len(body)} rows, expected {len(keys)} x {len(names)}"]
    i = 0
    for (_, tid), lab, score in zip(keys, labels, values):
        for name in names:
            f = body[i].split(",")
            i += 1
            if (f[0] != tid or f[1] != name or float(f[2]) != q[tid][name]
                    or float(f[3]) != score or f[4] != ("target" if lab else "nontarget")):
                failures.append(f"scatter row {i} {body[i - 1]!r} does not match the inputs")
                break
        if failures:
            break
    printed = {(m[0], m[1]): m[2] for m in re.findall(r"^tau\[(\w+),(\w+)\] = (\S+)$", stdout, re.M)}
    for label, cls in (("target", labels), ("nontarget", ~labels)):
        for name in names:
            col = np.array([q[t][name] for (_, t), c in zip(keys, cls) if c])
            want = stats.kendalltau(col, values[cls], variant="b").statistic
            got = printed.get((label, name))
            if got is None or not _matches_printed(want, got):
                failures.append(f"tau[{label},{name}] printed {got}, scipy gives {want:.5f}")
    return _first(failures)
