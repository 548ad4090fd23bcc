import argparse
import codecs
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from phonrich import cli
from phonrich.cli import FLAG_DOMAINS, build_parser, main
from phonrich.inventory import ARPABET_39
from phonrich.io import WRITE_CHUNK, read_jsonl, read_scores, read_tsv
from phonrich.protocols import MAX_CLIP_WORDS

from conftest import CMUDICT_LINES, demo_lexicon_lines, read_model_fields, trial_rows


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text(CMUDICT_LINES)
    return path


def write_transcripts(path, items):
    path.write_text("\n".join(json.dumps({"utterance_id": u, "transcript": t})
                              for u, t in items) + "\n")


class TestG2p:
    def test_single_word(self, tmp_path, lexicon, capsys):
        transcripts = tmp_path / "tr.jsonl"
        write_transcripts(transcripts, [("u1", "cat")])
        out = tmp_path / "presence.jsonl"
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexicon, "--out", out]) == 0
        rec = read_jsonl(out)[0]
        assert rec["cu"] == 3
        assert rec["phonemes"] == ["K", "AE", "T"]
        assert len(rec["bits"]) == 39
        assert "oov_rate=0.0000" in capsys.readouterr().out

    def test_empty_input(self, tmp_path, lexicon, capsys):
        transcripts = tmp_path / "tr.jsonl"
        transcripts.write_text("")
        out = tmp_path / "presence.jsonl"
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexicon, "--out", out]) == 0
        assert read_jsonl(out) == []
        assert "utterances=0" in capsys.readouterr().out

    def test_oov_warns_but_exits_zero(self, tmp_path, lexicon, capsys):
        transcripts = tmp_path / "tr.jsonl"
        write_transcripts(transcripts, [("u1", "zzxxqq")])
        out = tmp_path / "presence.jsonl"
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexicon, "--out", out]) == 0
        rec = read_jsonl(out)[0]
        assert rec["cu"] == 0
        assert rec["oov_words"] == 1
        assert "warning" in capsys.readouterr().err

    def test_oov_rate_counts_only_the_tokens_looked_up(self, tmp_path, capsys):
        # "--" is punctuation only, so tokenize drops it: one word of two is out of vocabulary
        lexicon = tmp_path / "cat.txt"
        lexicon.write_text("CAT  K AE1 T\n")
        transcripts = tmp_path / "tr.jsonl"
        write_transcripts(transcripts, [("u1", "cat -- zzz")])
        out = tmp_path / "presence.jsonl"
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexicon, "--out", out]) == 0
        assert capsys.readouterr().out == "g2p: utterances=1 oov_words=1 oov_rate=0.5000\n"

    def test_malformed_jsonl_aborts(self, tmp_path, lexicon, capsys):
        transcripts = tmp_path / "tr.jsonl"
        transcripts.write_text('{"utterance_id": "u1", "transcript": "cat"}\nnot json\n')
        out = tmp_path / "presence.jsonl"
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexicon, "--out", out]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, lexicon, capsys):
        assert run(["g2p", "--transcripts", tmp_path / "missing.jsonl",
                    "--lexicon", lexicon, "--out", tmp_path / "o.jsonl"]) == 1
        assert "not found" in capsys.readouterr().err


class TestPipeline:
    """make-demo -> gen-protocol -> simulate -> fit-weights -> richness -> evaluate."""

    @pytest.fixture
    def workspace(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert run(["make-demo", "--speakers", 6, "--seed", 1, "--out", corpus]) == 0
        prefix = tmp_path / "rep"
        assert run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive",
                    "--probes-per-speaker", 40, "--seed", 2, "--out-prefix", prefix]) == 0
        scores = tmp_path / "scores.tsv"
        qmf = tmp_path / "qmf.jsonl"
        assert run(["simulate", "--trials", f"{prefix}.trials.tsv",
                    "--manifest", f"{prefix}.manifest.jsonl",
                    "--models", f"{prefix}.models.jsonl",
                    "--seed", 3, "--out-scores", scores, "--out-qmf", qmf]) == 0
        return tmp_path

    def test_simulate_outputs(self, workspace):
        trials = read_scores(workspace / "scores.tsv")
        assert len(trials) == 6 * 40 * 3  # 1 target + 2 same-gender impostors per probe
        qmfs = read_jsonl(workspace / "qmf.jsonl")
        assert {"test_id", "cu", "lns", "net_speech"} <= set(qmfs[0])

    def test_fit_weights_and_report(self, workspace, capsys):
        # presence vectors for the probe transcripts via g2p over the manifest
        manifest = read_jsonl(workspace / "rep.manifest.jsonl")
        transcripts = workspace / "tr.jsonl"
        write_transcripts(transcripts, [(m["test_id"], m["transcript"]) for m in manifest])
        lexfile = workspace / "demolex.txt"
        lexfile.write_text(demo_lexicon_lines())
        presence = workspace / "presence.jsonl"
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexfile,
                    "--out", presence]) == 0
        weights = workspace / "weights.txt"
        assert run(["fit-weights", "--presence", presence, "--scores",
                    workspace / "scores.tsv", "--seed", 0, "--out", weights]) == 0
        out = capsys.readouterr().out
        assert "n_train=240" in out

        report = workspace / "wreport.tsv"
        assert run(["report-weights", "--weights", weights, "--presence", presence,
                    "--out", report]) == 0
        header, rows = read_tsv(report)
        assert header == ["phoneme", "normalized_weight", "frequency"]
        assert len(rows) == 39
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-5)

        qmf2 = workspace / "qmf2.jsonl"
        assert run(["richness", "--presence", presence, "--weights", weights,
                    "--manifest", workspace / "rep.manifest.jsonl", "--out", qmf2]) == 0
        rec = read_jsonl(qmf2)[0]
        assert {"test_id", "cu", "wcu", "net_speech", "lns"} <= set(rec)

    def test_evaluate_rows(self, workspace, capsys):
        assert run(["evaluate", "--scores", workspace / "scores.tsv",
                    "--qmf", workspace / "qmf.jsonl",
                    "--features", "none", "--features", "raw,cu",
                    "--folds", 5, "--seed", 4]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("tau")]
        assert lines[0].startswith("none\t")
        assert lines[1].startswith("raw,cu\t")
        # EER percent with 2 decimals, minC with 3
        assert len(lines[0].split("\t")[1].split(".")[1]) == 2
        assert len(lines[0].split("\t")[2].split(".")[1]) == 3

    def test_evaluate_correlation_report(self, workspace, capsys):
        scatter = workspace / "scatter.csv"
        assert run(["evaluate", "--scores", workspace / "scores.tsv",
                    "--qmf", workspace / "qmf.jsonl", "--features", "none",
                    "--correlation-out", scatter]) == 0
        assert scatter.read_text().splitlines()[0] == "test_id,qmf_name,qmf_value,score,label"
        assert "tau[target,cu]" in capsys.readouterr().out

    def test_stats(self, workspace, capsys):
        assert run(["stats", "--qmf", workspace / "qmf.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "net_speech:" in out and "cu:" in out

    def test_calibrate_writes_models_and_scores(self, workspace):
        out_scores = workspace / "cal.tsv"
        assert run(["calibrate", "--scores", workspace / "scores.tsv",
                    "--qmf", workspace / "qmf.jsonl", "--features", "raw,cu",
                    "--folds", 5, "--seed", 6, "--out-scores", out_scores,
                    "--out-models", workspace / "model"]) == 0
        assert len(read_scores(out_scores)) == 6 * 40 * 3
        fields = read_model_fields(workspace / "model.fold0.txt")
        assert [key for key in fields if key.startswith("coef:")] == ["coef:raw", "coef:cu"]
        assert fields["seed"] == "6"

    def test_folds_exceeding_rare_class_errors(self, workspace, capsys):
        assert run(["calibrate", "--scores", workspace / "scores.tsv",
                    "--qmf", workspace / "qmf.jsonl", "--features", "raw",
                    "--folds", 100000, "--seed", 6,
                    "--out-scores", workspace / "x.tsv"]) == 1
        assert "at least" in capsys.readouterr().err

    def test_provenance_headers(self, workspace):
        first = (workspace / "scores.tsv").read_text().splitlines()[0]
        assert first.startswith("# phonrich=")
        assert "seed=3" in first
        assert "inputs=" in first


class TestDeterminism:
    def test_seeded_pipeline_is_byte_identical(self, tmp_path):
        outs = []
        for d in ("a", "b"):
            work = tmp_path / d
            work.mkdir()
            corpus = work / "corpus.jsonl"
            run(["make-demo", "--speakers", 4, "--seed", 11, "--out", corpus])
            prefix = work / "rep"
            run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive",
                 "--probes-per-speaker", 20, "--seed", 12, "--out-prefix", prefix])
            scores = work / "scores.tsv"
            qmf = work / "qmf.jsonl"
            run(["simulate", "--trials", f"{prefix}.trials.tsv",
                 "--manifest", f"{prefix}.manifest.jsonl",
                 "--models", f"{prefix}.models.jsonl",
                 "--seed", 13, "--out-scores", scores, "--out-qmf", qmf])
            cal = work / "cal.tsv"
            run(["calibrate", "--scores", scores, "--qmf", qmf, "--features", "raw,cu",
                 "--folds", 5, "--seed", 14, "--out-scores", cal])
            outs.append([p.read_bytes() for p in
                         (corpus, work / "rep.trials.tsv", work / "rep.manifest.jsonl",
                          scores, qmf, cal)])
        assert outs[0] == outs[1]


class TestPinnedBytes:
    """Every output of a small seeded run, pinned by SHA-256 across commits.

    Criterion 8 compares two runs of one commit, so a change in draw order
    or serialization passes it; these digests catch that. They were taken
    before the file edges were made to stream, and a change that means to
    alter an output updates them and says why.
    """

    DIGESTS = {
        "clip.manifest.jsonl": "87bfb791b72b159866ac988ac7b4d3a24c68809f7540ce846f36d8915b276e03",
        "clip.models.jsonl": "76bd1c76a4512a862e9d981e3f529920f90ee65e15bcc765652380f4bddf0ce1",
        "clip.trials.tsv": "e0b847c5fb4e8a3a4f4acba5924fa33180c6a96d515b6319a7a89f312878b8d9",
        "corpus.jsonl": "46e4e45dad2fd2251dbf0eb28e52bac0f00ad01f2c991c4c85bfa4199ae58bf3",
        "eval.tsv": "86d9a36523d58dbf75e40124f48e235435cc121a3f13262e6f737a0a9c93e4c1",
        "qmf.jsonl": "337bb63944412b5a6734091f026dd6d0d086a40fc12b6c1174b9035945e8ced6",
        "rep.manifest.jsonl": "8e86fe96f97728215fca766e04eb9224a433a9ebc18abd1d0c004678c1671028",
        "rep.models.jsonl": "c7472b0cc52dc65bed13c01dab38e0c334d7b9bcbdb1e4835d8ca6b49c4e7f88",
        "rep.trials.tsv": "26568f6e4b91d7c1f9c6c2e595d7715051204c6b7a97589c773b5ed0244bf871",
        "scatter.csv": "996925ab128b0e306cb5e2454d375e33a9d63baf6d8c5f07a814372211b211e5",
        "scores.tsv": "0ed149bfee99f5140fbbf59b36d8c2ed717f4c330130ed57ba05c7dd3359b2e8",
        "stdout.txt": "497e7566e1a6b8316c608d42dae9544bf4c7a20ba9758eb34f0f9f5b1caf1837",
    }

    def test_outputs_match_pinned_digests(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # provenance names inputs by file name only
        (tmp_path / "base.tsv").write_text("model_id\ttest_id\tlabel\nspk001\tspk001_sent2\ttarget\n"
                                           "spk003\tspk001_sent2\tnontarget\nspk000\tspk002_sent4\tnontarget\n")
        steps = [
            ["make-demo", "--speakers", 4, "--seed", 21, "--out", "corpus.jsonl"],
            ["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive",
             "--probes-per-speaker", 15, "--seed", 22, "--out-prefix", "rep"],
            ["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "clip", "--target", 2.5,
             "--base-trials", "base.tsv", "--seed", 23, "--out-prefix", "clip"],
            ["simulate", "--trials", "rep.trials.tsv", "--manifest", "rep.manifest.jsonl",
             "--models", "rep.models.jsonl", "--seed", 24, "--out-scores", "scores.tsv",
             "--out-qmf", "qmf.jsonl"],
            ["evaluate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl", "--features", "none",
             "--features", "raw,lns,cu", "--seed", 25, "--out", "eval.tsv",
             "--correlation-out", "scatter.csv"],
        ]
        stdout = []
        for argv in steps:
            assert run(argv) == 0
            stdout.append(capsys.readouterr().out)
        (tmp_path / "stdout.txt").write_text("".join(stdout))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.iterdir()) if p.name != "base.tsv"}
        assert digests == self.DIGESTS



class TestPinnedChunkedBytes:
    """A corpus of more records than one write chunk of io.WRITE_CHUNK rows, and its repetitive
    protocol, pinned by SHA-256 across commits as TestPinnedBytes pins a corpus inside one chunk."""

    DIGESTS = {
        "corpus.jsonl": "c58e36505e6c4244ce089ee572d71e06249853bd410f1a0ec5ccbc55d3a22356",
        "rep.manifest.jsonl": "8adbbb4f87e6f0dccf3eb007d1d9d0b5e7302eb5e151d7bb547678373ce74828",
        "rep.models.jsonl": "92d6591b0fd856c033aa86c52c2818036edde189bad47089e37cedfb94004487",
        "rep.trials.tsv": "9474609ee004640b95605df15b765ae7d027cffabae4df4f5a80cf690a4bb118",
    }

    def test_outputs_match_pinned_digests(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # provenance names inputs by file name only
        assert run(["make-demo", "--speakers", 7, "--seed", 5, "--out", "corpus.jsonl"]) == 0
        assert run(["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive", "--seed", 6,
                    "--out-prefix", "rep"]) == 0
        assert len(read_jsonl("corpus.jsonl")) == 4655 > WRITE_CHUNK
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(tmp_path.iterdir())} == self.DIGESTS


class TestPinnedNegativesBytes:
    """A repetitive protocol whose negatives are subsampled by --negatives-per-probe, pinned by SHA-256
    across commits: 8 speakers give each probe 3 impostors of its gender, of which 2 are drawn."""

    DIGESTS = {
        "corpus.jsonl": "e117b6cdbb8e487f22a8cfa3931af4e17eb5259045455430629ef8e73303a563",
        "rep.manifest.jsonl": "1b9544d9dce93439c041d3f31e3b8b0a60f90c6aff4a8066eb0a912b1985af37",
        "rep.models.jsonl": "5a389234a14901db8bf06854ec2ed2d45fc8b8bc3b3764fec8c2836c810a73ea",
        "rep.trials.tsv": "92de98238a82ef73a71dbc1ddabeab0d45e675ee5ad6356b0e103d1e60cd3f98",
    }

    def test_outputs_match_pinned_digests(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # provenance names inputs by file name only
        assert run(["make-demo", "--speakers", 8, "--seed", 31, "--out", "corpus.jsonl"]) == 0
        assert run(["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive",
                    "--probes-per-speaker", 25, "--negatives-per-probe", 2, "--seed", 32,
                    "--out-prefix", "rep"]) == 0
        assert len(read_jsonl("rep.manifest.jsonl")) * 3 == len(read_tsv("rep.trials.tsv")[1])
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(tmp_path.iterdir())} == self.DIGESTS


class TestPinnedQmfBytes:
    """The outputs and stdout of the stages that read or write QMFs, weights and models, pinned.

    A sibling of TestPinnedBytes over one small seeded run: g2p, fit-weights,
    report-weights (to a file and to stdout), richness with weights and a
    full manifest and with a manifest that covers every other test (so its
    records differ in their keys), stats on both kinds of QMF file,
    calibrate with fold models (``lns`` read, and derived from
    ``net_speech``), simulate with the demo vocabulary given as a
    lexicon file, which must score as the built-in vocabulary does (all
    but the provenance line, which names the lexicon), and
    ``evaluate --correlation-out`` on the four-QMF richness file (its
    stdout kept apart, in evaluate_stdout.txt).
    """

    DIGESTS = {
        "cal.tsv": "8af2db400c389e984ce696efd29b6f65a442c87f64a36924332b623593f558a9",
        "cal_nolns.tsv": "df45c291c594108764e055afb96600a5db693730549f2d632493918f191408c5",
        "corpus.jsonl": "dbd100c528f5cc76b6f743adc3a546aff320cfb731fdffb706cd3ddd239ba455",
        "evaluate_stdout.txt": "35b3b1e182e39790115f072ec18e6a5fb0c26c541319f6e7725be578dda1bf3b",
        "model.fold0.txt": "b0dc46133a6d54926bd46440a77aeecffe885563db5dcc6e52ab12583120051f",
        "model.fold1.txt": "cf5f22772e0a2057a783456f6b3687eecfd1807a8233185c6226b2295681bb27",
        "model.fold2.txt": "d1e8db5ce571daa6a28a408c46ead14db9c7df048d3edfbf8c5efaa4520ae36a",
        "nolns.fold0.txt": "ca774f128f0459b2a000ca9f3c49e1c8752612c6fe7da42cf366a2a9ed65ea39",
        "nolns.fold1.txt": "cabde939ae1cdd9a954416b1c6a9f4bad49070fb6b82ca73be8a6ff8a9af46ac",
        "presence.jsonl": "7c5c5d9d32600c2daa62ae96df1187c840ddc224d647efe13a52fea42c43c0c0",
        "qmf.jsonl": "b066f85395112c0eaddf2647bf1d1078c428102b5094b95a65d25f7d4b108d40",
        "qmf_lex.jsonl": "dea7ebb377139dec73e3c6e8768e32809c5d9f3fc63fcf53bd77488d5ea4e666",
        "qmf_partial.jsonl": "95fe8ce7641684fa623affe545ff4200924fe0f094ccd45d9c67a59bd7c9ad90",
        "qmf_wcu.jsonl": "f86671c14aee134f13ea9f5cc661564615340645ad0491331556a2383c795b22",
        "rep.manifest.jsonl": "35f4c05fbe6dd118a53324f0cbf1db13b9144298d368a7f53534c523df759d82",
        "rep.models.jsonl": "85fe50d236215a30634600bda610dd02fdec012d489c208366ee43b11106f9c1",
        "rep.trials.tsv": "f49882f4e627041e2c47b1e8d95d79211815f5677e695dd1086e02ab248bb34a",
        "report.tsv": "4406000a4e5c0c417eaa4a76664ff671ba79a55825e5faf9495f9cee7e72763e",
        "scatter.csv": "44d28c5b6ce106a7906d440872d376506430123508789c5f50d1674a60f905c2",
        "scores.tsv": "7545ad68af935cefd909d02e1a3241a2c6f6b8a604dd81e2778e13dc66164533",
        "scores_lex.tsv": "0a0dfc385105ae84f4c5165bcc5153e7736319b57c2ffdde1783af69d08c82d4",
        "stdout.txt": "23a19a65424e80dc3b8ec7da0a3af3e3075f34c1d079e471a2a9179f8e4bf4aa",
        "weights.txt": "ad58b19f69ee3ffcc0268d7c7b0d8bfbcc05615b686d88862751aca0a8044c05",
    }

    def test_outputs_match_pinned_digests(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # provenance names inputs by file name only
        inputs = {"lexicon.txt", "transcripts.jsonl", "partial.jsonl", "nolns.jsonl"}
        (tmp_path / "lexicon.txt").write_text(demo_lexicon_lines())
        stdout = []

        def step(*argv):
            assert run(argv) == 0
            stdout.append(capsys.readouterr().out)

        step("make-demo", "--speakers", 4, "--seed", 31, "--out", "corpus.jsonl")
        step("gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive",
             "--probes-per-speaker", 12, "--seed", 32, "--out-prefix", "rep")
        simulate = ["simulate", "--trials", "rep.trials.tsv", "--manifest", "rep.manifest.jsonl",
                    "--models", "rep.models.jsonl", "--seed", 33]
        step(*simulate, "--out-scores", "scores.tsv", "--out-qmf", "qmf.jsonl")
        step(*simulate, "--lexicon", "lexicon.txt", "--out-scores", "scores_lex.tsv",
             "--out-qmf", "qmf_lex.jsonl")
        manifest = read_jsonl("rep.manifest.jsonl")
        write_transcripts(tmp_path / "transcripts.jsonl", [(m["test_id"], m["transcript"]) for m in manifest])
        (tmp_path / "partial.jsonl").write_text("".join(
            json.dumps({"test_id": m["test_id"], "net_speech": m["net_speech"]}) + "\n"
            for m in manifest[::2]))
        (tmp_path / "nolns.jsonl").write_text("".join(
            json.dumps({k: v for k, v in rec.items() if k != "lns"}) + "\n"
            for rec in read_jsonl("qmf.jsonl")))
        step("g2p", "--transcripts", "transcripts.jsonl", "--lexicon", "lexicon.txt",
             "--out", "presence.jsonl")
        step("fit-weights", "--presence", "presence.jsonl", "--scores", "scores.tsv",
             "--seed", 34, "--out", "weights.txt")
        step("report-weights", "--weights", "weights.txt", "--presence", "presence.jsonl",
             "--out", "report.tsv")
        step("report-weights", "--weights", "weights.txt", "--presence", "presence.jsonl")
        step("richness", "--presence", "presence.jsonl", "--weights", "weights.txt",
             "--manifest", "rep.manifest.jsonl", "--out", "qmf_wcu.jsonl")
        step("richness", "--presence", "presence.jsonl", "--manifest", "partial.jsonl",
             "--out", "qmf_partial.jsonl")
        step("stats", "--qmf", "qmf.jsonl")
        step("stats", "--qmf", "qmf_partial.jsonl")
        step("calibrate", "--scores", "scores.tsv", "--qmf", "qmf_wcu.jsonl", "--features", "raw,lns,wcu",
             "--folds", 3, "--seed", 35, "--out-scores", "cal.tsv", "--out-models", "model")
        step("calibrate", "--scores", "scores.tsv", "--qmf", "nolns.jsonl", "--features", "raw,lns",
             "--folds", 2, "--seed", 36, "--out-scores", "cal_nolns.tsv", "--out-models", "nolns")
        (tmp_path / "stdout.txt").write_text("".join(stdout))
        # the correlation report over the richness QMF file: cu, lns, net_speech and wcu per test
        step("evaluate", "--scores", "scores.tsv", "--qmf", "qmf_wcu.jsonl",
             "--correlation-out", "scatter.csv")
        (tmp_path / "evaluate_stdout.txt").write_text(stdout.pop())
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.iterdir()) if p.name not in inputs}
        assert digests == self.DIGESTS
        for built_in, from_file in (("scores.tsv", "scores_lex.tsv"), ("qmf.jsonl", "qmf_lex.jsonl")):
            assert (tmp_path / built_in).read_text().partition("\n")[2] == \
                (tmp_path / from_file).read_text().partition("\n")[2]


class TestQmfProducersAgree:
    """simulate --out-qmf and g2p -> richness --manifest write the same QMF record for each test of
    one protocol, whether simulate uses its built-in vocabulary or the same words as a lexicon file."""

    @pytest.mark.parametrize("with_lexicon", [False, True], ids=["built-in-vocabulary", "lexicon-file"])
    def test_records_are_equal_by_test_id(self, tmp_path, with_lexicon):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(demo_lexicon_lines())
        corpus, prefix = tmp_path / "corpus.jsonl", tmp_path / "rep"
        assert run(["make-demo", "--speakers", 6, "--seed", 41, "--out", corpus]) == 0
        assert run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive",
                    "--probes-per-speaker", 30, "--seed", 42, "--out-prefix", prefix]) == 0
        assert run(["simulate", "--trials", f"{prefix}.trials.tsv", "--manifest", f"{prefix}.manifest.jsonl",
                    "--models", f"{prefix}.models.jsonl", "--seed", 43,
                    *(["--lexicon", lexicon] if with_lexicon else []),
                    "--out-scores", tmp_path / "scores.tsv", "--out-qmf", tmp_path / "simulated.jsonl"]) == 0
        manifest = read_jsonl(f"{prefix}.manifest.jsonl")
        write_transcripts(tmp_path / "transcripts.jsonl", [(m["test_id"], m["transcript"]) for m in manifest])
        assert run(["g2p", "--transcripts", tmp_path / "transcripts.jsonl", "--lexicon", lexicon,
                    "--out", tmp_path / "presence.jsonl"]) == 0
        assert run(["richness", "--presence", tmp_path / "presence.jsonl", "--manifest",
                    f"{prefix}.manifest.jsonl", "--out", tmp_path / "richness.jsonl"]) == 0
        simulated, computed = ({rec["test_id"]: rec for rec in read_jsonl(tmp_path / name)}
                               for name in ("simulated.jsonl", "richness.jsonl"))
        assert len(simulated) == len(manifest) == 6 * 30
        assert simulated == computed


SCORES_HEADER = "# provenance\nmodel_id\ttest_id\tlabel\traw_score\n"
GOOD_ROWS = ["m1\tt1\ttarget\t0.9", "m1\tt2\tnontarget\t0.1", "m2\tt2\ttarget\t0.8",
             "m2\tt1\tnontarget\t0.2"]


def only_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured


class TestFolds:
    @pytest.fixture
    def inputs(self, tmp_path):
        rows = [f"m{i % 3}\tt{i}\t{'target' if i % 4 == 0 else 'nontarget'}\t{0.01 * i}"
                for i in range(40)]
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(rows) + "\n")
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text("\n".join(json.dumps({"test_id": f"t{i}", "cu": float(i % 7)})
                                 for i in range(40)) + "\n")
        return scores, qmf

    @pytest.mark.parametrize("folds", [0, -1])
    def test_evaluate_rejects_folds_below_one(self, inputs, folds, capsys):
        scores, qmf = inputs
        assert run(["evaluate", "--scores", scores, "--qmf", qmf, "--features", "raw,cu",
                    "--folds", folds]) == 1
        captured = only_error_line(capsys)
        assert "--folds" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("folds", [0, -1])
    def test_calibrate_rejects_folds_below_one(self, inputs, folds, tmp_path, capsys):
        scores, qmf = inputs
        out = tmp_path / "cal.tsv"
        assert run(["calibrate", "--scores", scores, "--qmf", qmf, "--features", "raw,cu",
                    "--folds", folds, "--seed", 1, "--out-scores", out]) == 1
        assert "--folds" in only_error_line(capsys).err
        assert not out.exists()


class TestLrOverflow:
    """A feature value too large for the LR fit stops calibrate and evaluate with one error line,
    naming the inputs, and no numpy warning: the Hessian overflows in a fold that fits on it, and
    the out-of-fold score in a fold that only scores it. Test t0 (a target) holds the value; its
    fold, and so which product meets it first, depends on the seed."""

    @pytest.mark.parametrize("cu, seed", [("1e300", 1), ("1.7e308", 3)], ids=["hessian", "out-of-fold-score"])
    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    def test_is_one_error_line(self, tmp_path, capsys, command, cu, seed):
        rows = [f"m{i % 3}\tt{i}\t{'target' if i % 4 == 0 else 'nontarget'}\t{0.01 * i}" for i in range(40)]
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(rows) + "\n")
        # cu separates the classes, so its coefficient is large enough to overflow a score
        qmf = tmp_path / "qmf.jsonl"
        cus = [cu] + [(i % 4 == 0) + 0.1 * (i % 3) for i in range(1, 40)]
        qmf.write_text("".join(f'{{"test_id": "t{i}", "cu": {value}}}\n' for i, value in enumerate(cus)))
        outputs = {"calibrate": ["--out-scores", tmp_path / "out.tsv", "--out-models", tmp_path / "out"],
                   "evaluate": ["--out", tmp_path / "out.tsv"]}[command]
        assert run([command, "--scores", scores, "--qmf", qmf, "--features", "raw,cu", "--folds", 2,
                    "--seed", seed, *outputs]) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {scores}, {qmf}: a value is too large to compute with "
                                f"(overflow encountered in matmul)\n")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestScoresFile:
    """A malformed scores file fails with one error line naming the file and line."""

    def evaluate(self, tmp_path, rows):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(rows) + "\n")
        return scores, run(["evaluate", "--scores", scores, "--features", "none"])

    @pytest.mark.parametrize("row, message", [
        ("m3\tt3\ttarget", "expected 4 tab-separated fields, got 3"),
        ("m3\tt3\ttarget\t0.5\textra", "expected 4 tab-separated fields, got 5"),
        ("m3\tt3\timpostor\t0.5", "label must be target/nontarget"),
        ("m3\tt3\ttarget\tnan", "non-finite score"),
        ("m3\tt3\tnontarget\t-inf", "non-finite score"),
        ("m3\tt3\ttarget\tabc", "score is not a number"),
        ("m1\tt2\ttarget\t0.5", "duplicate trial (m1, t2), first at line 4"),
    ], ids=["short-row", "long-row", "bad-label", "nan-score", "inf-score", "text-score",
            "duplicate"])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, row, message):
        # the bad row is the fourth data row, line 6 after the comment and the header
        scores, code = self.evaluate(tmp_path, GOOD_ROWS[:3] + [row] + GOOD_ROWS[3:])
        assert code == 1
        err = only_error_line(capsys).err
        assert f"{scores}:6: " in err
        assert message in err

    def test_comment_lines_keep_line_numbers(self, tmp_path, capsys):
        scores, code = self.evaluate(tmp_path, GOOD_ROWS[:1] + ["# note", ""] + ["m3\tt3\tx\t0.5"])
        assert code == 1
        assert f"{scores}:6: " in only_error_line(capsys).err

    def test_valid_file_reads(self, tmp_path, capsys):
        scores, code = self.evaluate(tmp_path, GOOD_ROWS)
        assert code == 0
        trials = read_scores(scores)
        assert [m for m, _, _ in trial_rows(trials)] == ["m1", "m1", "m2", "m2"]
        assert trials.is_target.tolist() == [True, False, True, False]
        assert trials.scores.tolist() == [0.9, 0.1, 0.8, 0.2]


class TestQmfFile:
    """A QMF record that is not an object with a test_id fails with one error line naming it."""

    @pytest.mark.parametrize("record, message", [
        ('{"cu": 3}', "record has no test_id"),
        ("3", "expected a JSON object, got 3"),
    ], ids=["no-test-id", "not-an-object"])
    @pytest.mark.parametrize("command", ["evaluate", "stats"])
    def test_bad_record_names_file_and_line(self, tmp_path, capsys, command, record, message):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(GOOD_ROWS) + "\n")
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text('# provenance\n{"test_id": "t1", "cu": 5, "net_speech": 2.0}\n' + record + "\n")
        argv = {"evaluate": ["evaluate", "--scores", scores, "--qmf", qmf, "--features", "none"],
                "stats": ["stats", "--qmf", qmf]}[command]
        assert run(argv) == 1
        captured = only_error_line(capsys)
        assert f"{qmf}:3: " in captured.err
        assert message in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("value", [True, "7", None, [1]], ids=["true", "string", "null", "list"])
    @pytest.mark.parametrize("command", ["evaluate", "stats"])
    def test_non_number_value_names_file_and_line(self, tmp_path, capsys, command, value):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(GOOD_ROWS) + "\n")
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text('# provenance\n{"test_id": "t1", "cu": 5, "net_speech": 2.0}\n'
                       + json.dumps({"test_id": "t2", "cu": value, "net_speech": 3.0}) + "\n")
        argv = {"evaluate": ["evaluate", "--scores", scores, "--qmf", qmf, "--features", "none"],
                "stats": ["stats", "--qmf", qmf]}[command]
        assert run(argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {qmf}:3: cu must be a number, got {json.dumps(value)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", [0, -3], ids=["zero", "negative"])
    @pytest.mark.parametrize("command", ["stats", "evaluate", "calibrate"])
    def test_net_speech_must_be_positive(self, tmp_path, capsys, command, value):
        """net_speech, from which lns is derived, is a positive number here as in every other file."""
        scores = tmp_path / "scores.tsv"  # five targets and five nontargets, enough for calibrate's 5 folds
        scores.write_text(SCORES_HEADER + "".join(f"m{k}\tt1\ttarget\t0.{k}\nm{k}\tt2\tnontarget\t-0.{k}\n"
                                                  for k in range(1, 6)))
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text('# provenance\n{"test_id": "t1", "cu": 5, "net_speech": 2.0}\n'
                       + json.dumps({"test_id": "t2", "cu": 7, "net_speech": value}) + "\n")
        argv = {"stats": ["stats", "--qmf", qmf],
                "evaluate": ["evaluate", "--scores", scores, "--qmf", qmf, "--features", "lns"],
                "calibrate": ["calibrate", "--scores", scores, "--qmf", qmf, "--features", "lns", "--seed", "1",
                              "--out-scores", tmp_path / "out.tsv"]}[command]
        assert run(argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {qmf}:3: net_speech must be a positive number, got {value}\n"
        assert captured.out == ""
        assert not (tmp_path / "out.tsv").exists()



class TestNonFiniteNumbers:
    """NaN, Infinity and -Infinity are not JSON, and a number literal too large for a float is
    not finite: each fails with one error line naming the file, line and key."""

    @pytest.mark.parametrize("command", ["stats", "evaluate"])
    @pytest.mark.parametrize("text, shown", [("NaN", "NaN"), ("-Infinity", "-Infinity"), ("1e999", "Infinity")],
                             ids=["nan", "minus-infinity", "overflow"])
    def test_qmf_value_names_file_and_line(self, tmp_path, capsys, command, text, shown):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(GOOD_ROWS) + "\n")
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text('# provenance\n{"test_id": "t1", "cu": 5, "net_speech": 2.0}\n'
                       '{"test_id": "t2", "cu": %s, "net_speech": 3.0}\n' % text)
        scatter = tmp_path / "scatter.csv"
        argv = {"evaluate": ["evaluate", "--scores", scores, "--qmf", qmf, "--features", "none",
                             "--correlation-out", scatter],
                "stats": ["stats", "--qmf", qmf]}[command]
        assert run(argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {qmf}:3: cu must be a finite number, got {shown}\n"
        assert captured.out == ""
        assert not scatter.exists()

    def test_net_speech_summing_to_infinity_is_not_written(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = [dict(VALID_RECORDS["corpus"], utterance_id=f"s{k}", net_speech=1e308) for k in range(2)]
        records += [dict(VALID_RECORDS["corpus"], utterance_id=f"w{r}", kind="word", word_text="cat",
                         repetition_index=r) for r in range(1, 11)]
        corpus.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive", "--probes-per-speaker", 2,
                    "--seed", 1, "--out-prefix", tmp_path / "rep"]) == 1
        captured = only_error_line(capsys)
        assert captured.err == "error: model a: net_speech of its recordings sums to inf, not a finite number\n"
        assert not list(tmp_path.glob("rep.*"))

    def test_integer_too_long_to_read_names_file_and_line(self, tmp_path, capsys):
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text('{"test_id": "t1", "cu": 5, "net_speech": 2.0}\n{"test_id": "t2", "cu": %s}\n' % ("7" * 5000))
        assert run(["stats", "--qmf", qmf]) == 1
        captured = only_error_line(capsys)
        assert captured.err.startswith(f"error: {qmf}:2: malformed JSONL line: Exceeds the limit")

    def test_simulate_manifest_infinity_names_file_and_line(self, tmp_path, small_inputs, capsys):
        path = small_inputs["manifest"]
        path.write_text(json.dumps(dict(VALID_RECORDS["manifest"], net_speech=float("inf"))) + "\n")
        assert run_with(tmp_path, small_inputs, SIMULATE) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:1: net_speech must be a finite number, got Infinity\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))

class TestEvaluateOutputOrder:
    def test_failed_correlation_report_prints_and_writes_nothing(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "m1\tt1\ttarget\t0.9\nm1\tt2\tnontarget\t0.1\n")
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text('{"test_id": "t1", "cu": 5}\n{"test_id": "t2", "cu": 7}\n')
        out, scatter = tmp_path / "eval.tsv", tmp_path / "scatter.csv"
        assert run(["evaluate", "--scores", scores, "--qmf", qmf, "--features", "none",
                    "--out", out, "--correlation-out", scatter]) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {qmf}: cu has one target trial: Kendall's tau-b needs at least 2\n"
        assert captured.out == ""
        assert not out.exists()
        assert not scatter.exists()


class TestClipBaseTrials:
    """gen-protocol --protocol clip --base-trials: models are the corpus speakers' enrollments."""

    def gen(self, tmp_path, rows):
        corpus = tmp_path / "corpus.jsonl"
        assert run(["make-demo", "--speakers", 4, "--seed", 1, "--out", corpus]) == 0
        base = tmp_path / "base.tsv"
        base.write_text("model_id\ttest_id\tlabel\n" + "".join(f"{m}\t{t}\t{lab}\n" for m, t, lab in rows))
        prefix = tmp_path / "clip"
        code = run(["gen-protocol", "--corpus", corpus, "--protocol", "clip", "--target", 2.0,
                    "--base-trials", base, "--seed", 5, "--out-prefix", prefix])
        return code, prefix

    def test_valid_base_trials(self, tmp_path, capsys):
        code, prefix = self.gen(tmp_path, [("spk000", "spk000_sent0", "target"),
                                           ("spk001", "spk000_sent0", "nontarget")])
        assert code == 0
        _, rows = read_tsv(f"{prefix}.trials.tsv")
        assert rows == [["spk000", "spk000_sent0@2s", "target"],
                        ["spk001", "spk000_sent0@2s", "nontarget"]]
        models = read_jsonl(f"{prefix}.models.jsonl")
        assert [m["model_id"] for m in models] == ["spk000", "spk001", "spk002", "spk003"]
        assert all(m["model_id"] == m["speaker_id"] for m in models)
        scores = tmp_path / "scores.tsv"
        assert run(["simulate", "--trials", f"{prefix}.trials.tsv", "--manifest", f"{prefix}.manifest.jsonl",
                    "--models", f"{prefix}.models.jsonl", "--seed", 3, "--out-scores", scores,
                    "--out-qmf", tmp_path / "qmf.jsonl"]) == 0
        assert [m for m, _, _ in trial_rows(read_scores(scores))] == ["spk000", "spk001"]

    @pytest.mark.parametrize("row, message", [
        (("nobody", "spk000_sent0", "target"), "trial (nobody, spk000_sent0@2s) names an unknown model"),
        (("spk000", "nothing", "target"), "trial (spk000, nothing) names an unknown test"),
        (("spk001", "spk000_sent0", "impostor"), "label must be target/nontarget, got 'impostor'"),
    ], ids=["unknown-model", "unknown-test", "bad-label"])
    def test_bad_base_trial_is_one_error_line(self, tmp_path, capsys, row, message):
        code, prefix = self.gen(tmp_path, [row])
        assert code == 1
        assert message in only_error_line(capsys).err
        assert not (tmp_path / "clip.trials.tsv").exists()


class TestPinnedStall:
    """The protocol on which two LR folds stall at a floating-point fixed point.

    Seeds 1046-1049, 50 speakers x 10 probes with every matching-gender
    impostor, features raw,lns,wcu, 5 folds. Folds 0 and 1 reach a Newton
    step that no longer changes the coefficients, short of the gradient
    tolerance; the fit must stop there with the coefficients it had.
    """

    # .17g values written by the fit that replayed the fixed point to MAX_ITER
    FROZEN = {
        0: ["-5.2612405617668072", "21.23107609957902", "-0.20838762912134212",
            "-2.4265128691677829"],
        1: ["-5.3344026912116309", "22.262311400470558", "-0.54474050837154298",
            "-2.2993510754160873"],
    }

    def test_stalled_folds_stop_early_with_frozen_coefficients(self, tmp_path, monkeypatch):
        import numpy as np

        from phonrich import calibration

        corpus, prefix = tmp_path / "corpus.jsonl", tmp_path / "rep"
        scores, presence = tmp_path / "scores.tsv", tmp_path / "presence.jsonl"
        weights, qmf = tmp_path / "weights.txt", tmp_path / "qmf.jsonl"
        assert run(["make-demo", "--speakers", 50, "--seed", 1046, "--out", corpus]) == 0
        assert run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive",
                    "--probes-per-speaker", 10, "--seed", 1047, "--out-prefix", prefix]) == 0
        assert run(["simulate", "--trials", f"{prefix}.trials.tsv",
                    "--manifest", f"{prefix}.manifest.jsonl", "--models", f"{prefix}.models.jsonl",
                    "--seed", 1048, "--out-scores", scores, "--out-qmf", tmp_path / "sim.jsonl"]) == 0
        transcripts, lexicon = tmp_path / "tr.jsonl", tmp_path / "lex.txt"
        write_transcripts(transcripts, [(m["test_id"], m["transcript"])
                                        for m in read_jsonl(f"{prefix}.manifest.jsonl")])
        lexicon.write_text(demo_lexicon_lines())
        assert run(["g2p", "--transcripts", transcripts, "--lexicon", lexicon, "--out", presence]) == 0
        assert run(["fit-weights", "--presence", presence, "--scores", scores, "--out", weights]) == 0
        assert run(["richness", "--presence", presence, "--weights", weights,
                    "--manifest", f"{prefix}.manifest.jsonl", "--out", qmf]) == 0

        solves = []
        solve, fit_lr = np.linalg.solve, calibration.fit_lr

        def counted_solve(*args, **kwargs):
            solves[-1] += 1
            return solve(*args, **kwargs)

        def counted_fit(*args, **kwargs):
            solves.append(0)
            return fit_lr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(calibration, "fit_lr", counted_fit)
        assert run(["calibrate", "--scores", scores, "--qmf", qmf, "--features", "raw,lns,wcu",
                    "--folds", 5, "--seed", 1049, "--out-scores", tmp_path / "cal.tsv",
                    "--out-models", tmp_path / "model"]) == 0
        assert len(solves) == 5
        for fold, frozen in self.FROZEN.items():
            fields = read_model_fields(tmp_path / f"model.fold{fold}.txt")
            assert fields["converged"] == "0"
            assert solves[fold] < calibration.MAX_ITER
            assert [fields[key] for key in ("intercept", "coef:raw", "coef:lns", "coef:wcu")] == frozen


class TestFeatureNames:
    """Every --features row is parsed, and the --qmf need checked, before any input is read."""

    @pytest.fixture
    def inputs(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "\n".join(GOOD_ROWS) + "\n")
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text("".join(json.dumps({"test_id": t, "cu": 3.0}) + "\n" for t in ("t1", "t2")))
        return scores, qmf

    def test_evaluate_unknown_feature_in_last_row(self, inputs, tmp_path, capsys):
        scores, qmf = inputs
        out = tmp_path / "eval.tsv"
        assert run(["evaluate", "--scores", scores, "--qmf", qmf, "--features", "raw",
                    "--features", "raw,foo", "--out", out]) == 1
        captured = only_error_line(capsys)
        assert "unknown features ['foo']" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_calibrate_unknown_feature(self, inputs, tmp_path, capsys):
        scores, qmf = inputs
        out = tmp_path / "cal.tsv"
        assert run(["calibrate", "--scores", scores, "--qmf", qmf, "--features", "foo",
                    "--seed", 1, "--out-scores", out]) == 1
        assert "unknown features ['foo']" in only_error_line(capsys).err
        assert not out.exists()

    def test_rows_are_labelled_by_the_fit_model(self, inputs, tmp_path, capsys):
        """A feature set in any order, or with a name repeated, fits and is labelled as the canonical one."""
        scores, qmf = inputs
        argv = ["evaluate", "--scores", scores, "--qmf", qmf, "--folds", 2]
        assert run(argv + ["--features", "raw,cu", "--features", "cu,raw", "--features", "raw,raw,cu"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3 and rows[0].startswith("raw,cu\t") and rows[1:] == rows[:1] * 2
        assert run(["calibrate", "--scores", scores, "--qmf", qmf, "--features", "cu,raw", "--folds", 2,
                    "--seed", 1, "--out-scores", tmp_path / "cal.tsv"]) == 0
        assert capsys.readouterr().out == "calibrate: features=raw,cu folds=2 trials=4\n"

    @pytest.mark.parametrize("features, message", [
        (["raw", "raw,foo"], "unknown features ['foo']"),
        (["raw", "raw,cu"], "--qmf is required"),
    ], ids=["unknown-feature", "no-qmf"])
    def test_evaluate_flags_fail_before_a_bad_scores_file(self, tmp_path, capsys, features, message):
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORES_HEADER + "m1\tt1\ttarget\n")
        argv = ["evaluate", "--scores", scores]
        for f in features:
            argv += ["--features", f]
        assert run(argv) == 1
        assert message in only_error_line(capsys).err


def presence_record(utterance_id, phonemes):
    bits = "".join("1" if sym in phonemes else "0" for sym in ARPABET_39)
    return {"utterance_id": utterance_id, "phonemes": list(phonemes), "bits": bits}


# one valid record of each JSONL input; a test writes it as line 1 of the file
VALID_RECORDS = {
    "transcripts": {"utterance_id": "t1", "transcript": "cat"},
    "presence": presence_record("t1", ("K", "AE", "T")),
    "manifest": {"test_id": "t1", "speaker_id": "a", "transcript": "cat", "net_speech": 1.0,
                 "source_ids": ["u0"]},
    "models": {"model_id": "a", "speaker_id": "a", "net_speech": 10.0, "source_ids": ["u0"]},
    "corpus": {"utterance_id": "u0", "speaker_id": "a", "kind": "sentence", "net_speech": 1.0,
               "transcript": "cat", "word_durations": [1.0], "gender": "m"},
    "qmf": {"test_id": "t1", "cu": 3.0, "net_speech": 1.0},
}


@pytest.fixture
def small_inputs(tmp_path, lexicon):
    """Valid inputs of every kind, each named by the token that stands for it in an argv."""
    files = {"lexicon": lexicon}
    for name, record in VALID_RECORDS.items():
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(json.dumps(record) + "\n")
    files["scores"] = tmp_path / "scores.tsv"
    files["scores"].write_text(SCORES_HEADER + "\n".join(GOOD_ROWS) + "\n")
    files["weights"] = tmp_path / "weights.txt"
    files["weights"].write_text("".join(f"{sym}\t1\n" for sym in ARPABET_39))
    files["trials"] = tmp_path / "trials.tsv"
    files["trials"].write_text("model_id\ttest_id\tlabel\na\tt1\ttarget\n")
    return files


def run_with(tmp_path, files, argv):
    """Run argv with input tokens replaced by their paths; 'out*' tokens name outputs."""
    return run([files.get(a, tmp_path / a if a.startswith("out") else a) for a in argv])


G2P = ["g2p", "--transcripts", "transcripts", "--lexicon", "lexicon", "--out", "out"]
RICHNESS = ["richness", "--presence", "presence", "--manifest", "manifest", "--out", "out"]
FIT_WEIGHTS = ["fit-weights", "--presence", "presence", "--scores", "scores", "--out", "out"]
REPORT_WEIGHTS = ["report-weights", "--weights", "weights", "--presence", "presence", "--out", "out"]
GEN_PROTOCOL = ["gen-protocol", "--corpus", "corpus", "--protocol", "repetitive", "--seed", "1",
                "--out-prefix", "out"]
SIMULATE = ["simulate", "--trials", "trials", "--manifest", "manifest", "--models", "models",
            "--seed", "1", "--out-scores", "out.tsv", "--out-qmf", "out.jsonl"]
CLIP = ["gen-protocol", "--corpus", "corpus", "--protocol", "clip", "--seed", "1", "--out-prefix", "out"]


class TestClipTarget:
    """gen-protocol --protocol clip refuses a --target that is not a finite number > 0, naming the flag."""

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf", "0", "-1"])
    def test_is_one_error_line(self, tmp_path, small_inputs, capsys, target):
        assert run_with(tmp_path, small_inputs, CLIP + [f"--target={target}"]) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: --target must be a finite number > 0, got {target}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestWordDurations:
    """A corpus record whose word_durations holds an item that is not a finite number > 0 fails
    with its file and line: a clip would never reach its target, or sum to infinity."""

    @pytest.mark.parametrize("durations, message", [
        ("[0, 0]", "word_durations must be a list of positive numbers or null, got [0, 0]"),
        ("[-1.0, 0.5]", "word_durations must be a list of positive numbers or null, got [-1.0, 0.5]"),
        ("[1e999, 1.0]", "word_durations must be a list of positive numbers or null, got [Infinity, 1.0]"),
        ("[true, true]", "word_durations must be a list of positive numbers or null, got [true, true]"),
    ], ids=["zero", "negative", "infinite", "booleans"])
    def test_is_one_error_line(self, tmp_path, small_inputs, capsys, durations, message):
        path = small_inputs["corpus"]
        record = json.dumps(dict(VALID_RECORDS["corpus"], transcript="cat cat", word_durations=None))
        path.write_text(record.replace("null", durations) + "\n")
        assert run_with(tmp_path, small_inputs, CLIP + ["--target", "2"]) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:1: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestRepetitiveClipFlags:
    """gen-protocol --protocol repetitive reads neither --base-trials nor --target, and
    --protocol clip neither --probes-per-speaker nor --negatives-per-probe: each refuses the
    other's flags."""

    @pytest.mark.parametrize("argv, named, protocol", [
        (GEN_PROTOCOL + ["--base-trials", "trials"], "--base-trials", "clip"),
        (GEN_PROTOCOL + ["--target", "3"], "--target", "clip"),
        (GEN_PROTOCOL + ["--base-trials", "trials", "--target", "3"], "--base-trials", "clip"),
        (CLIP + ["--target", "3", "--probes-per-speaker", "7"], "--probes-per-speaker", "repetitive"),
        (CLIP + ["--target", "3", "--negatives-per-probe", "5"], "--negatives-per-probe", "repetitive"),
        (CLIP + ["--target", "3", "--negatives-per-probe", "5", "--probes-per-speaker", "7"],
         "--probes-per-speaker", "repetitive"),
        (CLIP + ["--probes-per-speaker", "100"], "--probes-per-speaker", "repetitive"),
    ], ids=["base-trials", "target", "both", "clip-probes-per-speaker", "clip-negatives-per-probe",
            "clip-both", "clip-default-probes-per-speaker"])
    def test_is_one_error_line(self, tmp_path, small_inputs, capsys, argv, named, protocol):
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {named} is for the {protocol} protocol only\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))

    def test_repetitive_draws_100_probes_per_speaker_by_default(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        assert run(["make-demo", "--speakers", 2, "--seed", 1, "--out", corpus]) == 0
        assert run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive", "--seed", 2,
                    "--out-prefix", tmp_path / "rep"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("gen-protocol: 200 positive, ")


class TestJsonlRequiredKeys:
    """A JSONL record without a key its command reads fails with one error line naming it."""

    @pytest.mark.parametrize("argv, bad, record, key", [
        (G2P, "transcripts", {"utterance_id": "u1"}, "transcript"),
        (RICHNESS, "presence", {"utterance_id": "t2", "phonemes": []}, "bits"),
        (RICHNESS, "manifest", {"test_id": "t2"}, "net_speech"),
        (FIT_WEIGHTS, "presence", {"bits": "0" * 39}, "utterance_id"),
        (REPORT_WEIGHTS, "presence", {"utterance_id": "t2", "bits": "0" * 39}, "phonemes"),
        (GEN_PROTOCOL, "corpus", {"kind": "word"}, "utterance_id"),
        (SIMULATE, "manifest", {"test_id": "t2", "speaker_id": "a", "transcript": "cat",
                                "net_speech": 1.0}, "source_ids"),
        (SIMULATE, "models", {"model_id": "b", "net_speech": 1.0, "source_ids": []}, "speaker_id"),
    ], ids=["g2p-transcripts", "richness-presence", "richness-manifest", "fit-weights-presence",
            "report-weights-presence", "gen-protocol-corpus", "simulate-manifest", "simulate-models"])
    def test_missing_key_names_file_and_line(self, tmp_path, small_inputs, capsys, argv, bad, record, key):
        path = small_inputs[bad]
        path.write_text(json.dumps(VALID_RECORDS[bad]) + "\n" + json.dumps(record) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:2: record has no {key}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestReportWeightsPhonemes:
    """A phoneme list holding anything but ARPABET-39 symbols fails report-weights with its file and line."""

    def test_unknown_phoneme_is_one_error_line(self, tmp_path, small_inputs, capsys):
        path = small_inputs["presence"]
        path.write_text(json.dumps(presence_record("t1", ("XX",))) + "\n")
        assert run_with(tmp_path, small_inputs, REPORT_WEIGHTS) == 1
        captured = only_error_line(capsys)
        assert captured.err == f'error: {path}:1: phonemes must be a list of ARPABET-39 symbols, got ["XX"]\n'
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_phoneme_names_file_and_line(self, tmp_path, small_inputs, capsys):
        path = small_inputs["presence"]
        path.write_text("# provenance\n" + json.dumps(VALID_RECORDS["presence"]) + "\n\n"
                        + json.dumps(presence_record("u1", ("K", "XX"))) + "\n")
        assert run_with(tmp_path, small_inputs, REPORT_WEIGHTS) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {path}:4: phonemes must be a list of ARPABET-39 symbols, "
                                'got ["K", "XX"]\n')
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("phonemes", [["T", "k"], ["K", 5], ["K", None]],
                             ids=["lower-case", "number", "null"])
    def test_bad_phoneme_names_file_and_line(self, tmp_path, small_inputs, capsys, phonemes):
        path = small_inputs["presence"]
        bad = dict(VALID_RECORDS["presence"], utterance_id="u1", phonemes=phonemes)
        path.write_text("# provenance\n" + json.dumps(VALID_RECORDS["presence"]) + "\n\n"
                        + json.dumps(bad) + "\n")
        assert run_with(tmp_path, small_inputs, REPORT_WEIGHTS) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {path}:4: phonemes must be a list of ARPABET-39 symbols, "
                                f"got {json.dumps(phonemes)}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestCorpusRecords:
    """A corpus record gen-protocol cannot use fails with one error line naming its file and line."""

    WORD = dict(VALID_RECORDS["corpus"], utterance_id="u1", kind="word", word_text="cat",
                repetition_index=1, word_durations=None)

    @pytest.mark.parametrize("changes, message", [
        ({"repetition_index": "x"}, 'repetition_index must be a 64-bit integer, got "x"'),
        ({"net_speech": 0}, "net_speech must be a positive number, got 0"),
        ({"repetition_index": 0}, "u1: word recordings need repetition_index >= 1"),
        ({"repetition_index": 2 ** 63}, "repetition_index must be a 64-bit integer, got 9223372036854775808"),
        ({"kind": "wrd"}, "u1: kind must be one of sentence|word|digit|free, got 'wrd'"),
        ({"transcript": 5}, "transcript must be a string, got 5"),
        ({"word_durations": ["0.5"]}, 'word_durations must be a list of positive numbers or null, got ["0.5"]'),
    ], ids=["repetition-index-not-integer", "net-speech-zero", "word-repetition-zero", "repetition-index-64-bits",
            "unknown-kind",
            "transcript-not-string", "word-durations-not-numbers"])
    def test_bad_record_names_file_and_line(self, tmp_path, small_inputs, capsys, changes, message):
        path = small_inputs["corpus"]
        path.write_text("# provenance\n" + json.dumps(VALID_RECORDS["corpus"]) + "\n\n"
                        + json.dumps(dict(self.WORD, **changes)) + "\n")
        assert run_with(tmp_path, small_inputs, GEN_PROTOCOL) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:4: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestTrialList:
    """simulate --trials and gen-protocol --base-trials share one trial-list reader."""

    COMMANDS = {
        "simulate": (SIMULATE, "trials", "a", "t1"),
        "gen-protocol": (["gen-protocol", "--corpus", "corpus", "--protocol", "clip", "--target", "0.5",
                          "--base-trials", "trials", "--seed", "1", "--out-prefix", "out"],
                         "trials", "a", "u0"),
    }

    @pytest.mark.parametrize("rows, line, message", [
        (["model\ttest\tlabel", "{m}\t{t}\ttarget"], 2,
         "expected columns ['model_id', 'test_id', 'label'], got ['model', 'test', 'label']"),
        (["model_id\ttest_id\tlabel", "{m}\t{t}\ttarget", "{m}\t{t}"], 4,
         "expected 3 tab-separated fields, got 2"),
        (["model_id\ttest_id\tlabel", "{m}\t{t}\tnontargt"], 3,
         "label must be target/nontarget, got 'nontargt'"),
        (["model_id\ttest_id\tlabel", "{m}\t{t}\ttarget", "", "{m}\t{t}\ttarget"], 5,
         "duplicate trial ({m}, {t}), first at line 3"),
    ], ids=["header", "short-row", "label", "duplicate"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_trial_list_names_file_and_line(self, tmp_path, small_inputs, capsys,
                                                command, rows, line, message):
        argv, trials, m, t = self.COMMANDS[command]
        path = small_inputs[trials]
        path.write_text("# provenance\n" + "\n".join(rows).format(m=m, t=t) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:{line}: {message.format(m=m, t=t)}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


    # per command: records that add speaker b with a test of its own, that test's id in the
    # trial list, and how test t reads in the protocol the command builds
    SPEAKER_B = {
        "simulate": ({"manifest": dict(VALID_RECORDS["manifest"], test_id="t2", speaker_id="b"),
                      "models": dict(VALID_RECORDS["models"], model_id="b", speaker_id="b")},
                     "t2", "t1"),
        "gen-protocol": ({"corpus": dict(VALID_RECORDS["corpus"], utterance_id="u1", speaker_id="b")},
                         "u1", "u0@0.5s"),
    }

    @pytest.mark.parametrize("row, message", [
        ("{m}\tnothing\ttarget", "trial ({m}, nothing) names an unknown test"),
        ("nobody\t{t}\tnontarget", "trial (nobody, {shown}) names an unknown model"),
        ("b\t{t}\ttarget", "positive trial (b, {shown}) crosses speakers"),
        ("{m}\t{t}\tnontarget", "negative trial ({m}, {shown}) pairs a speaker with itself"),
    ], ids=["unknown-test", "unknown-model", "cross-speaker-target", "same-speaker-nontarget"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_inconsistent_trial_names_file_and_line(self, tmp_path, small_inputs, capsys,
                                                    command, row, message):
        argv, trials, m, t = self.COMMANDS[command]
        records, t2, shown = self.SPEAKER_B[command]
        for name, record in records.items():
            with open(small_inputs[name], "a") as f:
                f.write(json.dumps(record) + "\n")
        path = small_inputs[trials]
        path.write_text(f"# provenance\nmodel_id\ttest_id\tlabel\nb\t{t2}\ttarget\n"
                        + row.format(m=m, t=t) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:4: {message.format(m=m, shown=shown)}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestRepeatedIds:
    """An id repeated in a JSONL file keyed by that id fails at its second record."""

    @pytest.mark.parametrize("argv, bad, key", [
        (SIMULATE, "manifest", "test_id"),
        (SIMULATE, "models", "model_id"),
        (RICHNESS, "presence", "utterance_id"),
        (FIT_WEIGHTS, "presence", "utterance_id"),
        (G2P, "transcripts", "utterance_id"),
        (GEN_PROTOCOL, "corpus", "utterance_id"),
        (["stats", "--qmf", "qmf"], "qmf", "test_id"),
        (RICHNESS, "manifest", "test_id"),
        (REPORT_WEIGHTS, "presence", "utterance_id"),
    ], ids=["simulate-manifest", "simulate-models", "richness-presence", "fit-weights-presence",
            "g2p-transcripts", "gen-protocol-corpus", "stats-qmf", "richness-manifest",
            "report-weights-presence"])
    def test_repeated_id_names_both_lines(self, tmp_path, small_inputs, capsys, argv, bad, key):
        path = small_inputs[bad]
        record = json.dumps(VALID_RECORDS[bad])
        path.write_text(f"# provenance\n{record}\n\n{record}\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {path}:4: duplicate {key} {VALID_RECORDS[bad][key]!r}, "
                                f"first at line 2\n")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


CALIBRATE = ["calibrate", "--scores", "scores", "--qmf", "qmf", "--features", "raw", "--seed", "1",
             "--out-scores", "out.tsv"]
EVALUATE = ["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "raw", "--out", "out.tsv"]
MAKE_DEMO = ["make-demo", "--speakers", "2", "--seed", "1", "--out", "out"]


class TestFlagRanges:
    """A numeric flag outside its domain fails with one error line naming the flag and its value."""

    @pytest.mark.parametrize("argv, message", [
        (["make-demo", "--speakers", "0", "--seed", "1", "--out", "out"],
         "--speakers must be at least 1, got 0"),
        (GEN_PROTOCOL + ["--probes-per-speaker", "-3"],
         "--probes-per-speaker must be at least 1, got -3"),
        (GEN_PROTOCOL + ["--negatives-per-probe", "-1"],
         "--negatives-per-probe must be at least 0, got -1"),
    ], ids=["speakers", "probes-per-speaker", "negatives-per-probe"])
    def test_below_least_is_one_error_line(self, tmp_path, small_inputs, capsys, argv, message):
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv, message", [
        *(pytest.param(argv + ["--seed", "-1"], "--seed must be at least 0, got -1", id=f"seed-{name}")
          for name, argv in (("fit-weights", FIT_WEIGHTS), ("gen-protocol", GEN_PROTOCOL),
                             ("simulate", SIMULATE), ("calibrate", CALIBRATE), ("evaluate", EVALUATE),
                             ("make-demo", MAKE_DEMO))),
        *(pytest.param(SIMULATE + ["--sigma0", value], f"--sigma0 must be a finite number > 0, got {value}",
                       id=f"sigma0-{value}") for value in ("0", "nan", "inf")),
        *(pytest.param(SIMULATE + ["--kappa", value], f"--kappa must be a finite number >= 0, got {value}",
                       id=f"kappa-{value}") for value in ("-1", "nan", "inf")),
        pytest.param(SIMULATE + ["--dim", "1"], "--dim must be at least 2, got 1", id="dim-1"),
        pytest.param(CALIBRATE + ["--folds", "0"], "--folds must be at least 1, got 0", id="calibrate-folds-0"),
        pytest.param(EVALUATE + ["--folds", "0"], "--folds must be at least 1, got 0", id="evaluate-folds-0"),
    ])
    def test_outside_domain_is_one_error_line(self, tmp_path, small_inputs, capsys, argv, message):
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))

    def test_every_numeric_flag_has_a_domain(self):
        """cli.main range-checks each int and float flag from FLAG_DOMAINS, and nowhere else: a
        numeric flag missing from the table would reach the program unchecked."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        numeric = {a.dest for p in sub.choices.values() for a in p._actions if a.type in (int, float)}
        assert numeric == set(FLAG_DOMAINS)

    def test_noise_whose_norm_overflows_is_one_error_line(self, tmp_path, small_inputs, capsys):
        """An overflowing norm would turn every embedding into a zero vector and every score into 0."""
        assert run_with(tmp_path, small_inputs, SIMULATE + ["--sigma0", "1e200"]) == 1
        captured = only_error_line(capsys)
        assert captured.err == "error: an embedding's norm overflows: --sigma0 or --kappa is too large\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestMemoryError:
    """Running out of memory (numpy's _ArrayMemoryError is a MemoryError) is one error line."""

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
         "Unable to allocate 745. GiB for an array with shape (100000000000,)"),
        (MemoryError(), "MemoryError"),
    ], ids=["with-message", "bare"])
    def test_is_one_error_line(self, tmp_path, small_inputs, capsys, monkeypatch, exc, message):
        def cmd_stats(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_stats", cmd_stats)
        assert run_with(tmp_path, small_inputs, ["stats", "--qmf", "qmf"]) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestJsonlValueTypes:
    """A required JSONL value of the wrong JSON type fails with one error line naming it."""

    @pytest.mark.parametrize("argv, bad, key, value, kind", [
        (G2P, "transcripts", "transcript", 5, "string"),
        (RICHNESS, "presence", "bits", 5, "string of 39 0s and 1s"),
        (RICHNESS, "manifest", "net_speech", "abc", "positive number"),
        (FIT_WEIGHTS, "presence", "bits", 5, "string of 39 0s and 1s"),
        (REPORT_WEIGHTS, "presence", "phonemes", 5, "list of ARPABET-39 symbols"),
        (REPORT_WEIGHTS, "presence", "phonemes", ["K", ["AE"]], "list of ARPABET-39 symbols"),
        (SIMULATE, "manifest", "net_speech", True, "positive number"),
        # simulate checks these columns but does not keep them
        (SIMULATE, "manifest", "source_ids", "u0", "list"),
        (SIMULATE, "models", "net_speech", "x", "positive number"),
        # net speech of zero or below, whose log would be floored into a wrong lns, in each file that gives it
        (SIMULATE, "manifest", "net_speech", 0, "positive number"),
        (SIMULATE, "manifest", "net_speech", -3, "positive number"),
        (SIMULATE, "models", "net_speech", 0, "positive number"),
        (SIMULATE, "models", "net_speech", -3, "positive number"),
        (RICHNESS, "manifest", "net_speech", 0, "positive number"),
        (RICHNESS, "manifest", "net_speech", -3, "positive number"),
        (GEN_PROTOCOL, "corpus", "net_speech", 0, "positive number"),
        (GEN_PROTOCOL, "corpus", "net_speech", -3, "positive number"),
    ], ids=["g2p-transcript", "richness-bits", "richness-net-speech", "fit-weights-bits",
            "report-weights-phonemes", "report-weights-phoneme-list", "simulate-net-speech",
            "simulate-source-ids", "simulate-models-net-speech", "simulate-net-speech-zero",
            "simulate-net-speech-negative", "simulate-models-net-speech-zero", "simulate-models-net-speech-negative",
            "richness-net-speech-zero", "richness-net-speech-negative", "gen-protocol-net-speech-zero",
            "gen-protocol-net-speech-negative"])
    def test_wrong_type_names_file_and_line(self, tmp_path, small_inputs, capsys,
                                            argv, bad, key, value, kind):
        path = small_inputs[bad]
        record = dict(VALID_RECORDS[bad], **{key: value})
        path.write_text(json.dumps(VALID_RECORDS[bad]) + "\n" + json.dumps(record) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:2: {key} must be a {kind}, got {json.dumps(value)}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestPresenceBits:
    """A bad bitstring in a presence file fails richness and fit-weights with its file and line."""

    @pytest.mark.parametrize("bits", ["010", "0" * 38, "0" * 40, "0" * 38 + "2", "0" * 38 + " ",
                                      "0" * 38 + "\u00e9", ""],
                             ids=["length", "38-chars", "40-chars", "not-0-or-1", "trailing-space",
                                  "non-ascii", "empty"])
    @pytest.mark.parametrize("argv", [RICHNESS, FIT_WEIGHTS], ids=["richness", "fit-weights"])
    def test_bad_bits_names_file_and_line(self, tmp_path, small_inputs, capsys, argv, bits):
        path = small_inputs["presence"]
        bad = dict(VALID_RECORDS["presence"], utterance_id="t2", bits=bits)
        path.write_text("# provenance\n" + json.dumps(VALID_RECORDS["presence"]) + "\n\n"
                        + json.dumps(bad, ensure_ascii=False) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {path}:4: bits must be a string of 39 0s and 1s, "
                                f"got {json.dumps(bits)}\n")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv, key, value, kind", [
        (RICHNESS, "bits", "010", "string of 39 0s and 1s"),
        (FIT_WEIGHTS, "bits", "010", "string of 39 0s and 1s"),
        (REPORT_WEIGHTS, "phonemes", ["XX"], "list of ARPABET-39 symbols"),
    ], ids=["richness", "fit-weights", "report-weights"])
    def test_bad_record_before_a_repeated_id_is_named_first(self, tmp_path, small_inputs, capsys,
                                                            argv, key, value, kind):
        """Faults are found in file order: a bad record on line 2, not the repeat of line 1 on line 3."""
        path = small_inputs["presence"]
        valid = VALID_RECORDS["presence"]
        records = [valid, dict(valid, utterance_id="t2", **{key: value}), valid]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:2: {key} must be a {kind}, got {json.dumps(value)}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestJsonlLineBreaks:
    """JSONL lines end only at \\n, \\r\\n and \\r; a raw U+2028 inside a string is not a break."""

    def test_g2p_reads_a_raw_line_separator_in_a_transcript(self, tmp_path, small_inputs, capsys):
        small_inputs["transcripts"].write_text(
            json.dumps({"utterance_id": "u1", "transcript": "cat\u2028dog"}, ensure_ascii=False) + "\n")
        assert run_with(tmp_path, small_inputs, G2P) == 0
        assert read_jsonl(tmp_path / "out")[0]["phonemes"] == ["K", "AE", "T", "D", "AO", "G"]

    @pytest.mark.parametrize("argv", [RICHNESS, FIT_WEIGHTS], ids=["richness", "fit-weights"])
    def test_bad_bits_after_a_line_separator_names_its_line(self, tmp_path, small_inputs, capsys, argv):
        path = small_inputs["presence"]
        first = dict(VALID_RECORDS["presence"], transcript="cat\u2028")
        bad = dict(VALID_RECORDS["presence"], utterance_id="t2", bits="010")
        path.write_text(json.dumps(first, ensure_ascii=False) + "\n" + json.dumps(bad) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        assert only_error_line(capsys).err == (f"error: {path}:2: bits must be a string of 39 0s and 1s, "
                                               'got "010"\n')



class TestTsvLineBreaks:
    """TSV files end lines only at \\n, \\r\\n and \\r, as JSONL files do, so an id may hold U+2028."""

    @pytest.fixture
    def protocol(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert run(["make-demo", "--speakers", 4, "--seed", 1, "--out", corpus]) == 0
        records = read_jsonl(corpus)
        for rec in records:
            rec["speaker_id"] = rec["speaker_id"].replace("spk001", "spk\u2028001")
        corpus.write_text("".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records))
        prefix = tmp_path / "rep"
        assert run(["gen-protocol", "--corpus", corpus, "--protocol", "repetitive",
                    "--probes-per-speaker", 3, "--seed", 2, "--out-prefix", prefix]) == 0
        assert "\u2028" in (tmp_path / "rep.trials.tsv").read_text()
        return prefix

    def simulate(self, prefix):
        return run(["simulate", "--trials", f"{prefix}.trials.tsv", "--manifest", f"{prefix}.manifest.jsonl",
                    "--models", f"{prefix}.models.jsonl", "--seed", 3,
                    "--out-scores", f"{prefix}.scores.tsv", "--out-qmf", f"{prefix}.qmf.jsonl"])

    def test_an_id_holding_a_line_separator_runs_through(self, protocol, capsys):
        assert self.simulate(protocol) == 0
        assert "spk\u2028001" in read_scores(f"{protocol}.scores.tsv").models
        assert run(["stats", "--qmf", f"{protocol}.qmf.jsonl"]) == 0

    def test_bad_row_after_a_line_separator_names_its_line(self, protocol, capsys):
        trials = Path(f"{protocol}.trials.tsv")
        with open(trials, "a") as f:
            f.write("spk000\tspk000_probe00000\tmaybe\n")
        capsys.readouterr()
        assert self.simulate(protocol) == 1
        captured = only_error_line(capsys)
        line = trials.read_bytes().count(b"\n")
        assert captured.err == f"error: {trials}:{line}: label must be target/nontarget, got 'maybe'\n"

class TestWeightsFileLine:
    """A weights line that is not PHONEME<TAB>number fails with its file and line."""

    @pytest.mark.parametrize("argv", [RICHNESS + ["--weights", "weights"], REPORT_WEIGHTS],
                             ids=["richness", "report-weights"])
    @pytest.mark.parametrize("line", ["AE 1", "AE\tone"], ids=["no-tab", "not-a-number"])
    def test_malformed_line_names_file_and_line(self, tmp_path, small_inputs, capsys, argv, line):
        path = small_inputs["weights"]
        lines = [f"{sym}\t1" for sym in ARPABET_39]
        lines[1] = line
        path.write_text("\n".join(lines) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:2: expected PHONEME<TAB>weight, got {line!r}\n"
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv", [RICHNESS + ["--weights", "weights"], REPORT_WEIGHTS],
                             ids=["richness", "report-weights"])
    @pytest.mark.parametrize("line, message", [
        ("XX\t5", "phoneme 'XX' is not an ARPABET-39 symbol"),
        ("AA\t2", "duplicate phoneme 'AA', first at line 1"),
        ("AE\tnan", "weight must be finite and non-negative, got 'nan'"),
        ("AE\tinf", "weight must be finite and non-negative, got 'inf'"),
        ("AE\t-1", "weight must be finite and non-negative, got '-1'"),
    ], ids=["unknown-symbol", "repeated-symbol", "nan", "inf", "negative"])
    def test_bad_weight_names_file_and_line(self, tmp_path, small_inputs, capsys, argv, line, message):
        path = small_inputs["weights"]
        lines = [f"{sym}\t1" for sym in ARPABET_39]
        lines[1] = line
        path.write_text("\n".join(lines) + "\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:2: {message}\n"
        assert not list(tmp_path.glob("out*"))


class TestNotUtf8:
    """A byte that is not UTF-8 in any TSV, JSONL or weights input fails with its file and line."""

    @pytest.mark.parametrize("argv, bad", [
        (["evaluate", "--scores", "scores", "--features", "none"], "scores"),
        (SIMULATE, "trials"),
        (["stats", "--qmf", "qmf"], "qmf"),
        (GEN_PROTOCOL, "corpus"),
        (RICHNESS, "presence"),
        (REPORT_WEIGHTS, "weights"),
    ], ids=["scores", "trials", "qmf", "corpus", "presence", "weights"])
    def test_bad_byte_names_file_and_line(self, tmp_path, small_inputs, capsys, argv, bad):
        path = small_inputs[bad]
        # a comment holding valid UTF-8 first, then the valid file with a 0xff in its last line
        data = "# caf\u00e9\n".encode() + path.read_bytes()[:-1] + b"\xff\n"
        path.write_bytes(data)
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        line = data.count(b"\n")
        assert captured.err == f"error: {path}:{line}: byte 0xff is not UTF-8\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestByteOrderMark:
    """A text input saved with a leading UTF-8 byte order mark reads as the same file without one."""

    @pytest.mark.parametrize("argv, bom", [
        (["evaluate", "--scores", "scores", "--features", "none", "--out", "out.tsv"], "scores"),
        (SIMULATE, "trials"),
        (["stats", "--qmf", "qmf"], "qmf"),
        (CLIP + ["--target", "0.5"], "corpus"),
        (REPORT_WEIGHTS, "weights"),
        (G2P, "lexicon"),
    ], ids=["scores", "trials", "qmf", "corpus", "weights", "lexicon"])
    def test_same_outputs_as_without_it(self, tmp_path, small_inputs, capsys, argv, bom):
        # the lexicon's first word, so a mark read as part of it would leave the word out
        small_inputs["transcripts"].write_text(json.dumps({"utterance_id": "t1", "transcript": "about cat"}))

        def outputs():
            assert run_with(tmp_path, small_inputs, argv) == 0
            files = {}
            for path in sorted(tmp_path.glob("out*")):
                # the provenance line names each input by its digest, which the mark changes
                files[path.name] = [line for line in path.read_text().split("\n")
                                    if not line.startswith("# phonrich=")]
                path.unlink()
            return capsys.readouterr(), files

        without = outputs()
        path = small_inputs[bom]
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert outputs() == without


class TestJsonlRecordLines:
    """A fault found in a JSONL record after it is read names the line its reader handed out,
    counting the comment and blank lines before it."""

    @pytest.mark.parametrize("argv, bad, record, message", [
        (["stats", "--qmf", "qmf"], "qmf", dict(VALID_RECORDS["qmf"], test_id="t2", cu="3"),
         'cu must be a number, got "3"'),
        (GEN_PROTOCOL, "corpus", dict(VALID_RECORDS["corpus"], utterance_id="u1", net_speech=0),
         "net_speech must be a positive number, got 0"),
        (RICHNESS, "presence", dict(VALID_RECORDS["presence"], utterance_id="t2", bits="010"),
         'bits must be a string of 39 0s and 1s, got "010"'),
        (REPORT_WEIGHTS, "presence", presence_record("t2", ("K", "XX")),
         'phonemes must be a list of ARPABET-39 symbols, got ["K", "XX"]'),
    ], ids=["qmf-value", "corpus-record", "presence-bits", "presence-phoneme"])
    def test_fault_names_its_line(self, tmp_path, small_inputs, capsys, argv, bad, record, message):
        path = small_inputs[bad]
        path.write_text(f"# provenance\n{json.dumps(VALID_RECORDS[bad])}\n# note\n\n{json.dumps(record)}\n")
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {path}:5: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


class TestClipWordBound:
    """A clip whose window would take more than MAX_CLIP_WORDS words fails, naming the corpus and its
    utterance, where a tiny positive word duration would otherwise extend it without end."""

    def test_is_one_error_line(self, tmp_path, small_inputs, capsys):
        record = dict(VALID_RECORDS["corpus"], word_durations=[1e-300])
        small_inputs["corpus"].write_text(json.dumps(record) + "\n")
        assert run_with(tmp_path, small_inputs, CLIP + ["--target", "2"]) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {small_inputs['corpus']}: u0: a 2 s clip would take more than "
                                f"{MAX_CLIP_WORDS} words\n")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


CLIP_WORDS = ["cat", "dog", "egg", "fish", "ice", "owl"]


def two_speaker_clip_corpus(durations):
    """Two speakers, each with one sentence whose first words of CLIP_WORDS take ``durations``."""
    text = " ".join(CLIP_WORDS[:len(durations)])
    return "".join(json.dumps(dict(VALID_RECORDS["corpus"], utterance_id=f"{spk}0", speaker_id=spk, transcript=text,
                                   word_durations=durations)) + "\n" for spk in "ab")


class TestClipRunningSum:
    """One running sum, added left to right, decides where a clip may start, where it ends and its
    net_speech. Sums of the same words in another order differ in the last bit, and then a start was
    drawn from no fitting start (an IndexError), or a clip wrapped where a start without a wrap fits."""

    def clips(self, tmp_path, small_inputs, durations, target, seed):
        small_inputs["corpus"].write_text(two_speaker_clip_corpus(durations))
        argv = ["gen-protocol", "--corpus", "corpus", "--protocol", "clip", "--target", target, "--seed", seed,
                "--out-prefix", "out"]
        assert run_with(tmp_path, small_inputs, argv) == 0
        return read_jsonl(tmp_path / "out.manifest.jsonl")

    def test_start_drawn_among_fitting_starts(self, tmp_path, small_inputs):
        durations = [0.25, 0.46, 0.15, 0.09, 0.9]
        whole = 0.25 + 0.46 + 0.15 + 0.09 + 0.9
        assert whole >= 1.85 > 0.46 + 0.15 + 0.09 + 0.9  # so only the first word starts a clip that fits
        for test in self.clips(tmp_path, small_inputs, durations, "1.85", "1"):
            assert (test["transcript"], test["net_speech"]) == ("cat dog egg fish ice", whole)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_no_wrap_where_a_start_fits(self, tmp_path, small_inputs, seed):
        durations = [0.36, 0.58, 0.64, 0.85, 0.83, 0.9]
        for test in self.clips(tmp_path, small_inputs, durations, "3.22", str(seed)):
            clip = test["transcript"].split()
            start = CLIP_WORDS.index(clip[0])
            assert clip == CLIP_WORDS[start:start + len(clip)]


class TestDeepJsonl:
    """JSON nested so deeply that the decoder, or the scan for a NaN, would pass the recursion limit
    is a malformed line, reported with its file and line like any other."""

    @pytest.mark.parametrize("line", [
        "[" * 100_000 + "]" * 100_000,
        '{"test_id": "t", "cu": ' + "[" * 900 + "NaN" + "]" * 900 + "}",
    ], ids=["arrays", "nan-in-arrays"])
    def test_is_one_error_line(self, tmp_path, capsys, line):
        qmf = tmp_path / "qmf.jsonl"
        qmf.write_text(line + "\n")
        assert run(["stats", "--qmf", qmf]) == 1
        captured = only_error_line(capsys)
        assert captured.err.startswith(f"error: {qmf}:1: malformed JSONL line: maximum recursion depth")
        assert captured.out == ""


QMF_T1 = json.dumps(VALID_RECORDS["qmf"]) + "\n"  # a QMF file with no record for t2
CORPUS_WORD = dict(VALID_RECORDS["corpus"], utterance_id="u1", kind="word", word_text="cat", repetition_index=1)


class TestRefusals:
    """Each refusal ends with exit 1, one error line, nothing on stdout and no output file."""

    @pytest.mark.parametrize("argv, bad, text, message", [
        (FIT_WEIGHTS, "presence", json.dumps(presence_record("t9", ("K",))) + "\n",
         "{scores}: no target trial's test has a record in {presence}"),
        (CLIP, None, None, "--target is required for the clip protocol"),
        (["calibrate", "--scores", "scores", "--qmf", "qmf", "--features", "none", "--seed", "1",
          "--out-scores", "out.tsv"], None, None, "calibrate needs a non-empty feature set"),
        (REPORT_WEIGHTS, "weights", "".join(f"{sym}\t1\n" for sym in ARPABET_39[1:]),
         "{path}: missing symbols: ['AA']"),
        (["evaluate", "--scores", "scores", "--out", "out.tsv"], "scores", "# provenance\n# note\n",
         "{path}: no header line found"),
        (SIMULATE, "manifest", json.dumps(VALID_RECORDS["manifest"]).replace("1.0", "1e999") + "\n",
         "{path}:1: net_speech must be a finite number, got Infinity"),
        (CLIP + ["--target", "2"], "corpus",
         json.dumps(dict(VALID_RECORDS["corpus"], transcript="cat cat")) + "\n",
         "{path}: u0: word_durations must align with transcript words"),
        (FIT_WEIGHTS, "presence", json.dumps(presence_record("t1", ())) + "\n",
         "{path}: all-zero presence matrix: no identifiable weights"),
        (REPORT_WEIGHTS, "presence", "", "{path}: no utterances: the report needs a non-empty corpus"),
        (REPORT_WEIGHTS, "weights", "".join(f"{sym}\t0\n" for sym in ARPABET_39),
         "{path}: all-zero weight vector: normalization undefined"),
        # refused before the scores file, which has no header, is read
        (["evaluate", "--scores", "scores", "--features", "none", "--out", "out.tsv", "--correlation-out",
          "out.csv"], "scores", "# provenance\n", "--qmf is required for --correlation-out"),
        (["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "raw,cu", "--folds", "2",
          "--out", "out.tsv"], "qmf", QMF_T1, "{path}: missing QMF values for test 't2'"),
        (["calibrate", "--scores", "scores", "--qmf", "qmf", "--features", "cu", "--folds", "2", "--seed", "1",
          "--out-scores", "out.tsv"], "qmf", QMF_T1, "{path}: missing QMF values for test 't2'"),
        (["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "none", "--out", "out.tsv",
          "--correlation-out", "out.csv"], "qmf", QMF_T1, "{path}: missing QMF values for test 't2'"),
        # a class too small for the folds or the metrics is a refusal about the scores file, which it
        # names, and not about the QMF file, which it does not
        (["calibrate", "--scores", "scores", "--qmf", "qmf", "--features", "cu", "--folds", "3", "--seed", "1",
          "--out-scores", "out.tsv"], "qmf", QMF_T1 + QMF_T1.replace('"t1"', '"t2"'),
         "{scores}: need at least 3 target trials for 3-fold split, got 2"),
        (["evaluate", "--scores", "scores", "--features", "raw", "--out", "out.tsv"], None, None,
         "{scores}: need at least 5 target trials for 5-fold split, got 2"),
        (["evaluate", "--scores", "scores", "--features", "none", "--out", "out.tsv"], "scores",
         SCORES_HEADER + "m1\tt1\ttarget\t0.9\nm2\tt2\ttarget\t0.8\n",
         "{path}: need at least one target and one nontarget trial"),
        # a test whose record lacks a QMF is named with the record's line
        (["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "lns", "--folds", "2",
          "--out", "out.tsv"], "qmf", QMF_T1 + '{"test_id": "t2", "cu": 3.0}\n',
         "{path}:2: missing QMF 'lns' for test 't2'"),
        (["calibrate", "--scores", "scores", "--qmf", "qmf", "--features", "cu", "--folds", "2", "--seed", "1",
          "--out-scores", "out.tsv"], "qmf", "# provenance\n" + QMF_T1 + '\n{"test_id": "t2", "lns": 0.5}\n',
         "{path}:4: missing QMF 'cu' for test 't2'"),
        (["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "none", "--out", "out.tsv",
          "--correlation-out", "out.csv"], "qmf", QMF_T1 + '{"test_id": "t2", "cu": 3.0}\n',
         "{path}:2: missing QMF 'net_speech' for test 't2'"),
        # a refusal that concerns the whole corpus names the corpus file
        (GEN_PROTOCOL, "corpus", json.dumps(CORPUS_WORD) + "\n", "{path}: no sentence recordings to enroll from"),
        (GEN_PROTOCOL, "corpus", json.dumps(VALID_RECORDS["corpus"]) + "\n"
         + json.dumps(dict(CORPUS_WORD, speaker_id="b")) + "\n",
         "{path}: speaker b has word recordings but no enrollment sentences"),
        (CLIP + ["--target", "2"], "corpus", json.dumps(CORPUS_WORD) + "\n", "{path}: empty base utterance list"),
        (CLIP + ["--target", "2"], "corpus",
         json.dumps(dict(VALID_RECORDS["corpus"], transcript="", word_durations=[])) + "\n",
         "{path}: u0: utterance has no words"),
        # integer net speech is read as a float, so a model's sum overflows to inf and is refused
        (GEN_PROTOCOL, "corpus", "".join(json.dumps(dict(VALID_RECORDS["corpus"], utterance_id=f"u{k}",
                                                         net_speech=10 ** 308)) + "\n" for k in range(2)),
         "model a: net_speech of its recordings sums to inf, not a finite number"),
        # a clip's net speech is the Python sum of its word durations, which overflows to inf and is refused
        (CLIP + ["--target", "1.7e308"], "corpus", json.dumps(dict(VALID_RECORDS["corpus"], transcript="cat cat",
                                                                   word_durations=[1e308, 1.5e308])) + "\n",
         "test u0@1.7e+308s: net_speech of its recordings sums to inf, not a finite number"),
        # one word type with one recording fills no probe of two or more words
        (GEN_PROTOCOL, "corpus", json.dumps(VALID_RECORDS["corpus"]) + "\n" + json.dumps(CORPUS_WORD) + "\n",
         "{path}: speaker a: could not assemble a probe: a word type has too few repetition recordings "
         "('cat' has 1)"),
        # a refusal that concerns the QMF file, or a QMF of it, names the file
        (["stats", "--qmf", "qmf"], "qmf", '{"test_id": "t1", "cu": 3.0}\n',
         "{path}: no records with both net_speech and cu"),
        (["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "none", "--out", "out.tsv",
          "--correlation-out", "out.csv"], "qmf", QMF_T1 + QMF_T1.replace('"t1"', '"t2"'),
         "{path}: cu is the same for every target trial: Kendall's tau-b is undefined"),
        (["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "none", "--out", "out.tsv",
          "--correlation-out", "out.csv"], "scores", SCORES_HEADER + "m1\tt1\ttarget\t0.9\nm2\tt1\tnontarget\t0.1\n",
         "{qmf}: cu has one target trial: Kendall's tau-b needs at least 2"),
    ], ids=["fit-weights-no-join", "clip-no-target", "calibrate-no-features", "weights-missing-symbol",
            "scores-only-comments", "manifest-overflow", "corpus-durations-count",
            "fit-weights-all-zero-presence", "report-weights-empty-presence", "report-weights-zero-weights",
            "correlation-no-qmf", "evaluate-qmf-no-record", "calibrate-qmf-no-record",
            "correlation-qmf-no-record", "calibrate-too-few-targets", "evaluate-too-few-targets",
            "evaluate-no-nontargets", "evaluate-qmf-no-value",
            "calibrate-qmf-no-value", "correlation-qmf-no-value", "corpus-no-sentences",
            "corpus-speaker-no-sentences", "clip-no-base", "clip-no-words", "corpus-integer-overflow", "clip-overflow",
            "corpus-too-few-repetitions",
            "stats-no-pairs", "correlation-constant-qmf", "correlation-one-target"])
    def test_is_one_error_line(self, tmp_path, small_inputs, capsys, argv, bad, text, message):
        if bad is not None:
            small_inputs[bad].write_text(text)
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == f"error: {message.format(path=small_inputs.get(bad), **small_inputs)}\n"
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


    def test_tied_scores_name_the_scores_file(self, tmp_path, small_inputs, capsys):
        """Scores equal over a class leave Kendall's tau-b undefined for every QMF: the refusal names the
        scores file and the class, not the QMF file, whose QMFs vary."""
        small_inputs["scores"].write_text(SCORES_HEADER + "m1\tt1\ttarget\t0.5\nm2\tt2\ttarget\t0.5\n"
                                          "m2\tt1\tnontarget\t0.1\nm1\tt2\tnontarget\t0.2\n")
        small_inputs["qmf"].write_text(QMF_T1 + '{"test_id": "t2", "cu": 4.0, "net_speech": 2.0}\n')
        argv = ["evaluate", "--scores", "scores", "--qmf", "qmf", "--features", "none", "--out", "out.tsv",
                "--correlation-out", "out.csv"]
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err == (f"error: {small_inputs['scores']}: the score is the same for every target trial: "
                                f"Kendall's tau-b is undefined\n")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))


HUGE_WEIGHTS = "".join(f"{sym}\t1e308\n" for sym in ARPABET_39)


class TestFloatPolicy:
    """cli.main runs every command under one floating-point policy. A value that overflows stops it
    with one error line naming the command's inputs, and no output: an inf, a zero or a half-written
    file would be a wrong result. Scores whose EER needs no step that overflows evaluate."""

    @pytest.mark.parametrize("argv, files, inputs", [
        (["richness", "--presence", "presence", "--weights", "weights", "--out", "out"], {"weights": HUGE_WEIGHTS},
         ["presence", "weights"]),
        (REPORT_WEIGHTS, {"weights": HUGE_WEIGHTS}, ["weights", "presence"]),
        (FIT_WEIGHTS, {"presence": "".join(json.dumps(presence_record(t, ("K", "AE", "T"))) + "\n"
                                           for t in ("t1", "t2")),
                       "scores": SCORES_HEADER + "m1\tt1\ttarget\t1e308\nm1\tt2\ttarget\t1.5e308\n"
                                                 "m2\tt1\tnontarget\t0.1\n"},
         ["presence", "scores"]),
        (["stats", "--qmf", "qmf"], {"qmf": '{"test_id": "t1", "cu": 3, "net_speech": 1e308}\n'
                                            '{"test_id": "t2", "cu": 4, "net_speech": 1.7e308}\n'}, ["qmf"]),
    ], ids=["richness-wcu", "report-weights-sum", "fit-weights-nnls", "stats-mean"])
    def test_overflow_is_one_error_line(self, tmp_path, small_inputs, capsys, argv, files, inputs):
        for name, text in files.items():
            small_inputs[name].write_text(text)
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        named = ", ".join(str(small_inputs[name]) for name in inputs)
        # numpy's name for the operation that overflowed follows in parentheses
        assert captured.err.startswith(f"error: {named}: a value is too large to compute with (")
        assert captured.out == ""
        assert not list(tmp_path.glob("out*"))

    def test_eer_over_extreme_scores_evaluates(self, tmp_path, small_inputs, capsys):
        small_inputs["scores"].write_text(SCORES_HEADER + "m1\tt1\ttarget\t-1.7e308\n"
                                          "m1\tt2\tnontarget\t-1.7e308\nm1\tt3\tnontarget\t1.6e308\n")
        assert run_with(tmp_path, small_inputs, ["evaluate", "--scores", "scores"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "none\t66.67\t1.000\n"

    def test_command_without_inputs_names_no_file(self, tmp_path, small_inputs, capsys, monkeypatch):
        def cmd_make_demo(args):
            np.full(1, 1e308) * 10
        monkeypatch.setattr(cli, "cmd_make_demo", cmd_make_demo)
        assert run_with(tmp_path, small_inputs, ["make-demo", "--seed", "1", "--out", "out"]) == 1
        assert only_error_line(capsys).err == ("error: a value is too large to compute with "
                                               "(overflow encountered in multiply)\n")


class TestFlagFaults:
    """A flag fault is a refusal like any other: exit 1 and one error line, with no usage block."""

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--scores", "scores", "--folds", "abc"], "argument --folds: invalid int value: 'abc'"),
        (["stats"], "the following arguments are required: --qmf"),
        (["bogus"], "argument subcommand: invalid choice: 'bogus' (choose from "),
        (["stats", "--qmf", "qmf", "--extra", "1"], "unrecognized arguments: --extra 1"),
        ([], "the following arguments are required: subcommand"),
    ], ids=["not-an-integer", "missing-flag", "unknown-subcommand", "unknown-flag", "no-subcommand"])
    def test_is_one_error_line(self, tmp_path, small_inputs, capsys, argv, message):
        assert run_with(tmp_path, small_inputs, argv) == 1
        captured = only_error_line(capsys)
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, shown", [
        (["--help"], "usage: phonrich"), (["stats", "--help"], "usage: phonrich stats"),
        (["--version"], "phonrich "),
    ], ids=["help", "subcommand-help", "version"])
    def test_help_and_version_exit_0(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(shown)
        assert captured.err == ""
