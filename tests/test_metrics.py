import numpy as np
import pytest

import phonrich.io
import phonrich.metrics
from phonrich.io import read_trial_table, write_scatter, write_trial_table
from phonrich.metrics import (Qmfs, _count_inversions, compute_eer, compute_min_c_primary, correlation_report,
                              kendall_tau, protocol_stats)

from conftest import trials_from_ids
from oracles import (brute_force_eer, brute_force_min_c_primary, brute_force_tau,
                     random_monotone_transform)


def make_trials(tar, non):
    return trials_from_ids(["m"] * (len(tar) + len(non)),
                           [f"t{i}" for i in range(len(tar))] + [f"n{i}" for i in range(len(non))],
                           [True] * len(tar) + [False] * len(non), list(tar) + list(non))


class TestEer:
    def test_perfect_separation(self):
        eer = compute_eer([0.9, 0.8], [0.1, 0.2])
        assert eer == 0.0

    def test_identical_classes(self):
        eer = compute_eer([0.3, 0.5], [0.3, 0.5])
        assert eer == pytest.approx(0.5)

    def test_hand_enumerated_third(self):
        eer = compute_eer([0.8, 0.6, 0.4], [0.7, 0.3, 0.2])
        assert eer == pytest.approx(1 / 3)
        assert type(eer) is float

    def test_missing_class_error(self):
        with pytest.raises(ValueError, match="at least one target and one nontarget"):
            compute_eer([0.5], [])
        with pytest.raises(ValueError, match="at least one target and one nontarget"):
            compute_eer([], [0.5])
        with pytest.raises(ValueError, match="at least one target and one nontarget"):
            compute_min_c_primary(np.array([0.5]), np.array([]))

    def test_label_swap_preserves_eer(self):
        rng = np.random.default_rng(0)
        tar = rng.standard_normal(50) + 1
        non = rng.standard_normal(70)
        eer1 = compute_eer(tar, non)
        # swapping classes maps FAR<->FRR; EER unchanged when scores are negated
        eer2 = compute_eer(-non, -tar)
        assert eer1 == pytest.approx(eer2, abs=1e-12)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(1)
        tar = rng.standard_normal(40) + 0.5
        non = rng.standard_normal(60)
        eer_ref = compute_eer(tar, non)
        for k in range(20):
            f = random_monotone_transform(rng)
            eer_t = compute_eer(f(tar), f(non))
            assert abs(eer_t - eer_ref) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            nt = int(rng.integers(1, 40))
            nn = int(rng.integers(1, 40))
            # quantized scores force ties across and within classes
            tar = np.round(rng.standard_normal(nt) + 0.5, 1)
            non = np.round(rng.standard_normal(nn), 1)
            got = compute_eer(tar, non)
            assert got == pytest.approx(brute_force_eer(tar, non), abs=1e-10)


class TestMinCPrimary:
    def test_perfect_separation(self):
        assert compute_min_c_primary([0.9, 0.8], [0.1, 0.2]) == 0.0

    def test_identical_classes_hit_do_nothing_bound(self):
        assert compute_min_c_primary([0.4, 0.6], [0.4, 0.6]) == pytest.approx(1.0)

    def test_hand_case_and_perturbation(self):
        assert compute_min_c_primary([0.8, 0.6], [0.5, 0.1]) == 0.0
        tar, non = np.array([0.8, 0.4]), np.array([0.5, 0.1])
        got = compute_min_c_primary(tar, non)
        assert got == pytest.approx(brute_force_min_c_primary(tar, non), abs=1e-12)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tar = rng.standard_normal(int(rng.integers(1, 30)))
            non = rng.standard_normal(int(rng.integers(1, 30))) + 1  # badly inverted
            assert compute_min_c_primary(tar, non) <= 1 + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tar = np.round(rng.standard_normal(int(rng.integers(1, 40))) + 0.3, 1)
            non = np.round(rng.standard_normal(int(rng.integers(1, 40))), 1)
            got = compute_min_c_primary(tar, non)
            assert got == pytest.approx(brute_force_min_c_primary(tar, non), abs=1e-10)


class TestKendallTau:
    def test_identity_is_one(self):
        x = [3.0, 1.0, 7.0, 2.0]
        assert kendall_tau(x, x) == pytest.approx(1.0)

    def test_reversal_is_minus_one(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert kendall_tau(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_hand_case(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 10, 30).astype(float)
        y = rng.integers(0, 10, 30).astype(float)
        assert kendall_tau(x, y) == pytest.approx(kendall_tau(y, x), abs=1e-12)

    def test_all_tied_raises(self):
        with pytest.raises(ValueError, match="tied"):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("tied", ["x", "y", "both"])
    def test_equals_brute_force_exactly_under_heavy_ties(self, tied):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(80):
            n = int(rng.integers(2, 150))
            x = rng.integers(0, 4, n).astype(float) if tied != "y" else rng.standard_normal(n)
            y = rng.integers(0, 4, n).astype(float) if tied != "x" else rng.standard_normal(n)
            try:
                got = kendall_tau(x, y)
            except ValueError:
                continue
            assert got == brute_force_tau(x, y)
            checked += 1
        assert checked >= 70

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 6, n).astype(float)
            y = rng.integers(0, 6, n).astype(float)
            try:
                got = kendall_tau(x, y)
            except ValueError:
                continue
            assert got == pytest.approx(brute_force_tau(x, y), abs=1e-10)


class TestKendallTauRuns:
    """kendall_tau merges the runs of tied x that its (x, y) sort makes: ceil(log2(distinct x))
    levels, each checked here against the pair-by-pair oracle."""

    @pytest.mark.parametrize("distinct", [2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
    def test_equals_brute_force_by_distinct_x(self, distinct):
        rng = np.random.default_rng(distinct)
        for _ in range(10):
            n = int(rng.integers(distinct, 4 * distinct + 20))
            x = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)]) * 0.5
            y = rng.integers(0, int(rng.integers(2, 12)), n).astype(float)
            rng.shuffle(x)
            assert kendall_tau(x, y) == brute_force_tau(x, y)

    def test_one_distinct_x_is_refused(self):
        with pytest.raises(ValueError, match="tied"):
            kendall_tau([2.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_all_tied_y_is_refused(self):
        with pytest.raises(ValueError, match="tied"):
            kendall_tau([1.0, 2.0, 3.0, 4.0, 5.0], [-0.0, 0.0, 0.0, -0.0, 0.0])

    def test_all_distinct_x_equals_brute_force(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 31, 32, 33, 200):
            x, y = rng.standard_normal(n), np.round(rng.standard_normal(n), 1)
            assert kendall_tau(x, y) == brute_force_tau(x, y)

    def test_signed_zeros_tie(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            x = rng.choice([-0.0, 0.0, 1.0, -1.0], n)
            y = rng.choice([-0.0, 0.0, 2.0], n)
            try:
                got = kendall_tau(x, y)
            except ValueError:
                continue
            assert got == brute_force_tau(x, y)
            assert got == kendall_tau(x + 0.0, y + 0.0)  # -0.0 + 0.0 is 0.0

    def test_ranks_give_the_tau_of_their_values(self):
        rng = np.random.default_rng(13)
        x, y = np.round(rng.standard_normal(300), 1), rng.standard_normal(300)
        x_ranks = np.searchsorted(np.unique(x), x)
        assert kendall_tau(x_ranks, y) == kendall_tau(x, y)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            kendall_tau([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_inversions_equal_a_pair_count(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n_runs = int(rng.integers(1, 20))
            sizes = rng.integers(1, 8, n_runs)
            runs = np.repeat(np.arange(n_runs), sizes)
            # ranks ascend within each run
            ranks = np.concatenate([np.sort(rng.integers(0, 10, size)) for size in sizes])
            pairs = sum(int(ranks[i] > ranks[j]) for i in range(len(ranks)) for j in range(i + 1, len(ranks)))
            assert _count_inversions(runs, ranks) == pairs


class TestTrials:
    def test_test_index_in_first_seen_order(self):
        trials = trials_from_ids(["a", "b", "a"], ["t2", "t1", "t2"], [True, False, False],
                                 [0.1, 0.2, 0.3])
        assert trials.tests == ["t2", "t1"]
        assert trials.test_codes.tolist() == [0, 1, 0]
        assert trials.models == ["a", "b"]
        assert trials.model_codes.tolist() == [0, 1, 0]

    def test_class_scores_split_by_mask_in_trial_order(self):
        trials = trials_from_ids(["a", "b", "c", "d"], ["t1", "t2", "t3", "t4"],
                                 [False, True, False, True], [0.1, 0.2, 0.3, 0.4])
        tar, non = trials.class_scores()
        assert tar.tolist() == [0.2, 0.4]
        assert non.tolist() == [0.1, 0.3]


class TestCorrelationReport:
    def test_per_class_taus_and_scatter(self, tmp_path):
        trials = make_trials([0.9, 0.7, 0.5], [0.3, 0.2, 0.4])
        qmfs = Qmfs.from_columns(trials.tests, {"cu": range(len(trials.tests))})
        taus, qmf_names, block = correlation_report(trials, qmfs)
        assert ("target", "cu") in taus and ("nontarget", "cu") in taus
        assert qmf_names == ["cu"]
        assert block.tolist() == [[float(i)] for i in range(len(trials.tests))]
        write_scatter(tmp_path / "scatter.csv", trials, qmf_names, block)
        rows = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
        assert len(rows) == len(trials) * len(qmf_names)
        assert rows[0].split(",")[1] == "cu"

    def test_missing_qmf_error(self):
        trials = make_trials([0.9], [0.1])
        with pytest.raises(ValueError, match="missing QMF"):
            correlation_report(trials, Qmfs(["t0"], ["cu"], np.array([[1.0]])))

    def test_one_tau_per_distinct_order(self, monkeypatch):
        rng = np.random.default_rng(15)
        n_tests = 40
        tar = rng.standard_normal(n_tests)
        non = rng.standard_normal(n_tests)
        trials = make_trials(tar, non)
        net_speech = rng.uniform(0.5, 9.0, len(trials.tests))
        qmfs = Qmfs.from_columns(trials.tests, {"net_speech": net_speech, "lns": np.log(net_speech),
                                                "cu": rng.integers(2, 9, len(trials.tests)).astype(float)})
        calls = []
        monkeypatch.setattr(phonrich.metrics, "kendall_tau", lambda x, y: calls.append(1) or kendall_tau(x, y))
        taus, qmf_names, block = correlation_report(trials, qmfs)
        assert len(calls) == 4  # per class: cu, and lns shared with net_speech
        for label, mask in (("target", trials.is_target), ("nontarget", ~trials.is_target)):
            values = block[trials.test_codes[mask]]
            for j, name in enumerate(qmf_names):
                assert taus[(label, name)] == kendall_tau(values[:, j], trials.scores[mask])
            assert taus[(label, "lns")] == taus[(label, "net_speech")]

    def test_constant_qmf_error(self):
        trials = make_trials([0.9, 0.7], [0.3, 0.2])
        qmfs = Qmfs.from_columns(trials.tests, {"cu": [5.0] * len(trials.tests)})
        with pytest.raises(ValueError, match="^cu is the same for every target trial: "
                                             "Kendall's tau-b is undefined$"):
            correlation_report(trials, qmfs)


class TestWriteScatter:
    """Every line is what formatting each (trial, QMF) row on its own gave."""

    # integer-valued, tiny (one subnormal), negative and 17-digit values
    VALUES = [3.0, -2.0, 5e-324, 1e-300, -1.5, 0.1 + 0.2, 1 / 3, -123456789.12345678, 0.0]
    SCORES = [7.0, -3.0, 1e-310, 0.1 + 0.2, -1 / 3, 2.5e17, 0.0, -0.0, 2 / 3, -1e-5, 42.0, 1e300, 0.5]
    TEST_ORDER = [0, 3, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 3]  # tests 0, 3 and 8 repeat

    @staticmethod
    def per_row_text(trials, qmf_names, block):
        rows = [(tid, name, value, score, label)
                for tid, row, score, label in zip([trials.tests[c] for c in trials.test_codes.tolist()],
                                                  block[trials.test_codes].tolist(),
                                                  trials.scores.tolist(), trials.labels())
                for name, value in zip(qmf_names, row)]
        return "test_id,qmf_name,qmf_value,score,label\n" + "".join(
            f"{tid},{name},{val:.17g},{score:.17g},{label}\n" for tid, name, val, score, label in rows)

    @pytest.mark.parametrize("qmf_names", [["cu"], ["cu", "lns", "net_speech", "wcu"]])
    @pytest.mark.parametrize("chunk", [1, 5, 4096])
    def test_lines_match_the_per_row_format(self, tmp_path, monkeypatch, qmf_names, chunk):
        monkeypatch.setattr(phonrich.io, "WRITE_CHUNK", chunk)
        trials = trials_from_ids([f"m{k % 4}" for k in range(len(self.TEST_ORDER))],
                                 [f"spk{i}_word" for i in self.TEST_ORDER],
                                 [k % 3 == 0 for k in range(len(self.TEST_ORDER))], self.SCORES)
        block = np.resize(self.VALUES, (len(trials.tests), len(qmf_names)))
        write_scatter(tmp_path / "scatter.csv", trials, qmf_names, block)
        text = (tmp_path / "scatter.csv").read_text()
        assert text == self.per_row_text(trials, qmf_names, block)
        assert text.count("\n") == 1 + len(trials) * len(qmf_names)

    @pytest.mark.parametrize("scored", [False, True], ids=["trial-list", "scores"])
    @pytest.mark.parametrize("chunk", [1, 5, 4096])
    def test_trial_tables_match_the_per_row_format(self, tmp_path, monkeypatch, scored, chunk):
        """A trial list or scores TSV written in chunks, the last one partial (13 trials in chunks
        of 5), is what formatting each row on its own gave, and reads back to the same trials."""
        monkeypatch.setattr(phonrich.io, "WRITE_CHUNK", chunk)
        trials = trials_from_ids([f"m{k % 7}" for k in range(len(self.TEST_ORDER))],  # no pair repeats
                                 [f"spk{i}_word" for i in self.TEST_ORDER],
                                 [k % 3 == 0 for k in range(len(self.TEST_ORDER))],
                                 self.SCORES if scored else None)
        path = tmp_path / "trials.tsv"
        write_trial_table(path, trials, "# provenance")
        cells = [[trials.models[m], trials.tests[t], label] for m, t, label in
                 zip(trials.model_codes.tolist(), trials.test_codes.tolist(), trials.labels())]
        if scored:
            for row, score in zip(cells, trials.scores.tolist()):
                row.append(f"{score:.17g}")
        header = "model_id\ttest_id\tlabel" + "\traw_score" * scored
        assert path.read_text() == "".join(f"{line}\n" for line in ["# provenance", header,
                                                                    *map("\t".join, cells)])
        back, _ = read_trial_table(path, scored)
        assert (back.models, back.tests) == (trials.models, trials.tests)
        for column in ("model_codes", "test_codes", "is_target", "scores"):
            assert np.array_equal(getattr(back, column), getattr(trials, column))

    def test_no_qmf_names_writes_the_header_only(self, tmp_path):
        trials = make_trials([0.9], [0.1])
        write_scatter(tmp_path / "scatter.csv", trials, [], np.empty((len(trials.tests), 0)))
        assert (tmp_path / "scatter.csv").read_text() == "test_id,qmf_name,qmf_value,score,label\n"


class TestQmfs:
    TABLE = Qmfs(["a", "b", "c"], ["cu", "wcu"], np.array([[1.0, 0.5], [2.0, np.nan], [3.0, 1.5]]))

    def test_join_gives_a_row_per_test_in_their_order(self):
        assert self.TABLE.join(["c", "a", "c"], ["wcu", "cu"]).tolist() == [[1.5, 3.0], [0.5, 1.0], [1.5, 3.0]]

    @pytest.mark.parametrize("tests, names, message", [
        (["a", "x", "b"], ["wcu"], "missing QMF values for test 'x'"),
        (["a", "b", "x"], ["cu", "wcu"], "missing QMF 'wcu' for test 'b'"),
        (["a"], ["lns"], "missing QMF 'lns' for test 'a'"),
    ], ids=["no-row", "no-value", "no-column"])
    def test_join_names_the_first_test_that_fails(self, tests, names, message):
        with pytest.raises(ValueError, match=message):
            self.TABLE.join(tests, names)

    def test_names_of_a_test(self):
        assert self.TABLE.names_of("a") == ["cu", "wcu"]
        assert self.TABLE.names_of("b") == ["cu"]
        assert self.TABLE.names_of("x") == []

    def test_write_then_read_keeps_the_table(self, tmp_path):
        from phonrich.io import read_qmfs, write_qmfs
        path = tmp_path / "qmf.jsonl"
        write_qmfs(path, self.TABLE, "# provenance")
        assert path.read_text().splitlines()[2] == '{"cu": 2.0, "test_id": "b"}'
        back = read_qmfs(path)
        assert (back.test_ids, back.names) == (self.TABLE.test_ids, self.TABLE.names)
        assert np.array_equal(back.values, self.TABLE.values, equal_nan=True)

class TestProtocolStats:
    def test_single_utterance(self):
        assert protocol_stats(Qmfs(["t"], ["cu", "net_speech"], np.array([[10, 2.0]]))) == (2.0, 0.0, 10.0, 0.0)

    def test_two_utterances(self):
        ns_mean, ns_std, cu_mean, cu_std = protocol_stats(Qmfs.from_columns(["a", "b"], {"net_speech": [1, 3], "cu": [10, 20]}))
        assert (ns_mean, ns_std, cu_mean, cu_std) == (2.0, 1.0, 15.0, 5.0)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            protocol_stats(Qmfs(["a"], ["cu"], np.array([[10.0]])))
