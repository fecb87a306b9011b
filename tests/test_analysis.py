from functools import partial

import gc
import tracemalloc

import numpy as np
import pytest

from decaypo import analysis
from decaypo import model as model_module
from decaypo.analysis import (DensityHistogram, PositionCurve, kl_categorical,
                              kl_per_position, loss_by_length_gap,
                              prob_per_position, ref_margin_density,
                              write_curve_csv, write_histogram_csv)
from decaypo.data import PreferencePair, response_bytes, synthetic_corpus
from decaypo.losses import LossConfig, PairScore, batch_loss
from decaypo.model import (PolicyModel, VOCAB_SIZE, make_sequence, packed_logprobs, sample,
                           token_logprobs)
from decaypo.training import score_pairs
from conftest import join_pairs, random_pairscore, read_csv


def margins_under(model, triples):
    """Chosen-minus-rejected summed response log-probs of (prompt, chosen,
    rejected) triples, from one packed pass."""
    seqs = [make_sequence(prompt, r) for prompt, *responses in triples for r in responses]
    logps, offsets = packed_logprobs(model, seqs)
    sums = np.add.reduceat(logps, offsets[:-1])
    return sums[0::2] - sums[1::2]


def reference_scores(model, pairs):
    """One PairScore of every pair of ``pairs``, scored by ``model``."""
    return [score_pairs(model, None, [(p, i) for i, p in enumerate(pairs)])]


def small_model(seed=0, trained=False):
    m = PolicyModel(dim=16, context=48, blocks=2, seed=seed)
    if trained:
        r = np.random.default_rng(seed + 31)
        m.params["w_out"] = r.normal(0, 0.1, size=m.params["w_out"].shape)
    return m


def sample_sequences(model, n, seed, max_len=10):
    out = []
    for i in range(n):
        out.append(sample(model, [256, 97 + i % 4], 1.0, max_len, seed + i))
    return out


class TestStructures:
    def test_positions_strictly_increasing(self):
        with pytest.raises(ValueError):
            PositionCurve([0, 2, 2], [1.0, 2.0, 3.0])

    def test_values_finite(self):
        with pytest.raises(ValueError):
            PositionCurve([0, 1], [1.0, np.inf])


class TestKL:
    def test_hand_value(self):
        logp = np.log([0.5, 0.5])
        logq = np.log([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_categorical(logp, logq) == pytest.approx(expected, abs=1e-12)
        assert kl_categorical(logp, logq) == pytest.approx(0.143841, abs=1e-6)

    def test_identical_models_zero(self):
        m = small_model(trained=True)
        seqs = sample_sequences(m, 4, seed=10)
        curve = kl_per_position(m, m, seqs, max_pos=8)
        assert all(v == 0.0 for v in curve.values)

    def test_nonnegative(self):
        policy = small_model(seed=1, trained=True)
        ref = small_model(seed=1)
        seqs = sample_sequences(policy, 5, seed=20)
        curve = kl_per_position(policy, ref, seqs, max_pos=8)
        assert all(v >= 0.0 for v in curve.values)

    def test_empty_samples_rejected(self):
        m = small_model()
        with pytest.raises(ValueError):
            kl_per_position(m, m, [], max_pos=4)

    def test_distributions_hold_the_scored_logprobs_bit_for_bit(self):
        """The KL's log-distributions and the packed scoring pass share one
        log-softmax normaliser."""
        m = small_model(seed=2, trained=True)
        seqs = sample_sequences(m, 5, seed=30)
        logs, offsets = analysis._position_distribution_logs(m, seqs)
        logps, same_offsets = packed_logprobs(m, seqs)
        targets = [t for seq in seqs for t in seq.response_tokens]
        assert np.array_equal(offsets, same_offsets)
        assert np.array_equal(logs[np.arange(len(targets)), targets], logps)


class TestProbPerPosition:
    def test_uniform_model_flat(self):
        m = small_model()
        seqs = sample_sequences(m, 3, seed=5, max_len=6)
        curve = prob_per_position(m, seqs, max_pos=5)
        assert curve.values == pytest.approx(
            [1.0 / VOCAB_SIZE] * len(curve.values), abs=1e-12)

    def test_values_in_unit_interval(self):
        m = small_model(trained=True)
        seqs = sample_sequences(m, 4, seed=6)
        curve = prob_per_position(m, seqs, max_pos=8)
        assert all(0.0 < v <= 1.0 for v in curve.values)


def dict_survivor_mean(rows, max_pos):
    """The survivor mean as a per-sequence dict loop: each position's sum
    adds the sequences' values in order, from 0. The oracle of the packed
    form."""
    sums, counts = {}, {}
    for row in rows:
        for p, value in zip(range(max_pos + 1), row):
            sums[p] = sums.get(p, 0.0) + value
            counts[p] = counts.get(p, 0) + 1
    positions = sorted(sums)
    return PositionCurve(positions, [sums[p] / counts[p] for p in positions])


class TestSurvivorMean:
    @pytest.mark.parametrize("max_pos", [0, 5, 40])
    @pytest.mark.parametrize("cuts", [(), (1,), (3, 7), (1, 2, 3, 4, 5, 6, 7, 8)])
    def test_packs_equal_the_dict_loop_bit_for_bit(self, max_pos, cuts):
        """Ragged sequences (longest 17) of values spread over many scales, so
        that any other order of addition would change bits, in one pack or
        cut into several."""
        rng = np.random.default_rng(8)
        lens = rng.integers(1, 18, size=9)
        lens[4] = 17
        rows = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n) for n in lens]
        bounds = [0, *cuts, len(rows)]
        packs = [(np.concatenate(rows[lo:hi]), np.cumsum([0, *map(len, rows[lo:hi])]))
                 for lo, hi in zip(bounds, bounds[1:])]
        got = analysis._survivor_mean(packs, max_pos)
        want = dict_survivor_mean([row.tolist() for row in rows], max_pos)
        assert got.positions == want.positions == list(range(min(max_pos, 16) + 1))
        assert got.values == want.values

    def test_curves_equal_the_dict_loop_over_sequences(self, monkeypatch):
        """kl_per_position and prob_per_position, at a row budget of one
        sequence per pass, of a few and of all nine, against the dict loop
        over each sequence's values cut from the same packs."""
        policy, ref = small_model(seed=1, trained=True), small_model(seed=2, trained=True)
        seqs = sample_sequences(policy, 9, seed=40)

        def per_sequence(score):
            return [row for flat, offsets in analysis._packs(score, seqs)
                    for row in np.split(flat, offsets[1:-1])]

        for budget in (1, 30, 10 ** 9):
            monkeypatch.setattr(analysis, "ROWS", budget)
            rows = per_sequence(partial(packed_logprobs, policy))
            kls = per_sequence(partial(analysis._position_kl, policy, ref))
            for max_pos in (0, 4, 30):
                assert prob_per_position(policy, seqs, max_pos) == dict_survivor_mean(
                    [np.exp(row).tolist() for row in rows], max_pos)
                assert kl_per_position(policy, ref, seqs, max_pos) == dict_survivor_mean(
                    [kl.tolist() for kl in kls], max_pos)


class TestRefMarginDensity:
    def make_pairs(self, n=12):
        rng = np.random.default_rng(3)
        pairs = []
        for i in range(n):
            chosen = bytes(rng.integers(97, 103, size=rng.integers(2, 6)).tolist())
            rejected = bytes(rng.integers(97, 103, size=rng.integers(2, 6)).tolist())
            if chosen == rejected:
                rejected = rejected + b"x"
            pairs.append(PreferencePair(id=str(i), prompt=b"p?", chosen=chosen,
                                        rejected=rejected))
        return pairs

    def test_density_integrates_to_one(self):
        m = small_model(trained=True)
        hist = ref_margin_density(reference_scores(m, self.make_pairs()), bins=8)
        assert np.sum(hist.density) * hist.bin_width == pytest.approx(1.0, abs=1e-6)
        assert np.all(hist.density >= 0)

    def test_degenerate_margins_single_spike(self):
        # bypass validation to force chosen == rejected (margin exactly 0)
        pair = PreferencePair(id="d", prompt=b"p?", chosen=b"ab", rejected=b"cd")
        object.__setattr__(pair, "rejected", b"ab")
        m = small_model()
        hist = ref_margin_density(reference_scores(m, [pair, pair]), bins=4)
        assert np.sum(hist.density > 0) == 1
        assert np.sum(hist.density) * hist.bin_width == pytest.approx(1.0, abs=1e-6)

    def test_onpolicy_margins_have_smaller_variance(self):
        ref = small_model(seed=2, trained=True)
        other = small_model(seed=9, trained=True)
        corpus = synthetic_corpus(6, seed=1, min_target_len=3, max_target_len=6)
        prompts = list(corpus)

        def margins(generator):
            def response(p, seed):
                return response_bytes(sample(generator, [256] + list(p), 1.0, 8, seed=seed))
            return margins_under(ref, [(p, response(p, 100 + i), response(p, 200 + i))
                                       for i, p in enumerate(prompts)])

        on_policy = margins(ref)
        off_policy = margins(other)
        assert np.var(on_policy) < np.var(off_policy)

    def test_requires_pairs_and_bins(self):
        m = small_model()
        with pytest.raises(ValueError, match="requires scored pairs"):
            ref_margin_density([], bins=4)
        with pytest.raises(ValueError, match="bins"):
            ref_margin_density(reference_scores(m, self.make_pairs(2)), bins=1)


    def test_margin_that_is_not_finite_rejected(self):
        """A margin that is not finite is named in the analysis' own words,
        as loss_by_length_gap names a loss, before any histogram is built."""
        m = small_model(trained=True)
        m.params["w1_0"][0, 3] = np.inf
        with np.errstate(all="ignore"):
            scores = reference_scores(m, self.make_pairs(4))
        with pytest.raises(ValueError, match=r"^a pair is not finite: margin nan$"):
            ref_margin_density(scores, bins=4)

    @pytest.mark.parametrize("margins, error", [
        ([-1e308, 1e308], r"^margins from lo -1e\+308 to hi 1e\+308 do not make 20 finite bins$"),
        ([1e17, 1e17], r"^margins from lo 1e\+17 to hi 1e\+17 do not make 20 finite bins$")],
        ids=["range-overflows", "spike-wider-than-its-bins"])
    def test_margins_that_cannot_be_binned_rejected(self, margins, error):
        """Finite margins whose range overflows, or equal ones so large that
        a unit-width spike has no width, are named in the analysis' own
        words, with no numpy warning."""
        score = PairScore(np.array(margins), np.zeros(2), prompt_len=[1, 1], example_id=[0, 1],
                          chosen_lens=[1, 1], rejected_lens=[1, 1])
        with pytest.raises(ValueError, match=error):
            ref_margin_density([score], bins=20)


class TestLossByLengthGap:
    def test_single_bin_equals_batch_loss(self, rng):
        cfg = LossConfig(method="d2po")
        scores = [random_pairscore(rng) for _ in range(10)]
        rows = loss_by_length_gap(cfg, scores, [-100, 100])
        assert len(rows) == 1
        assert rows[0].count == 10
        assert rows[0].mean_loss == pytest.approx(batch_loss(join_pairs(scores), cfg),
                                                  abs=1e-12)

    def test_identical_pairs_equal_means(self, rng):
        cfg = LossConfig(method="d2po")
        s = random_pairscore(rng)
        rows = loss_by_length_gap(cfg, [s, s, s], [-100, 0, 100])
        assert len(rows) == 1
        assert rows[0].count == 3

    def test_overflow_bin(self, rng):
        cfg = LossConfig(method="d2po")
        scores = [random_pairscore(rng, max_len=4) for _ in range(6)]
        rows = loss_by_length_gap(cfg, scores, [50, 100])
        assert len(rows) == 1
        assert rows[0].gap_lo == float("-inf")
        assert rows[0].count == 6

    def test_no_scores_rejected(self):
        """No pair left to bin is an error, as in the other three analyses."""
        with pytest.raises(ValueError, match="requires scored pairs"):
            loss_by_length_gap(LossConfig(), [], [-4, 0, 4])

    def test_bad_bins_rejected(self, rng):
        with pytest.raises(ValueError):
            loss_by_length_gap(LossConfig(), [], [5])
        with pytest.raises(ValueError):
            loss_by_length_gap(LossConfig(), [], [5, 1])


class TestPackedAnalyses:
    """The analyses score packs of at most analysis.ROWS sequence rows per
    pass, and analyze ref-margin and length-bias pack whole pairs by the
    same budget; a sequence or pair of more rows is a pass of its own."""

    def test_results_do_not_depend_on_pack_size(self, monkeypatch, tmp_path):
        from decaypo.cli import main
        from decaypo.data import save_pairs
        from decaypo.training import Checkpoint, save_checkpoint
        policy, ref = small_model(seed=1, trained=True), small_model(seed=2, trained=True)
        seqs = sample_sequences(policy, 9, seed=30)
        rng = np.random.default_rng(4)
        pairs = [PreferencePair(id=str(i), prompt=b"p%d?" % i,
                                chosen=bytes(rng.integers(97, 105, size=1 + i % 7).tolist()),
                                rejected=bytes(rng.integers(97, 105, size=1 + i % 5).tolist())
                                + b"z") for i in range(9)]
        save_pairs(pairs, tmp_path / "pairs.jsonl")
        save_checkpoint(Checkpoint(policy), tmp_path / "policy.ckpt")
        save_checkpoint(Checkpoint(ref), tmp_path / "ref.ckpt")

        def results(budget):
            monkeypatch.setattr(analysis, "ROWS", budget)
            flags = ["--reference", str(tmp_path / "ref.ckpt"),
                     "--pairs", str(tmp_path / "pairs.jsonl")]
            assert main(["analyze", "ref-margin", *flags, "--bins", "5",
                         "--out", str(tmp_path / "margin.csv")]) == 0
            assert main(["analyze", "length-bias", "--policy", str(tmp_path / "policy.ckpt"),
                         *flags, "--gap-bins=-4,0,4", "--out", str(tmp_path / "bias.csv")]) == 0
            margin = read_csv(tmp_path / "margin.csv", ("value", "density"))
            bias = read_csv(tmp_path / "bias.csv", ("gap_lo", "gap_hi",
                                                             "mean_loss", "count"))
            return np.concatenate([kl_per_position(policy, ref, seqs, 12).values,
                                   prob_per_position(policy, seqs, 12).values,
                                   [float(v) for row in margin for v in row],
                                   [float(v) for row in bias for v in row[2:]]])

        smallest = results(1)  # one sequence or pair per pass
        margins = margins_under(ref, [(p.prompt, p.chosen, p.rejected) for p in pairs])
        assert ref_margin_density(reference_scores(ref, pairs), bins=5).centers[0] == pytest.approx(
            min(margins) + (max(margins) - min(margins)) / 10, abs=1e-12)
        for budget in (40, 10 ** 9):  # a few pairs per pass, and all of them
            assert np.max(np.abs(results(budget) - smallest)) <= 1e-12


    def test_no_pass_exceeds_the_row_budget(self, monkeypatch, tmp_path):
        """Each analysis's packed passes hold at most analysis.ROWS rows, but
        for a pass over one sequence (kl-position, prob-position) or one pair
        (ref-margin, length-bias) of more; here the budget is 40 rows and one
        chosen response makes a sequence of 45."""
        from decaypo.cli import main
        from decaypo.data import save_pairs
        from decaypo.training import Checkpoint, save_checkpoint
        rng = np.random.default_rng(9)
        pairs = [PreferencePair(id=str(i), prompt=b"p%d?" % i,
                                chosen=bytes(rng.integers(97, 105, size=40 if i == 4 else
                                                          1 + 3 * i % 11).tolist()),
                                rejected=bytes(rng.integers(97, 105, size=2 + i % 4).tolist())
                                + b"z") for i in range(10)]
        save_pairs(pairs, tmp_path / "pairs.jsonl")
        for seed, name in ((1, "policy.ckpt"), (2, "ref.ckpt")):
            save_checkpoint(Checkpoint(small_model(seed=seed, trained=True)), tmp_path / name)
        monkeypatch.setattr(analysis, "ROWS", 40)
        passes = []
        forward = model_module._forward

        def spy(model, tokens, positions, bounds, rows=None):
            passes.append((len(tokens), len(bounds) - 1))
            return forward(model, tokens, positions, bounds, rows)

        monkeypatch.setattr(model_module, "_forward", spy)
        policy, ref = (str(tmp_path / name) for name in ("policy.ckpt", "ref.ckpt"))
        for command, flags, per_item in (
                ("kl-position", ["--policy", policy, "--reference", ref], 1),
                ("prob-position", ["--model", policy], 1),
                ("ref-margin", ["--reference", ref], 2),
                ("length-bias", ["--policy", policy, "--reference", ref], 2)):
            passes.clear()
            assert main(["analyze", command, *flags, "--pairs", str(tmp_path / "pairs.jsonl"),
                         "--out", str(tmp_path / "out.csv")]) == 0
            assert all(rows <= 40 or n == per_item for rows, n in passes), (command, passes)
            assert any(rows > 40 for rows, _ in passes), (command, passes)
            assert any(n > per_item for _, n in passes), (command, passes)

    def test_kl_per_position_peak_is_bounded_by_the_row_budget(self):
        """At dim 64, kl_per_position over 64 sequences of 150 to 213 response
        tokens peaks at 4,096,270 bytes of traced memory (numpy 2.x, x86-64
        Linux); in packs of 32 sequences, about 5,000 rows a pass, it peaked
        at 52,503,097."""
        policy, reference = (PolicyModel(dim=64, context=256, blocks=2, seed=s) for s in (1, 2))
        rng = np.random.default_rng(6)
        seqs = [make_sequence(b"q%d?" % i, bytes(rng.integers(97, 105, size=150 + i).tolist()))
                for i in range(64)]
        gc.collect()
        tracemalloc.start()
        try:
            kl_per_position(policy, reference, seqs, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, peak


class TestCsvRoundTrips:
    def test_curve(self, tmp_path):
        curve = PositionCurve([0, 1, 5], [0.25, -1.5, 3.0e-9])
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        assert path.read_text().startswith("position,value\n")
        rows = read_csv(path, ("position", "value"))
        assert [int(p) for p, _ in rows] == curve.positions
        assert [float(v) for _, v in rows] == curve.values

    def test_histogram(self, tmp_path):
        hist = DensityHistogram(np.array([0.5, 1.5, 2.5]),
                                np.array([0.2, 0.6, 0.2]), 1.0)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        rows = read_csv(path, ("value", "density"))
        assert np.array_equal([float(c) for c, _ in rows], hist.centers)
        assert np.array_equal([float(d) for _, d in rows], hist.density)

    def test_float64_and_python_float_cells_are_the_same_bytes(self, tmp_path):
        values = [0.0, -0.0, 0.1, 1 / 3, 1e16, 1e-30, 1e30, 5e-324, 1.7976931348623157e308,
                  -2.5e-7, 123456789.0, np.inf, -np.inf, np.nan]
        rows = [(i, v, -v) for i, v in enumerate(values)]
        analysis.write_csv(tmp_path / "py.csv", ("i", "v", "w"), rows)
        analysis.write_csv(tmp_path / "np.csv", ("i", "v", "w"),
                           [(np.int64(i), np.float64(v), np.float64(w)) for i, v, w in rows])
        text = (tmp_path / "py.csv").read_text()
        assert (tmp_path / "np.csv").read_text() == text
        assert text.splitlines()[1:] == [f"{i},{v!r},{w!r}" for i, v, w in rows]
