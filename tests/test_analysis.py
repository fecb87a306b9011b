import numpy as np
import pytest

from decaypo import analysis
from decaypo.analysis import (DensityHistogram, PositionCurve, kl_categorical,
                              kl_per_position, loss_by_length_gap,
                              prob_per_position, ref_margin_density,
                              write_curve_csv, write_histogram_csv)
from decaypo.data import PreferencePair, response_bytes, synthetic_corpus
from decaypo.losses import LossConfig, batch_loss
from decaypo.model import (PolicyModel, VOCAB_SIZE, make_sequence, packed_logprobs, sample,
                           token_logprobs)
from conftest import random_pairscore


def margins_under(model, triples):
    """Chosen-minus-rejected summed response log-probs of (prompt, chosen,
    rejected) triples, from one packed pass."""
    seqs = [make_sequence(prompt, r) for prompt, *responses in triples for r in responses]
    logps, offsets = packed_logprobs(model, seqs)
    sums = np.add.reduceat(logps, offsets[:-1])
    return sums[0::2] - sums[1::2]


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
        hist = ref_margin_density(m, self.make_pairs(), bins=8)
        assert np.sum(hist.density) * hist.bin_width == pytest.approx(1.0, abs=1e-6)
        assert np.all(hist.density >= 0)

    def test_degenerate_margins_single_spike(self):
        # bypass validation to force chosen == rejected (margin exactly 0)
        pair = PreferencePair(id="d", prompt=b"p?", chosen=b"ab", rejected=b"cd")
        object.__setattr__(pair, "rejected", b"ab")
        m = small_model()
        hist = ref_margin_density(m, [pair, pair], bins=4)
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
        with pytest.raises(ValueError):
            ref_margin_density(m, [], bins=4)
        with pytest.raises(ValueError):
            ref_margin_density(m, self.make_pairs(2), bins=1)


class TestLossByLengthGap:
    def test_single_bin_equals_batch_loss(self, rng):
        cfg = LossConfig(method="d2po")
        scores = [random_pairscore(rng) for _ in range(10)]
        rows = loss_by_length_gap(cfg, scores, [-100, 100])
        assert len(rows) == 1
        assert rows[0].count == 10
        assert rows[0].mean_loss == pytest.approx(batch_loss(scores, cfg), abs=1e-12)

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

    def test_bad_bins_rejected(self, rng):
        with pytest.raises(ValueError):
            loss_by_length_gap(LossConfig(), [], [5])
        with pytest.raises(ValueError):
            loss_by_length_gap(LossConfig(), [], [5, 1])


class TestPackedAnalyses:
    """The analyses score packs of at most analysis.PACK sequences per pass,
    and analyze length-bias packs of analysis.PACK // 2 pairs."""

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

        def results(pack):
            monkeypatch.setattr(analysis, "PACK", pack)
            out = tmp_path / f"bias{pack}.csv"
            assert main(["analyze", "length-bias", "--policy", str(tmp_path / "policy.ckpt"),
                         "--reference", str(tmp_path / "ref.ckpt"),
                         "--pairs", str(tmp_path / "pairs.jsonl"),
                         "--gap-bins=-4,0,4", "--out", str(out)]) == 0
            bias = [float(v) for row in analysis.read_csv(out, ("gap_lo", "gap_hi",
                                                               "mean_loss", "count"))
                    for v in row[2:]]
            return np.concatenate([kl_per_position(policy, ref, seqs, 12).values,
                                   prob_per_position(policy, seqs, 12).values,
                                   ref_margin_density(ref, pairs, bins=5).centers, bias])

        smallest = results(2)  # one pair per length-bias pass
        margins = margins_under(ref, [(p.prompt, p.chosen, p.rejected) for p in pairs])
        assert ref_margin_density(ref, pairs, bins=5).centers[0] == pytest.approx(
            min(margins) + (max(margins) - min(margins)) / 10, abs=1e-12)
        for pack in (4, 32):
            assert np.max(np.abs(results(pack) - smallest)) <= 1e-12


class TestCsvRoundTrips:
    def test_curve(self, tmp_path):
        curve = PositionCurve([0, 1, 5], [0.25, -1.5, 3.0e-9])
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        assert path.read_text().startswith("position,value\n")
        rows = analysis.read_csv(path, ("position", "value"))
        assert [int(p) for p, _ in rows] == curve.positions
        assert [float(v) for _, v in rows] == curve.values

    def test_histogram(self, tmp_path):
        hist = DensityHistogram(np.array([0.5, 1.5, 2.5]),
                                np.array([0.2, 0.6, 0.2]), 1.0)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        rows = analysis.read_csv(path, ("value", "density"))
        assert np.array_equal([float(c) for c, _ in rows], hist.centers)
        assert np.array_equal([float(d) for _, d in rows], hist.density)
