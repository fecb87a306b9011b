from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from decaypo import autodiff as ad
from decaypo.losses import (METHODS, REFERENCE_FREE, LossConfig, PairScore,
                            batch_loss, d2po_loss, d2po_ref_free_loss, dpo_loss,
                            estimate_z_ref, ipo_loss, kto_loss,
                            orpo_loss, pair_loss, pair_losses, sampo_indices,
                            sampo_loss, segment_sums, simpo_loss)
from decaypo.schedules import DecaySchedule, UNIFORM
from conftest import (central_difference, join_pairs, pairwise_batch_loss,
                      random_pairscore)

LN2 = np.log(2.0)


def score_from_ratios(chosen_ratios, rejected_ratios, prompt_len=0):
    """PairScore whose policy-minus-reference ratios are as given."""
    cw = np.asarray(chosen_ratios, dtype=np.float64)
    cl = np.asarray(rejected_ratios, dtype=np.float64)
    return PairScore(
        chosen_logps=np.zeros_like(cw) - 0.01,
        rejected_logps=np.zeros_like(cl) - 0.01,
        chosen_ref_logps=-cw - 0.01,
        rejected_ref_logps=-cl - 0.01,
        prompt_len=prompt_len,
    )


class TestD2PO:
    def test_zero_margin_is_ln2(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 6))
            ratios = rng.normal(0, 1, n)
            score = score_from_ratios(ratios, ratios)
            for schedule in (UNIFORM, DecaySchedule(kind="exponential", gamma=0.7)):
                cfg = LossConfig(method="d2po", schedule=schedule)
                assert d2po_loss(score, cfg) == pytest.approx(LN2, abs=1e-12)

    def test_uniform_margin_closed_form(self):
        # sum of chosen ratios minus rejected ratios = 10, beta 0.1 -> margin 1
        score = score_from_ratios([4.0, 4.0], [-2.0])
        cfg = LossConfig(method="d2po", beta=0.1, schedule=UNIFORM)
        assert d2po_loss(score, cfg) == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-12)
        assert d2po_loss(score, cfg) == pytest.approx(0.313262, abs=1e-6)

    def test_decayed_hand_example(self):
        score = score_from_ratios([2.0, 2.0], [1.0])
        cfg = LossConfig(method="d2po", beta=0.1,
                         schedule=DecaySchedule(kind="exponential", gamma=0.5,
                                                origin="answer_start"))
        assert d2po_loss(score, cfg) == pytest.approx(np.log1p(np.exp(-0.2)), abs=1e-12)
        assert d2po_loss(score, cfg) == pytest.approx(0.598139, abs=1e-6)

    def test_missing_reference_rejected(self, rng):
        score = random_pairscore(rng, with_ref=False)
        with pytest.raises(ValueError):
            d2po_loss(score, LossConfig(method="d2po"))

    def test_loss_positive(self, rng):
        cfg = LossConfig(method="d2po")
        for _ in range(50):
            assert d2po_loss(random_pairscore(rng), cfg) > 0.0

    def test_dpo_equals_uniform_d2po_exactly(self, rng):
        cfg_u = LossConfig(method="d2po", schedule=UNIFORM)
        cfg_d = LossConfig(method="dpo")
        for _ in range(200):
            score = random_pairscore(rng)
            assert d2po_loss(score, cfg_u) == dpo_loss(score, cfg_d)

    def test_prompt_origin_scales_margin_by_gamma_l(self, rng):
        gamma, l = 0.9, 4
        cfg_a = LossConfig(method="d2po", schedule=DecaySchedule(
            kind="exponential", gamma=gamma, origin="answer_start"))
        cfg_p = LossConfig(method="d2po", schedule=DecaySchedule(
            kind="exponential", gamma=gamma, origin="prompt_start"))
        for _ in range(20):
            score = random_pairscore(rng, prompt_len=l)
            loss_a = d2po_loss(score, cfg_a)
            m = -np.log(np.expm1(loss_a)) if loss_a < 40 else -loss_a
            # loss = log(1 + e^{-m}) so m recovers from the answer-start loss
            expected = np.log1p(np.exp(-(gamma ** l) * m))
            assert d2po_loss(score, cfg_p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("method", ["d2po", "d2po_ref_free"])
    def test_prompt_start_at_beta_is_answer_start_at_beta_gamma_l(self, method, rng):
        """Prompt-start weights are gamma^l times the answer-start ones, so
        with prompt length l a pair's loss at beta is its answer-start loss
        at beta * gamma^l (at gamma 0.98 a 200-token prompt leaves beta * 0.018)."""
        prompt = LossConfig(method=method, beta=0.5, schedule=DecaySchedule(gamma=0.98))
        answer = replace(prompt, schedule=DecaySchedule(gamma=0.98, origin="answer_start"))
        for _ in range(200):
            score = random_pairscore(rng, max_len=40, prompt_len=int(rng.integers(0, 201)))
            l = int(score.prompt_len[0])
            want = pair_losses(score, replace(answer, beta=0.5 * 0.98 ** l))
            assert pair_losses(score, prompt) == pytest.approx(want, rel=1e-12, abs=0)

    def test_swap_negates_margin(self, rng):
        cfg = LossConfig(method="d2po",
                         schedule=DecaySchedule(kind="exponential", gamma=0.8))
        for _ in range(30):
            s = random_pairscore(rng)
            T_w = s.chosen_logps.shape[0]
            swapped = PairScore(s.rejected_logps, s.chosen_logps,
                                s.rejected_ref_logps, s.chosen_ref_logps,
                                s.prompt_len)
            if T_w != s.rejected_logps.shape[0]:
                continue
            loss = d2po_loss(s, cfg)
            loss_sw = d2po_loss(swapped, cfg)
            # loss(m) + loss(-m) >= 2 ln 2, equality iff m = 0
            assert loss + loss_sw >= 2 * LN2 - 1e-12


class TestRefFree:
    def test_equal_logps_is_ln2(self, rng):
        lp = -np.abs(rng.normal(1, 0.5, 4))
        score = PairScore(lp, lp.copy())
        assert d2po_ref_free_loss(score, LossConfig(method="d2po_ref_free")) \
            == pytest.approx(LN2, abs=1e-12)

    def test_equals_d2po_with_zero_reference(self, rng):
        cfg = LossConfig(method="d2po_ref_free",
                         schedule=DecaySchedule(kind="exponential", gamma=0.9))
        cfg_ref = LossConfig(method="d2po", schedule=cfg.schedule)
        for _ in range(50):
            s = random_pairscore(rng, with_ref=False)
            zeroed = PairScore(s.chosen_logps, s.rejected_logps,
                               np.zeros_like(s.chosen_logps),
                               np.zeros_like(s.rejected_logps), s.prompt_len)
            assert d2po_ref_free_loss(s, cfg) == d2po_loss(zeroed, cfg_ref)

    def test_uniform_hand_sum(self):
        cw = np.array([-0.5, -1.0])
        cl = np.array([-0.2, -0.3, -0.4])
        score = PairScore(cw, cl)
        cfg = LossConfig(method="d2po_ref_free", beta=0.1, schedule=UNIFORM)
        margin = 0.1 * (-1.5) - 0.1 * (-0.9)
        assert d2po_ref_free_loss(score, cfg) == pytest.approx(
            np.log1p(np.exp(-margin)), abs=1e-12)


class TestSimPO:
    def test_worked_example(self):
        score = PairScore(np.array([-0.5, -0.5]), np.array([-2.0]))
        cfg = LossConfig(method="simpo", beta=2.0, target_margin=0.5)
        assert simpo_loss(score, cfg) == pytest.approx(np.log1p(np.exp(-2.5)), abs=1e-12)
        assert simpo_loss(score, cfg) == pytest.approx(0.078889, abs=1e-6)

    def test_equal_means_zero_margin(self):
        score = PairScore(np.array([-1.0, -1.0]), np.array([-1.0]))
        cfg = LossConfig(method="simpo", beta=1.0, target_margin=0.0)
        assert simpo_loss(score, cfg) == pytest.approx(LN2, abs=1e-12)

    def test_length_invariance(self, rng):
        cfg = LossConfig(method="simpo", beta=1.3, target_margin=0.2)
        s = random_pairscore(rng, with_ref=False)
        doubled = PairScore(np.repeat(s.chosen_logps, 2), s.rejected_logps)
        assert simpo_loss(s, cfg) == pytest.approx(
            simpo_loss(doubled, cfg), abs=1e-12)


class TestIPO:
    def test_perfect_margin(self):
        tau = 0.2
        score = score_from_ratios([1.0, 1.5], [0.0])  # h = 2.5 = 1/(2 tau)
        assert ipo_loss(score, LossConfig(method="ipo", tau=tau)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        score = score_from_ratios([0.6], [0.0])  # h = 0.6
        assert ipo_loss(score, LossConfig(method="ipo", tau=0.1)) \
            == pytest.approx(19.36, abs=1e-9)

    def test_gradient_linear_in_h(self, rng):
        cfg = LossConfig(method="ipo", tau=0.15)
        cw = -np.abs(rng.normal(1, 0.4, 3))
        refs = -np.abs(rng.normal(1, 0.4, 3))
        cl = np.array([-0.7])
        rl = np.array([-0.6])

        def f(v):
            return ipo_loss(PairScore(v, cl, refs, rl), cfg)

        t = ad.Tape()
        cw_t = ad.leaf(t, cw)
        loss = ipo_loss(PairScore(cw_t, cl, refs, rl), cfg)
        g = ad.gradients(loss, [cw_t])[cw_t]
        h = np.sum(cw - refs) - np.sum(cl - rl)
        assert g == pytest.approx(np.full(3, 2.0 * (h - 1.0 / 0.3)), rel=1e-9)
        assert np.allclose(g, central_difference(f, cw), rtol=1e-4)

    def test_tau_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            ipo_loss(random_pairscore(rng), LossConfig(method="ipo", tau=0.0))


class TestKTO:
    def test_policy_equals_reference(self):
        lp = np.array([-1.0, -2.0])
        score = PairScore(lp, lp.copy(), lp.copy(), lp.copy())
        cfg = LossConfig(method="kto")
        # lambda_w sigma(0) + lambda_l sigma(0)
        assert kto_loss([(score, True)], cfg, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_saturation(self):
        # lambda_w sigma(z - beta r_w) + lambda_l sigma(beta r_l - z), the
        # paper's lambda_y - v(x, y): with beta r_w = +10 and beta r_l = -10
        # both sigmoids saturate at 0
        score = score_from_ratios([100.0], [-100.0])  # beta 0.1 -> +-10
        cfg = LossConfig(method="kto", beta=0.1)
        assert kto_loss([(score, True)], cfg, 0.0) == pytest.approx(0.0, abs=1e-4)
        # the desirable term alone saturates at 0; the undesirable one is sigma(0)
        one_sided = score_from_ratios([100.0], [0.0])
        assert kto_loss([(one_sided, True)], cfg, 0.0) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("desirable", [True, False])
    def test_descent_raises_the_desirable_and_lowers_the_undesirable(self, desirable, rng):
        """At policy = reference the loss falls as the desirable response's
        log-probs rise and as the undesirable one's fall, for every token,
        with the anchor given or estimated from the batch."""
        s = random_pairscore(rng)
        s = replace(s, chosen_ref_logps=s.chosen_logps.copy(),
                    rejected_ref_logps=s.rejected_logps.copy())
        cfg = LossConfig(method="kto", lambda_w=1.3, lambda_l=0.7)
        losses = [lambda t: kto_loss([(t, desirable)], cfg, 0.0)]
        if desirable:  # batch_loss reads the chosen response as the desirable one
            losses.append(lambda t: batch_loss(t, cfg))
        for loss_of in losses:
            t = taped(ad.Tape(), s)
            g = ad.gradients(loss_of(t), [t.chosen_logps, t.rejected_logps])
            good, bad = ((t.chosen_logps, t.rejected_logps) if desirable
                         else (t.rejected_logps, t.chosen_logps))
            assert np.all(g[good] < 0.0) and np.all(g[bad] > 0.0)

    def test_loss_is_nonnegative(self, rng):
        cfg = LossConfig(method="kto", lambda_w=1.3, lambda_l=0.7)
        for _ in range(50):
            s = random_pairscore(rng)
            assert pair_losses(s, cfg, 0.3).min() >= 0.0

    def test_label_false_swaps_roles(self, rng):
        cfg = LossConfig(method="kto")
        s = random_pairscore(rng)
        swapped = PairScore(s.rejected_logps, s.chosen_logps,
                            s.rejected_ref_logps, s.chosen_ref_logps, s.prompt_len)
        assert kto_loss([(s, False)], cfg, 0.3) == \
            pytest.approx(kto_loss([(swapped, True)], cfg, 0.3), abs=1e-15)

    def test_z_ref_clamped_and_detached(self, rng):
        cfg = LossConfig(method="kto")
        s = random_pairscore(rng)
        assert kto_loss([(s, True)], cfg, -5.0) == kto_loss([(s, True)], cfg, 0.0)
        assert estimate_z_ref([(s, True)], cfg) >= 0.0

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="kto_loss requires a nonempty batch"):
            kto_loss([], LossConfig(method="kto"), 0.0)
        with pytest.raises(ValueError, match="estimate_z_ref requires a nonempty batch"):
            estimate_z_ref([], LossConfig(method="kto"))


class TestORPO:
    def test_odds_transform_hand_value(self):
        # mean chosen logp -0.5: p ~= 0.606531, log-odds ~= 0.432781
        score = PairScore(np.array([-0.5, -0.5]), np.array([-0.5]))
        cfg = LossConfig(method="orpo", lambda_orpo=1.0)
        # both sides share the mean, so the penalty is ln 2 and nll is 0.5
        assert orpo_loss(score, cfg) == pytest.approx(0.5 + LN2, abs=1e-9)
        p = np.exp(-0.5)
        assert p == pytest.approx(0.606531, abs=1e-6)
        assert p / (1 - p) == pytest.approx(1.541494, abs=1e-6)
        assert np.log(p / (1 - p)) == pytest.approx(0.432752, abs=1e-6)

    def test_equal_means_penalty_is_lambda_ln2(self):
        score = PairScore(np.array([-0.8]), np.array([-0.8, -0.8]))
        for lam in (0.5, 2.0):
            cfg = LossConfig(method="orpo", lambda_orpo=lam)
            assert orpo_loss(score, cfg) == pytest.approx(0.8 + lam * LN2, abs=1e-12)

    def test_lambda_zero_is_plain_nll(self, rng):
        s = random_pairscore(rng, with_ref=False)
        cfg = LossConfig(method="orpo", lambda_orpo=0.0)
        assert orpo_loss(s, cfg) == pytest.approx(
            -np.mean(s.chosen_logps), abs=1e-12)

    def test_singular_odds_rejected(self):
        score = PairScore(np.array([0.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            orpo_loss(score, LossConfig(method="orpo"))

    @staticmethod
    def own_weights_oracle(score, cfg):
        """orpo's per-pair losses with the mean log-probs from their own
        1/T weights, not simpo's margin form."""
        T_w, T_l = score.chosen_lens, score.rejected_lens
        mean_w = segment_sums(score.chosen_logps, T_w, np.repeat(1.0 / T_w, T_w))
        mean_l = segment_sums(score.rejected_logps, T_l, np.repeat(1.0 / T_l, T_l))
        lo_w = ad.sub(mean_w, ad.log1mexp(mean_w))
        lo_l = ad.sub(mean_l, ad.log1mexp(mean_l))
        penalty = ad.scale(ad.logsigmoid(ad.sub(lo_w, lo_l)), -cfg.lambda_orpo)
        return ad.add(ad.scale(mean_w, -1.0), penalty)

    def test_means_from_simpo_sides_bit_identical_to_own_weights(self, rng):
        """Losses, gradients and tape length equal the oracle's exactly on
        ragged batches of 1 to 8 pairs of 1 to 39 tokens a response."""
        for _ in range(300):
            cfg = LossConfig(method="orpo", lambda_orpo=float(rng.uniform(0.1, 2.0)))
            score = join_pairs([random_pairscore(rng, with_ref=False, max_len=39)
                                for _ in range(int(rng.integers(1, 9)))])
            w = rng.normal(size=len(score.example_id))
            runs = []
            for loss_fn in (pair_losses, self.own_weights_oracle):
                tape = ad.Tape()
                s = taped(tape, score)
                losses = loss_fn(s, cfg)
                grads = ad.gradients(ad.weighted_sum(losses, w),
                                     [s.chosen_logps, s.rejected_logps])
                runs.append((losses.value.tobytes(), grads[s.chosen_logps].tobytes(),
                             grads[s.rejected_logps].tobytes(), len(tape.nodes)))
            assert runs[0] == runs[1]


class TestSamPO:
    def test_equal_lengths_equals_uniform_d2po(self, rng):
        cfg = LossConfig(method="sampo", sampo_seed=7)
        cfg_u = LossConfig(method="d2po", schedule=UNIFORM)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = PairScore(-np.abs(rng.normal(1, .5, n)), -np.abs(rng.normal(1, .5, n)),
                          -np.abs(rng.normal(1, .5, n)), -np.abs(rng.normal(1, .5, n)))
            assert sampo_loss(s, cfg) == d2po_loss(s, cfg_u)

    def test_deterministic_per_seed_and_id(self, rng):
        s = replace(random_pairscore(rng), example_id=11)
        cfg = LossConfig(method="sampo", sampo_seed=3)
        assert sampo_loss(s, cfg) == sampo_loss(s, cfg)

    def test_index_sets_have_min_length(self):
        idx_w, idx_l = sampo_indices(9, 4, sampo_seed=0, example_id=5)
        assert idx_w.shape == (4,) and idx_l.shape == (4,)
        assert len(set(idx_w.tolist())) == 4
        assert np.array_equal(idx_l, np.arange(4))

    def test_monte_carlo_expectation(self, rng):
        T_long, T_m = 12, 5
        vals = rng.normal(0, 1, T_long)
        draws = 10000
        sums = np.empty(draws)
        for d in range(draws):
            idx, _ = sampo_indices(T_long, T_m, sampo_seed=d, example_id=0)
            sums[d] = np.sum(vals[idx])
        expected = (T_m / T_long) * np.sum(vals)
        se = np.std(sums, ddof=1) / np.sqrt(draws)
        assert abs(np.mean(sums) - expected) < 3 * se


class TestBatchLoss:
    def test_singleton(self, rng):
        s = random_pairscore(rng)
        cfg = LossConfig(method="d2po")
        assert batch_loss(join_pairs([s]), cfg) == pair_loss(s, cfg)

    def test_duplicates(self, rng):
        s = random_pairscore(rng)
        cfg = LossConfig(method="ipo")
        assert batch_loss(join_pairs([s, s]), cfg) == pytest.approx(pair_loss(s, cfg), abs=1e-12)

    def test_mean_of_individual_calls(self, rng):
        cfg = LossConfig(method="d2po",
                         schedule=DecaySchedule(kind="exponential", gamma=0.9))
        scores = [random_pairscore(rng) for _ in range(8)]
        individual = [pair_loss(s, cfg) for s in scores]
        assert batch_loss(join_pairs(scores), cfg) == pytest.approx(np.mean(individual),
                                                                    abs=1e-12)

    def test_empty_batch(self):
        """A PairScore of no pairs is one error, raised where it is built, so
        no loss ever sees an empty batch."""
        for refs in ((np.zeros(0), np.zeros(0)), (None, None)):
            with pytest.raises(ValueError, match="^a PairScore needs at least one pair$"):
                PairScore(np.zeros(0), np.zeros(0), *refs, prompt_len=[], example_id=[],
                          chosen_lens=[], rejected_lens=[])


NAMED_LOSSES = {"d2po": d2po_loss, "dpo": dpo_loss, "d2po_ref_free": d2po_ref_free_loss,
                "simpo": simpo_loss, "ipo": ipo_loss, "sampo": sampo_loss, "orpo": orpo_loss}


@pytest.mark.parametrize("method", sorted(NAMED_LOSSES))
def test_named_loss_is_batch_loss_under_its_method(method, rng):
    """Each named loss is batch_loss with cfg.method set to its method,
    whatever cfg.method says: the same float, or the same taped value."""
    cfg = LossConfig(method="kto", schedule=DecaySchedule(kind="exponential", gamma=0.9),
                     target_margin=0.3, sampo_seed=5)
    own = replace(cfg, method=method)
    for _ in range(20):
        score = join_pairs([random_pairscore(rng) for _ in range(int(rng.integers(1, 6)))])
        value = NAMED_LOSSES[method](score, cfg)
        assert type(value) is float and value == batch_loss(score, own)
        taped_value = NAMED_LOSSES[method](taped(ad.Tape(), score), cfg).value
        assert taped_value.tobytes() == batch_loss(taped(ad.Tape(), score), own).value.tobytes()


def taped(tape, score):
    """``score`` with its policy log-probs as leaves of ``tape``."""
    return replace(score, chosen_logps=ad.leaf(tape, score.chosen_logps),
                   rejected_logps=ad.leaf(tape, score.rejected_logps))


@pytest.mark.parametrize("method", METHODS)
def test_plain_batch_loss_equals_taped_bit_for_bit(method, rng):
    """One loss definition: plain scores give exactly the taped value."""
    cfg = LossConfig(method=method, schedule=DecaySchedule(kind="exponential", gamma=0.9),
                     target_margin=0.3, sampo_seed=5)
    for _ in range(200):
        score = join_pairs([random_pairscore(rng) for _ in range(int(rng.integers(2, 9)))])
        plain = batch_loss(score, cfg)
        assert type(plain) is float
        assert plain == float(batch_loss(taped(ad.Tape(), score), cfg).value)


@pytest.mark.parametrize("method", METHODS)
def test_a_batch_equals_its_pairs_bit_for_bit(method, rng):
    """Batched per-pair losses, batch loss and gradients, plain and taped,
    are those of the pairs scored one by one, for 1 to 12 pairs of mixed
    response and prompt lengths (and SamPO draws by example_id)."""
    cfg = LossConfig(method=method, schedule=DecaySchedule(kind="exponential", gamma=0.9),
                     target_margin=0.3, sampo_seed=5, beta=0.7)
    for k in [*range(1, 13), 8, 11, 12]:
        singles = [random_pairscore(rng, max_len=12) for _ in range(k)]
        batch = join_pairs(singles)
        want = [pair_loss(s, cfg) for s in singles]
        assert pair_losses(batch, cfg).tolist() == want
        assert batch_loss(batch, cfg) == float(pairwise_batch_loss(singles, cfg))

        tape = ad.Tape()
        batch_t = taped(tape, batch)
        assert pair_losses(batch_t, cfg).value.tolist() == want
        loss = batch_loss(batch_t, cfg)
        grads = ad.gradients(loss, [batch_t.chosen_logps, batch_t.rejected_logps])
        singles_t = [taped(tape, s) for s in singles]
        want_loss = pairwise_batch_loss(singles_t, cfg)
        want_grads = ad.gradients(want_loss, [t for s in singles_t
                                              for t in (s.chosen_logps, s.rejected_logps)])
        assert float(loss.value) == float(want_loss.value)
        for side, name in ((batch_t.chosen_logps, "chosen_logps"),
                           (batch_t.rejected_logps, "rejected_logps")):
            want_side = np.concatenate([want_grads[getattr(s, name)] for s in singles_t])
            assert grads[side].tobytes() == want_side.tobytes(), (method, k, name)


def test_pair_score_holds_one_value_per_pair(rng):
    s = join_pairs([random_pairscore(rng) for _ in range(3)])
    assert [len(v) for v in (s.chosen_lens, s.rejected_lens, s.prompt_len, s.example_id)] \
        == [3] * 4
    assert PairScore(np.ones(4), np.ones(2), prompt_len=5).chosen_lens.tolist() == [4]
    with pytest.raises(ValueError, match="one of each"):
        replace(s, prompt_len=2)
    with pytest.raises(ValueError, match="^chosen response lengths"):  # they overrun the side
        replace(s, chosen_lens=s.chosen_lens + 1)


# PairScore fields -> the side whose lengths do not fit its arrays
LAYOUT_ERRORS = {
    # lengths that add up to 4 of 5 tokens
    "chosen_short": ("chosen", dict(chosen_lens=[1, 3])),
    "rejected_long": ("rejected", dict(rejected_lens=[2, 2])),
    # a reference array one entry short
    "chosen_ref_short": ("chosen", dict(chosen_ref_logps=np.full(4, -1.0))),
    "rejected_ref_short": ("rejected", dict(rejected_ref_logps=np.full(2, -1.0))),
    # a response of no tokens, though the lengths add up
    "chosen_empty": ("chosen", dict(chosen_lens=[0, 5])),
    "rejected_empty": ("rejected", dict(rejected_lens=[3, 0])),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_ERRORS))
def test_pair_score_checks_its_layout(case):
    """Each side's lengths are at least 1 and add up to its log-prob array
    and its reference array, or the PairScore names the side."""
    fields = dict(chosen_logps=np.full(5, -1.0), rejected_logps=np.full(3, -1.0),
                  chosen_ref_logps=np.full(5, -1.0), rejected_ref_logps=np.full(3, -1.0),
                  prompt_len=[0, 0], example_id=[0, 1], chosen_lens=[2, 3],
                  rejected_lens=[1, 2])
    side, bad = LAYOUT_ERRORS[case]
    PairScore(**fields)
    with pytest.raises(ValueError, match=f"^{side} response lengths"):
        PairScore(**{**fields, **bad})


@pytest.mark.parametrize("method", ["d2po", "simpo", "orpo"])
def test_a_margin_that_is_not_finite_makes_only_its_pair_nan(method):
    """A margin that overflows (for orpo: a log-prob of -inf) is a nan loss
    for its pair alone, plain and taped, so the batch mean is nan; the
    other pairs keep their losses."""
    cfg = LossConfig(method=method, beta=1e10)
    bad = [-np.inf, -1.0] if method == "orpo" else [-1e300, -1.0]
    singles = [PairScore(np.array([-1.0, -1.0]), np.array(rejected), np.zeros(2), np.zeros(2))
               for rejected in ([-2.0, -1.0], bad)]
    batch = join_pairs(singles)
    with np.errstate(all="ignore"):  # as train and analyze length-bias score
        losses = pair_losses(batch, cfg)
        assert losses[0] == pair_loss(singles[0], cfg) and np.isfinite(losses[0])
        assert np.isnan(losses[1]) and np.isnan(pair_loss(singles[1], cfg))
        assert np.isnan(batch_loss(batch, cfg))
        assert np.array_equal(pair_losses(taped(ad.Tape(), batch), cfg).value, losses,
                              equal_nan=True)
        assert np.isnan(batch_loss(taped(ad.Tape(), batch), cfg).value)


def test_kto_loss_takes_several_items(rng):
    """kto_loss and estimate_z_ref read every item of the batch, each with
    its own label: the items' pairs added in order, as one by one."""
    cfg = LossConfig(method="kto")
    items = [(random_pairscore(rng), label) for label in (True, False, True)]
    want = (kto_loss(items[:1], cfg, 0.2) + kto_loss(items[1:2], cfg, 0.2)
            + kto_loss(items[2:], cfg, 0.2)) / 3
    assert kto_loss(items, cfg, 0.2) == pytest.approx(want, abs=1e-15)
    assert estimate_z_ref(items, cfg) == estimate_z_ref(
        [(join_pairs([s for s, _ in items]), True)], cfg)


@pytest.mark.parametrize("method", METHODS)
def test_config_rejects_nonpositive_tau_for_every_method(method):
    # as the CLI's --tau domain does, whether or not the method reads tau
    with pytest.raises(ValueError, match="tau must be > 0"):
        LossConfig(method=method, tau=0.0)


FD_METHODS = ["d2po", "d2po_ref_free", "simpo", "ipo", "kto", "orpo", "sampo"]


@pytest.mark.parametrize("method", FD_METHODS)
def test_finite_difference_gradients(method, rng):
    cfg = LossConfig(method=method,
                     schedule=DecaySchedule(kind="exponential", gamma=0.92),
                     tau=0.2, sampo_seed=1)

    def evaluate(cw, cl, score_template):
        s = PairScore(cw, cl, score_template.chosen_ref_logps,
                      score_template.rejected_ref_logps,
                      score_template.prompt_len, score_template.example_id)
        if method == "kto":
            # z_ref is gradient-detached by contract, so hold it fixed
            return kto_loss([(s, True)], cfg, 0.2)
        return pair_loss(s, cfg)

    for _ in range(25):
        base = random_pairscore(rng)
        t = ad.Tape()
        cw_t = ad.leaf(t, base.chosen_logps)
        cl_t = ad.leaf(t, base.rejected_logps)
        s = PairScore(cw_t, cl_t, base.chosen_ref_logps, base.rejected_ref_logps,
                      base.prompt_len, base.example_id)
        loss = kto_loss([(s, True)], cfg, 0.2) if method == "kto" else pair_loss(s, cfg)
        g = ad.gradients(loss, [cw_t, cl_t])
        fd_w = central_difference(
            lambda v: evaluate(v, base.rejected_logps, base), base.chosen_logps)
        fd_l = central_difference(
            lambda v: evaluate(base.chosen_logps, v, base), base.rejected_logps)
        assert np.allclose(g[cw_t], fd_w, rtol=1e-4, atol=1e-8)
        assert np.allclose(g[cl_t], fd_l, rtol=1e-4, atol=1e-8)


def test_readme_loss_table_matches_methods():
    """README's "Loss methods" table lists METHODS, with the reference
    column saying "no" exactly for REFERENCE_FREE."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Loss methods", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    table = {name.strip().strip("`"): needed.strip() for name, needed in rows}
    assert set(table) == set(METHODS)
    assert table == {m: "no" if m in REFERENCE_FREE else "yes" for m in METHODS}
