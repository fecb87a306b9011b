import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (BAD_MANIFEST_FIELDS, MISFITS, forward_logits, misfit_params,
                      write_raw_checkpoint)
from decaypo import autodiff as ad
from decaypo.data import PreferencePair, RewardOracle, synthetic_corpus
from decaypo.losses import METHODS, LossConfig, PairScore, batch_loss, d2po_loss
from decaypo.model import PolicyModel, make_sequence, token_logprobs
from decaypo.schedules import DecaySchedule, UNIFORM, weights
from decaypo.training import (AdamW, Checkpoint, TrainConfig, cosine_lr,
                              evaluate_winrate, load_checkpoint, pretrain_nll,
                              save_checkpoint, score_pairs, train, _batch_gradients,
                              grad_norm)


def small_model(seed=0, trained=False):
    m = PolicyModel(dim=16, context=48, blocks=2, seed=seed)
    if trained:
        r = np.random.default_rng(seed + 77)
        m.params["w_out"] = r.normal(0, 0.05, size=m.params["w_out"].shape)
    return m


def toy_pairs(n=12, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        chosen = bytes(rng.integers(97, 105, size=rng.integers(2, 7)).tolist())
        rejected = bytes(rng.integers(97, 105, size=rng.integers(2, 7)).tolist())
        if chosen == rejected:
            rejected += b"z"
        pairs.append(PreferencePair(id=str(i), prompt=b"ab?", chosen=chosen,
                                    rejected=rejected))
    return pairs


class TestCosineLR:
    def test_anchors(self):
        assert cosine_lr(0, 100, 0.1, 1.0) == 0.0
        assert cosine_lr(10, 100, 0.1, 1.0) == 1.0
        assert abs(cosine_lr(100, 100, 0.1, 1.0)) < 1e-12

    def test_continuous_at_warmup_boundary(self):
        before = cosine_lr(9, 100, 0.1, 2.0)
        at = cosine_lr(10, 100, 0.1, 2.0)
        assert at == 2.0 and before == pytest.approx(1.8, abs=1e-12)

    def test_no_warmup(self):
        assert cosine_lr(0, 10, 0.0, 1.0) == 1.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.1, 1.0)


class TestCheckpointIO:
    def test_roundtrip_forward_identical(self, tmp_path):
        m = small_model(trained=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(m, step=7, seed=3), path)
        loaded = load_checkpoint(path)
        assert loaded.step == 7 and loaded.seed == 3
        # float32 storage: reloading a reloaded checkpoint is bit-exact
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_reload_reproduces_forward_pass(self, tmp_path):
        m = small_model(trained=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(m), path)
        loaded = load_checkpoint(path)
        d1 = forward_logits(loaded.model, [256, 65])
        d2 = forward_logits(load_checkpoint(path).model, [256, 65])
        assert np.array_equal(d1, d2)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x08\x00\x00\x00{\"a\": 1}")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @staticmethod
    def tiny_checkpoint_bytes(tmp_path) -> bytes:
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(Checkpoint(PolicyModel(dim=2, context=4, blocks=1)), path)
        return path.read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_extended_rejected_naming_file(self, tmp_path, data):
        blob = self.tiny_checkpoint_bytes(tmp_path)
        if data.draw(st.booleans(), label="truncate"):
            bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
        else:
            bad = blob + data.draw(st.binary(min_size=1, max_size=64), label="extra")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="bad.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob", [
        b"",
        b"\x02\x00",
        b"\x02\x00\x00\x00[]",
        b"\x0c\x00\x00\x00\"manifest\"",
    ], ids=["empty", "two_bytes", "list_manifest", "string_manifest"])
    def test_malformed_header_or_manifest_names_file(self, tmp_path, blob):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(BAD_MANIFEST_FIELDS))
    def test_manifest_field_types_named(self, tmp_path, case):
        key, value = BAD_MANIFEST_FIELDS[case]
        path = tmp_path / "bad.ckpt"
        write_raw_checkpoint(path, dict(PolicyModel(dim=16, context=48, seed=0).params),
                             **{key: value})
        with pytest.raises(ValueError, match="bad.ckpt") as err:
            load_checkpoint(path)
        assert repr(key) in str(err.value)

    def test_manifest_config_hash_ignored(self, tmp_path):
        """Older checkpoints carry a "config_hash" manifest key; it loads to
        the same checkpoint, which saves without the key."""
        m = small_model(trained=True)
        save_checkpoint(Checkpoint(m, step=7, seed=3), tmp_path / "m.ckpt")
        for value in ("", 5):
            path = tmp_path / "old.ckpt"
            write_raw_checkpoint(path, m.params, step=7, seed=3, config_hash=value)
            loaded = load_checkpoint(path)
            assert loaded.step == 7 and loaded.seed == 3
            save_checkpoint(loaded, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "m.ckpt").read_bytes()

    def test_negative_root_seed_loads(self, tmp_path):
        path = tmp_path / "neg.ckpt"
        write_raw_checkpoint(path, dict(PolicyModel(dim=16, context=48, seed=0).params),
                             seed=-1)
        assert load_checkpoint(path).seed == -1

    @pytest.mark.parametrize("case", sorted(MISFITS))
    def test_parameters_must_fit_architecture(self, tmp_path, case):
        params, blocks = misfit_params(case)
        path = tmp_path / "bad.ckpt"
        write_raw_checkpoint(path, params, blocks=blocks)
        with pytest.raises(ValueError, match="bad.ckpt") as err:
            load_checkpoint(path)
        assert repr(MISFITS[case]) in str(err.value)


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = AdamW(params, ["w"])
        g = np.array([0.5, -0.25])
        opt.step({"w": g}, lr=0.1)
        m_hat = g          # t=1 bias correction is exact
        v_hat = g * g
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params["w"], expected, atol=1e-12)

    def test_decoupled_weight_decay(self):
        params = {"w": np.array([2.0])}
        opt = AdamW(params, ["w"], weight_decay=0.5)
        opt.step({"w": np.array([0.0])}, lr=0.1)
        # zero gradient: only the decay term moves the weight
        assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_step_bit_identical_to_out_of_place(self, weight_decay):
        """The in-place step gives the same bits as the plain formulas."""
        rng = np.random.default_rng(3)
        shapes = {"w": (5, 7), "b": (7,)}
        params = {n: rng.normal(size=s) for n, s in shapes.items()}
        ref = {n: p.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        opt = AdamW(params, sorted(shapes), weight_decay=weight_decay)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 7):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            lr = 0.05 / t
            opt.step(grads, lr=lr)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n in sorted(shapes):
                g = grads[n]
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                update = (m[n] / c1) / (np.sqrt(v[n] / c2) + eps)
                if weight_decay:
                    update = update + weight_decay * ref[n]
                ref[n] -= lr * update
            for n in shapes:
                assert np.array_equal(params[n], ref[n])
                assert np.array_equal(opt.m[n], m[n])
                assert np.array_equal(opt.v[n], v[n])


class TestTrain:
    def make_cfg(self, **kw):
        defaults = dict(loss=LossConfig(method="d2po"), batch_size=4, epochs=1,
                        seed=11, lr_multiplier=1e3)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_epochs_bit_identical(self, tmp_path):
        init = Checkpoint(small_model(trained=True), step=5, seed=9)
        save_checkpoint(init, tmp_path / "in.ckpt")
        init = load_checkpoint(tmp_path / "in.ckpt")
        out, metrics = train(self.make_cfg(epochs=0), toy_pairs(), init,
                             Checkpoint(init.model.copy()))
        assert metrics == []
        save_checkpoint(out, tmp_path / "out.ckpt")
        assert (tmp_path / "in.ckpt").read_bytes() == \
            (tmp_path / "out.ckpt").read_bytes()

    def test_deterministic_checkpoints(self, tmp_path):
        pairs = toy_pairs()
        for name in ("a", "b"):
            init = Checkpoint(small_model(trained=True))
            ref = Checkpoint(init.model.copy())
            out, metrics = train(self.make_cfg(max_steps=4), pairs, init, ref)
            save_checkpoint(out, tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_metrics_stream_identical_for_gamma_one_and_uniform(self):
        pairs = toy_pairs()
        runs = []
        for schedule in (UNIFORM,
                         DecaySchedule(kind="exponential", gamma=1.0)):
            init = Checkpoint(small_model(trained=True))
            cfg = self.make_cfg(loss=LossConfig(method="d2po", schedule=schedule),
                                max_steps=4)
            _, metrics = train(cfg, pairs, init, Checkpoint(init.model.copy()))
            runs.append(metrics)
        assert runs[0] == runs[1]

    def test_metrics_record_required_fields(self):
        init = Checkpoint(small_model(trained=True))
        _, metrics = train(self.make_cfg(max_steps=2), toy_pairs(), init,
                           Checkpoint(init.model.copy()))
        for m in metrics:
            assert {"step", "loss", "margin", "grad_norm", "lr"} <= set(m)

    def test_reference_required_for_reference_based(self):
        init = Checkpoint(small_model())
        with pytest.raises(ValueError):
            train(self.make_cfg(), toy_pairs(), init, None)

    def test_context_overflow_skipped_and_counted(self):
        init = Checkpoint(small_model(trained=True))
        pairs = toy_pairs(4) + [PreferencePair(id="big", prompt=b"p" * 30,
                                               chosen=b"c" * 30, rejected=b"r" * 40)]
        cfg = self.make_cfg(batch_size=8, max_steps=1)
        _, metrics = train(cfg, pairs, init, Checkpoint(init.model.copy()))
        assert sum(m["skipped"] for m in metrics) == 1

    def test_grad_norm_matches_independent_backward(self):
        init = Checkpoint(small_model(trained=True))
        cfg = self.make_cfg()
        pairs = toy_pairs(4)
        batch = [(p, i) for i, p in enumerate(pairs)]
        names = init.model.param_names()
        result1, _ = _batch_gradients(init.model, init.model, batch, cfg)
        result2, _ = _batch_gradients(init.model, init.model, batch, cfg)
        _, _, g1 = result1
        _, _, g2 = result2
        assert abs(grad_norm(g1, names) - grad_norm(g2, names)) <= 1e-10
        for n in names:
            assert np.array_equal(g1[n], g2[n])

    def test_loss_decreases_on_separable_pairs(self):
        # every pair prefers the same response, so a few steps must help
        pairs = [PreferencePair(id=str(i), prompt=b"q?", chosen=b"good",
                                rejected=bytes([120 + i % 3]) * 5)
                 for i in range(8)]
        init = Checkpoint(small_model(trained=True))
        cfg = self.make_cfg(max_steps=25, epochs=25, batch_size=8)
        _, metrics = train(cfg, pairs, init, Checkpoint(init.model.copy()))
        assert metrics[-1]["loss"] < metrics[0]["loss"]


def per_sequence_batch_gradients(policy, reference, batch, cfg):
    """_batch_gradients scoring each sequence in a forward pass of its own
    (the policy ones on one shared tape): the reference for the packed step."""
    tape = ad.Tape()
    names = policy.param_names()
    leaves = {n: ad.leaf(tape, policy.params[n]) for n in names}
    scores = []
    for pair, example_id in batch:
        seq_w, seq_l = (make_sequence(pair.prompt, r[:cfg.max_response_len])
                        for r in (pair.chosen, pair.rejected))
        if max(s.prompt_len + s.response_len for s in (seq_w, seq_l)) > policy.context:
            continue
        scores.append(PairScore(
            token_logprobs(policy, seq_w, tape, leaves), token_logprobs(policy, seq_l, tape, leaves),
            None if reference is None else token_logprobs(reference, seq_w),
            None if reference is None else token_logprobs(reference, seq_l),
            prompt_len=seq_w.prompt_len, example_id=example_id))
    loss = batch_loss(scores, cfg.loss)
    grads = ad.gradients(loss, [leaves[n] for n in names])
    margins = [float(np.sum(s.chosen_logps.value) - np.sum(s.rejected_logps.value))
               for s in scores]
    return float(loss.value), float(np.mean(margins)), {n: grads[leaves[n]] for n in names}


def copying_gradients(output, inputs):
    """ad.gradients with an accumulator that copies each first cotangent and
    adds the later ones into the copy in place."""
    grads = {id(output): np.array(1.0)}
    for node in reversed(output.tape.nodes):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            pg = vjp(g)
            if id(parent) in grads:
                grads[id(parent)] += pg
            else:
                grads[id(parent)] = np.array(pg, dtype=np.float64)
    return {t: grads.get(id(t), np.zeros(t.value.shape)) for t in inputs}


def mixed_length_batch(n=8, seed=5):
    """(pair, example_id) items with responses from 8 toward 200 bytes, most
    of them short, and one pair too long for a 256-token context."""
    rng = np.random.default_rng(seed)
    batch = []
    for i, x in enumerate(np.linspace(0.0, 1.0, n)):
        size = round(8 * 25 ** (x * x))
        chosen = bytes(rng.integers(97, 105, size=size).tolist())
        rejected = bytes(rng.integers(97, 105, size=max(1, size + (-3, 2, 5)[i % 3])).tolist())
        batch.append((PreferencePair(id=str(i), prompt=b"q%d?" % i, chosen=chosen,
                                     rejected=rejected), 10 * i))
    batch.insert(3, (PreferencePair(id="long", prompt=b"p" * 60, chosen=b"c" * 200,
                                    rejected=b"r"), 99))
    return batch


def wide_model(seed):
    m = PolicyModel(dim=16, context=256, blocks=2, seed=seed)
    m.params["w_out"] = np.random.default_rng(seed).normal(0, 0.05, size=m.params["w_out"].shape)
    return m


class TestPackedStep:
    MAX_DEVIATION = 1e-12

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_per_sequence_scoring(self, method):
        policy, reference = wide_model(1), wide_model(2)
        cfg = TrainConfig(loss=LossConfig(method=method), batch_size=9)
        batch = mixed_length_batch()
        (loss, margin, grads), skipped = _batch_gradients(policy, reference, batch, cfg)
        want_loss, want_margin, want_grads = per_sequence_batch_gradients(
            policy, reference, batch, cfg)
        assert skipped == 1
        deviations = [abs(loss - want_loss), abs(margin - want_margin)]
        deviations += [float(np.max(np.abs(grads[n] - want_grads[n]))) for n in grads]
        assert max(deviations) <= self.MAX_DEVIATION
        assert max(float(np.max(np.abs(g))) for g in grads.values()) > 1e-3

    def test_copy_free_backward_matches_a_copying_accumulator(self):
        policy, reference = wide_model(1), wide_model(2)
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=9)
        batch = mixed_length_batch()
        names = policy.param_names()
        with ad.Tape() as tape:   # the tape _batch_gradients records
            leaves = [ad.leaf(tape, policy.params[n]) for n in names]
            scores, _ = score_pairs(policy, reference, batch, cfg.max_response_len,
                                    dict(zip(names, leaves)))
            loss = batch_loss(scores, cfg.loss)
            want = copying_gradients(loss, leaves)
            got = ad.gradients(loss, leaves)
        (_, _, grads), _ = _batch_gradients(policy, reference, batch, cfg)
        for name, leaf in zip(names, leaves):
            assert got[leaf].dtype == want[leaf].dtype == np.float64
            assert np.array_equal(got[leaf], want[leaf])
            assert np.array_equal(grads[name], want[leaf])
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(grads[a], grads[b])

    def test_step_zero_loss_is_exactly_ln2(self):
        # policy = reference: both run the same arithmetic, so every
        # log-ratio, and with it every reward margin, is exactly 0
        policy = wide_model(1)
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=8)
        batch = [item for item in mixed_length_batch() if item[0].id != "long"]
        (loss, _, _), skipped = _batch_gradients(policy, policy.copy(), batch, cfg)
        assert (loss, skipped) == (math.log(2.0), 0)

    def test_step_tape_is_freed_without_the_cyclic_collector(self, monkeypatch):
        tapes = []
        gradients = ad.gradients

        def spy(output, inputs=None):
            tapes.append(weakref.ref(output.tape))
            return gradients(output, inputs)

        monkeypatch.setattr(ad, "gradients", spy)
        policy = wide_model(1)
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=8)
        corpus = {b"ab?": b"cd", b"ef?": b"ghij"}
        gc.collect()
        gc.disable()
        try:
            result, _ = _batch_gradients(policy, policy.copy(), mixed_length_batch(4), cfg)
            assert result is not None and len(tapes) == 1 and tapes[0]() is None
            pretrain_nll(policy, corpus, steps=1, lr=1e-3, batch_size=2, seed=0)
            assert len(tapes) == 2 and tapes[1]() is None
        finally:
            gc.enable()


class TestPerTokenScaling:
    def test_gradient_scaled_by_weights(self):
        # exponential decay scales each position's gradient contribution by
        # w_t relative to the uniform run at identical parameters
        rng = np.random.default_rng(4)
        cw = -np.abs(rng.normal(1, 0.4, 6))
        cl = -np.abs(rng.normal(1, 0.4, 4))
        rw = -np.abs(rng.normal(1, 0.4, 6))
        rl = -np.abs(rng.normal(1, 0.4, 4))
        sched = DecaySchedule(kind="exponential", gamma=0.8, origin="answer_start")

        def grad_for(schedule):
            t = ad.Tape()
            cw_t = ad.leaf(t, cw)
            score = PairScore(cw_t, cl, rw, rl, prompt_len=2)
            loss = d2po_loss(score, LossConfig(method="d2po", schedule=schedule))
            return ad.gradients(loss, [cw_t])[cw_t]

        g_uni = grad_for(UNIFORM)
        g_exp = grad_for(sched)
        w = weights(sched, 6, 2)
        ratio = g_exp / g_uni
        assert np.allclose(ratio / ratio[0], w / w[0], rtol=1e-12)


class TestPretrainNLL:
    def test_reduces_nll(self):
        corpus = synthetic_corpus(4, seed=2, min_target_len=3, max_target_len=5)
        m = small_model()
        from decaypo.model import make_sequence, token_logprobs

        def mean_nll(model):
            vals = []
            for prompt, target in corpus.items():
                lp = token_logprobs(model, make_sequence(prompt, target))
                vals.append(-np.mean(lp))
            return np.mean(vals)

        before = mean_nll(m)
        trained = pretrain_nll(m, corpus, steps=15, lr=5e-3, batch_size=4, seed=0)
        assert mean_nll(trained) < before
        # the input model is untouched
        assert mean_nll(m) == before


class TestWinrate:
    def test_identical_models_all_tie(self):
        corpus = synthetic_corpus(5, seed=3, min_target_len=3, max_target_len=5)
        oracle = RewardOracle(kind="target_match", targets=corpus)
        ckpt = Checkpoint(small_model(trained=True))
        win, tie, lose = evaluate_winrate(ckpt, ckpt, oracle, list(corpus),
                                          temperature=0.8, seed=1, max_len=8)
        assert (win, lose) == (0, 0)
        assert tie == len(corpus)

    def test_totals_sum_to_prompt_count(self):
        corpus = synthetic_corpus(6, seed=4, min_target_len=3, max_target_len=5)
        oracle = RewardOracle(kind="target_match", targets=corpus)
        a = Checkpoint(small_model(seed=1, trained=True))
        b = Checkpoint(small_model(seed=2, trained=True))
        win, tie, lose = evaluate_winrate(a, b, oracle, list(corpus),
                                          temperature=0.8, seed=5, max_len=8)
        assert win + tie + lose == len(corpus)
