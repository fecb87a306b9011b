import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (BAD_MANIFEST_FIELDS, BAD_MANIFESTS, MISFITS, forward_logits, misfit_params,
                      pairwise_batch_loss, write_raw_checkpoint)
from decaypo import autodiff as ad
from decaypo import training as training_module
from decaypo.data import PreferencePair, RewardOracle, synthetic_corpus
from decaypo.losses import METHODS, LossConfig, PairScore, batch_loss, d2po_loss
from decaypo.model import PolicyModel, make_sequence, token_logprobs
from decaypo.schedules import DecaySchedule, UNIFORM, weights
from decaypo.training import (WARMUP_FRACTION, AdamW, Checkpoint, KeptReference,
                              TrainConfig, cosine_lr, evaluate_winrate, load_checkpoint,
                              pretrain_nll, save_checkpoint, score_pairs, train,
                              _batch_gradients, grad_norm)


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
        assert WARMUP_FRACTION == 0.1  # so 10 warmup steps of 100
        assert cosine_lr(0, 100, 1.0) == 0.0
        assert cosine_lr(10, 100, 1.0) == 1.0
        assert abs(cosine_lr(100, 100, 1.0)) < 1e-12

    def test_continuous_at_warmup_boundary(self):
        before = cosine_lr(9, 100, 2.0)
        at = cosine_lr(10, 100, 2.0)
        assert at == 2.0 and before == pytest.approx(1.8, abs=1e-12)

    def test_no_warmup(self):
        """A run of no steps rounds its warmup to none: the peak rate."""
        assert cosine_lr(0, 0, 1.0) == 1.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1.0)


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

    @pytest.mark.parametrize("blob,message", [
        (b"", "truncated checkpoint header"),
        (b"\x02\x00", "truncated checkpoint header"),
        (b"\x02\x00\x00\x00[]", "not a checkpoint file"),
        (b"\x0a\x00\x00\x00\"manifest\"", "not a checkpoint file"),
        *(BAD_MANIFESTS[case] for case in sorted(BAD_MANIFESTS)),
    ], ids=["empty", "two_bytes", "list_manifest", "string_manifest", *sorted(BAD_MANIFESTS)])
    def test_malformed_header_or_manifest_names_file(self, tmp_path, blob, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.ckpt") as err:
            load_checkpoint(path)
        assert message in str(err.value)

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

    @pytest.mark.parametrize("case, name", [("reordered", "embed"), ("float_shape", "w1_0"),
                                            ("float_short", None), ("float_long", None)])
    def test_table_in_param_shapes_order_and_payload_exact(self, tmp_path, case, name):
        """The table lists the parameters in param_shapes order with integer
        shapes, and the payload holds exactly their float32 values: a file
        that breaks this is rejected naming it, and a damaged table also
        names the parameter the architecture needs at the first entry out of
        place. A table in another order, with its payload in that order too,
        is rejected though its names and shapes all fit."""
        params = dict(PolicyModel(dim=16, context=48, blocks=2, seed=0).params)
        path = tmp_path / "bad.ckpt"
        if case == "reordered":
            write_raw_checkpoint(path, {"pos": params["pos"], **params})
        elif case == "float_shape":
            table = [{"name": n, "shape": [16.0, 16] if n == "w1_0" else list(a.shape)}
                     for n, a in params.items()]
            write_raw_checkpoint(path, params, params=table)
        else:
            write_raw_checkpoint(path, params)
            blob = path.read_bytes()
            path.write_bytes(blob[:-4] if case == "float_short" else blob + blob[-4:])
        with pytest.raises(ValueError, match="bad.ckpt") as err:
            load_checkpoint(path)
        if name is not None:
            assert repr(name) in str(err.value)


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = AdamW(params)
        g = np.array([0.5, -0.25])
        opt.step({"w": g}, lr=0.1)
        m_hat = g          # t=1 bias correction is exact
        v_hat = g * g
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params["w"], expected, atol=1e-12)

    def test_in_place_step_bit_identical_to_out_of_place(self):
        """The in-place step gives the same bits as the plain formulas."""
        rng = np.random.default_rng(3)
        shapes = {"w": (5, 7), "b": (7,)}
        params = {n: rng.normal(size=s) for n, s in shapes.items()}
        ref = {n: p.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        opt = AdamW({n: params[n] for n in sorted(shapes)})
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

    def test_pair_that_does_not_fit_raises(self):
        """A command drops the pairs that overflow where it reads them, so
        train and score_pairs take one as an error, the model's own."""
        init = Checkpoint(small_model(trained=True))
        pairs = toy_pairs(4) + [PreferencePair(id="big", prompt=b"p" * 30,
                                               chosen=b"c" * 30, rejected=b"r")]
        error = "^context of length 62 exceeds limit 48$"
        with pytest.raises(ValueError, match=error):
            score_pairs(init.model, None, [(p, i) for i, p in enumerate(pairs)])
        with pytest.raises(ValueError, match=error):
            train(self.make_cfg(batch_size=8, max_steps=1), pairs, init,
                  Checkpoint(init.model.copy()))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_no_pairs_raise(self, epochs):
        init = Checkpoint(small_model())
        with pytest.raises(ValueError, match="^train requires pairs$"):
            train(self.make_cfg(epochs=epochs), [], init, init)

    @pytest.mark.parametrize("epochs, max_steps, steps", [
        (3, None, 9),   # whole epochs
        (2, 5, 5),      # max_steps stops mid-way through the second epoch
        (0, 7, 7),      # epochs 0: max_steps alone sets the length
    ])
    def test_batch_order_is_one_permutation_per_epoch(self, monkeypatch, epochs,
                                                      max_steps, steps):
        """Step s trains on batch s mod 3 of the permutation that the data
        substream draws for epoch s // 3, whether or not the run stops
        mid-epoch."""
        seen = []

        def record(policy, reference, batch, cfg):
            seen.append([i for _, i in batch])
            return 0.0, 0.0, {n: np.zeros_like(p) for n, p in init.model.params.items()}

        monkeypatch.setattr(training_module, "_batch_gradients", record)
        cfg = self.make_cfg(batch_size=3, epochs=epochs, max_steps=max_steps)
        init = Checkpoint(small_model(), step=2, seed=9)
        out, metrics = train(cfg, toy_pairs(7), init, init)
        draw = training_module.rng(cfg.seed, 0)
        orders = [draw.permutation(7).tolist() for _ in range(math.ceil(steps / 3))]
        assert seen == [orders[s // 3][3 * (s % 3):3 * (s % 3) + 3] for s in range(steps)]
        assert [m["step"] for m in metrics] == list(range(steps))
        assert (out.step, out.seed) == (2 + steps, cfg.seed)

    def test_grad_norm_matches_independent_backward(self):
        init = Checkpoint(small_model(trained=True))
        cfg = self.make_cfg()
        pairs = toy_pairs(4)
        batch = [(p, i) for i, p in enumerate(pairs)]
        _, _, g1 = _batch_gradients(init.model, init.model, batch, cfg)
        _, _, g2 = _batch_gradients(init.model, init.model, batch, cfg)
        assert abs(grad_norm(g1) - grad_norm(g2)) <= 1e-10
        for n in init.model.params:
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
    taped = policy.taped(ad.Tape())
    scores = []
    for pair, example_id in batch:
        seq_w, seq_l = (make_sequence(pair.prompt, r) for r in (pair.chosen, pair.rejected))
        scores.append(PairScore(
            token_logprobs(taped, seq_w), token_logprobs(taped, seq_l),
            None if reference is None else token_logprobs(reference, seq_w),
            None if reference is None else token_logprobs(reference, seq_l),
            prompt_len=seq_w.prompt_len, example_id=example_id))
    loss = pairwise_batch_loss(scores, cfg.loss)
    grads = ad.gradients(loss, list(taped.params.values()))
    margins = [float(np.sum(s.chosen_logps.value) - np.sum(s.rejected_logps.value))
               for s in scores]
    return (float(loss.value), float(np.mean(margins)),
            {n: grads[leaf] for n, leaf in taped.params.items()})


def copying_gradients(output, inputs):
    """ad.gradients with an accumulator that copies each first cotangent and
    adds the later ones into the copy in place."""
    grads = {output.node: np.array(1.0)}
    for node in reversed(output.tape.nodes):
        g = grads.get(node)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            pg = vjp(g)
            if parent in grads:
                grads[parent] += pg
            else:
                grads[parent] = np.array(pg, dtype=np.float64)
    return {t: grads.get(t.node, np.zeros(t.value.shape)) for t in inputs}


def mixed_length_batch(n=8, seed=5):
    """(pair, example_id) items with responses from 8 toward 200 bytes, most
    of them short."""
    rng = np.random.default_rng(seed)
    batch = []
    for i, x in enumerate(np.linspace(0.0, 1.0, n)):
        size = round(8 * 25 ** (x * x))
        chosen = bytes(rng.integers(97, 105, size=size).tolist())
        rejected = bytes(rng.integers(97, 105, size=max(1, size + (-3, 2, 5)[i % 3])).tolist())
        batch.append((PreferencePair(id=str(i), prompt=b"q%d?" % i, chosen=chosen,
                                     rejected=rejected), 10 * i))
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
        cfg = TrainConfig(loss=LossConfig(method=method), batch_size=8)
        batch = mixed_length_batch()
        loss, margin, grads = _batch_gradients(policy, reference, batch, cfg)
        want_loss, want_margin, want_grads = per_sequence_batch_gradients(
            policy, reference, batch, cfg)
        deviations = [abs(loss - want_loss), abs(margin - want_margin)]
        deviations += [float(np.max(np.abs(grads[n] - want_grads[n]))) for n in grads]
        assert max(deviations) <= self.MAX_DEVIATION
        assert max(float(np.max(np.abs(g))) for g in grads.values()) > 1e-3

    def test_a_batch_of_eight_records_at_most_50_tape_nodes(self, monkeypatch):
        """One loss graph per batch: a batch-8 d2po step records the packed
        forward pass and a loss graph whose size does not grow with the
        batch."""
        nodes = []
        gradients = ad.gradients

        def counting(output, inputs=None):
            nodes.append(len(output.tape.nodes))
            return gradients(output, inputs)

        monkeypatch.setattr(ad, "gradients", counting)
        pairs = [pair for pair, _ in mixed_length_batch()]
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=8, max_steps=1)
        _, metrics = train(cfg, pairs, Checkpoint(wide_model(1)), Checkpoint(wide_model(2)))
        assert len(pairs) == 8 and len(metrics) == 1
        assert len(nodes) == 1 and nodes[0] <= 50, nodes

    def test_copy_free_backward_matches_a_copying_accumulator(self):
        policy, reference = wide_model(1), wide_model(2)
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=8)
        batch = mixed_length_batch()
        with ad.Tape() as tape:   # the tape _batch_gradients records
            taped = policy.taped(tape)
            names, leaves = list(taped.params), list(taped.params.values())
            score = score_pairs(taped, reference, batch)
            loss = batch_loss(score, cfg.loss)
            want = copying_gradients(loss, leaves)
            got = ad.gradients(loss, leaves)
        _, _, grads = _batch_gradients(policy, reference, batch, cfg)
        for name, leaf in zip(names, leaves):
            assert got[leaf].dtype == want[leaf].dtype == np.float64
            assert np.array_equal(got[leaf], want[leaf])
            assert np.array_equal(grads[name], want[leaf])
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(grads[a], grads[b])

    def test_step_keeps_only_what_the_backward_pass_needs(self):
        """The traced peak of one batch-8 d2po step at dim 64 is at most two
        thirds of 22,832,651 bytes, the peak when the tape kept every value
        and every cotangent until the step ended; it is 10,154,364 bytes
        with numpy 2.x on x86-64 Linux."""
        policy, reference = (PolicyModel(dim=64, context=256, blocks=2, seed=s) for s in (1, 2))
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=8)
        batch = mixed_length_batch()
        gc.collect()
        tracemalloc.start()
        try:
            _batch_gradients(policy, reference, batch, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22_832_651 * 2 // 3, peak

    def test_step_zero_loss_is_exactly_ln2(self):
        # policy = reference: both run the same arithmetic, so every
        # log-ratio, and with it every reward margin, is exactly 0
        policy = wide_model(1)
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=8)
        loss, _, _ = _batch_gradients(policy, policy.copy(), mixed_length_batch(), cfg)
        assert loss == math.log(2.0)

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
            _batch_gradients(policy, policy.copy(), mixed_length_batch(4), cfg)
            assert len(tapes) == 1 and tapes[0]() is None
            pretrain_nll(policy, corpus, steps=1, lr=1e-3, batch_size=2, seed=0)
            assert len(tapes) == 2 and tapes[1]() is None
        finally:
            gc.enable()


class Rescoring(KeptReference):
    """A KeptReference that keeps nothing: the reference scores every batch
    in a packed pass of its own, as it did before pairs were kept."""

    def sides(self, batch, seqs):
        self.kept.clear()
        return super().sides(batch, seqs)


class TestKeptReference:
    """train scores each pair under the frozen reference once, in the packed
    pass of the first batch that holds it, and reuses those log-probs."""

    def run(self, epochs, max_steps=None):
        """A d2po run over the 8 pairs of mixed_length_batch at batch 3:
        three batches an epoch."""
        pairs = [pair for pair, _ in mixed_length_batch()]
        cfg = TrainConfig(loss=LossConfig(method="d2po"), batch_size=3, epochs=epochs,
                          max_steps=max_steps, seed=2)
        return train(cfg, pairs, Checkpoint(wide_model(1)), Checkpoint(wide_model(2)))

    @pytest.mark.parametrize("epochs, max_steps, steps", [
        (3, None, 9),   # three whole epochs
        (3, 5, 5),      # stops mid-way through the second epoch
        (3, 2, 2),      # stops mid-way through the first
    ])
    def test_reference_scores_each_first_epoch_batch_once(self, monkeypatch, epochs,
                                                          max_steps, steps):
        scored = []
        packed_logprobs = training_module.packed_logprobs

        def spy(model, seqs):
            if not any(isinstance(p, ad.Tensor) for p in model.params.values()):
                scored.append(list(seqs))  # a pass of the untaped reference
            return packed_logprobs(model, seqs)

        monkeypatch.setattr(training_module, "packed_logprobs", spy)
        _, metrics = self.run(epochs, max_steps)
        assert len(metrics) == steps
        pairs = [pair for pair, _ in mixed_length_batch()]
        order = training_module.rng(2, 0).permutation(8).tolist()
        first_epoch = [[make_sequence(pairs[i].prompt, y) for i in order[b:b + 3]
                        for y in (pairs[i].chosen, pairs[i].rejected)] for b in range(0, 8, 3)]
        assert scored == first_epoch[:steps]

    def test_first_epoch_equals_a_one_epoch_run(self, monkeypatch):
        """At one learning rate for every step (the cosine schedule's rate
        depends on the run's length), the first epoch of a 3-epoch run
        writes the metrics lines of a 1-epoch run, byte for byte."""
        monkeypatch.setattr(training_module, "cosine_lr", lambda step, total, lr: lr)
        lines = [[json.dumps(m) for m in self.run(epochs)[1]] for epochs in (1, 3)]
        assert len(lines[0]) == 3 and lines[1][:3] == lines[0]

    def test_later_epochs_within_1e12_of_rescoring_each_step(self, monkeypatch):
        """Against a run whose reference rescores every batch, epoch 1 is
        byte-identical. Epochs 2 and 3 read log-probs from epoch 1's packs,
        which can differ at the ulp level from their own: here the largest
        deviation is 1.1e-16 in loss, at the last step, and 0 in margin,
        which reads the policy's log-probs only."""
        kept = self.run(3)[1]
        monkeypatch.setattr(training_module, "KeptReference", Rescoring)
        rescored = self.run(3)[1]
        assert [json.dumps(m) for m in kept[:3]] == [json.dumps(m) for m in rescored[:3]]
        deviation = max(abs(a[key] - b[key]) for a, b in zip(kept[3:], rescored[3:])
                        for key in ("loss", "margin"))
        assert len(kept) == 9 and deviation <= 1e-12


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_step_that_is_not_finite_raises_naming_it(self, value):
        """A weight that is not finite makes the first step's loss nan, and
        the step is named instead of training on to nan parameters."""
        m = small_model()
        m.params["w1_0"][0, 3] = value
        corpus = synthetic_corpus(4, seed=2, min_target_len=3, max_target_len=5)
        with pytest.raises(ValueError, match=r"^step 0 is not finite: loss nan$"):
            pretrain_nll(m, corpus, steps=3, lr=5e-3, batch_size=4, seed=0)


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
