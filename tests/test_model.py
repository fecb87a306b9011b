import hashlib
import json

import numpy as np
import pytest

from decaypo import autodiff as ad
from decaypo.config import rng
from decaypo.data import (PreferencePair, RewardOracle, build_onpolicy_pairs, oracle_score,
                          response_bytes, synthetic_corpus)
from decaypo.model import (BOS, EOS, VOCAB_SIZE, PolicyModel, TokenSequence,
                           _Decoder, _softmax,
                           make_sequence, packed_logprobs, param_shapes, response_logits,
                           sample, sample_many, sample_token_id, token_logprobs)
from decaypo.training import Checkpoint, evaluate_winrate, score_pairs
from conftest import central_difference, forward_logits


def small_model(seed=0, trained=False):
    m = PolicyModel(dim=16, context=48, blocks=2, seed=seed)
    if trained:
        r = np.random.default_rng(seed + 100)
        m.params["w_out"] = r.normal(0, 0.08, size=m.params["w_out"].shape)
    return m


def full_model():
    """CLI-default width and context, with a nonzero output head that scores
    token v by the embedding of v - 1, so greedy decoding does not settle on
    one token at once."""
    m = PolicyModel(dim=64, context=256, blocks=2, seed=11)
    m.params["w_out"] = 3.0 * m.params["embed"][np.arange(-1, VOCAB_SIZE - 1)].T
    return m


def dense_forward_logits(model, tokens):
    """The forward pass written with one-hot, eye and tril matrices."""
    p, n = model.params, len(tokens)
    onehot = np.zeros((n, VOCAB_SIZE))
    onehot[np.arange(n), tokens] = 1.0
    L = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
    x = onehot @ p["embed"] + np.eye(n, model.context) @ p["pos"]
    for b in range(model.blocks):
        m = L @ x
        u = ad._logsigmoid((x + m) @ p[f"w1_{b}"])
        x = x + (u @ p[f"w2_{b}"] + (x * m) @ p[f"w3_{b}"])
    return x @ p["w_out"]


def next_token_distribution(model, context):
    """The next-token distribution after ``context``: the softmax of the last
    forward_logits row."""
    return _softmax(forward_logits(model, context)[-1])


def decoder_distribution(model, context):
    """The same distribution from _Decoder.step fed ``context`` token by token."""
    decoder = _Decoder(model, 1)
    for tok in context:
        logits = decoder.step([tok])[0]
    return _softmax(logits)


def eos_prone_model():
    """A small model whose EOS logit follows one random direction of the
    hidden state, so that samples end at EOS after a few to a few dozen
    tokens and some reach the limit."""
    m = PolicyModel(dim=16, context=48, blocks=2, seed=4)
    r = np.random.default_rng(5)
    m.params["w_out"] = r.normal(0, 0.3, size=m.params["w_out"].shape)
    m.params["w_out"][:, EOS] = 1.3 * r.normal(0, 1, size=16)
    return m


def full_forward_sample(model, prompt, temperature, max_len, uniforms):
    """sample() one row at a time, rerunning forward_logits over the whole
    prefix per token and drawing token t by searchsorted on one 1-D cumsum
    at ``uniforms[t]``."""
    context, response = list(prompt), []
    for _ in range(min(max_len, model.context - len(prompt))):
        logits = forward_logits(model, context)[-1]
        if temperature == 0.0:
            tok = int(np.argmax(logits))
        else:
            z = logits / temperature
            e = np.exp(z - np.max(z))
            cdf = np.cumsum(e / np.sum(e))
            tok = int(np.searchsorted(cdf, uniforms[len(response)], side="right")
                      .clip(0, VOCAB_SIZE - 1))
        response.append(tok)
        context.append(tok)
        if tok == EOS:
            break
    return response


class TestTokenSequence:
    def test_special_ids(self):
        assert BOS == 256 and EOS == 257 and VOCAB_SIZE == 258

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            TokenSequence([], [1])
        with pytest.raises(ValueError):
            TokenSequence([BOS], [])

    def test_make_sequence(self):
        seq = make_sequence(b"hi", b"ok")
        assert seq.prompt_tokens == [BOS, 104, 105]
        assert seq.response_tokens == [111, 107, EOS]


class TestDistributions:
    distributions = (next_token_distribution, decoder_distribution)

    def test_fresh_model_is_uniform(self):
        m = small_model()
        for distribution in self.distributions:
            d = distribution(m, [BOS, 65, 66, 67])
            assert np.all(d == d[0])
            assert d[0] == pytest.approx(1.0 / VOCAB_SIZE, abs=1e-15)

    def test_distribution_valid(self):
        m = small_model(trained=True)
        for distribution in self.distributions:
            for ctx in ([BOS], [BOS, 1, 2, 3], [BOS] + list(range(40))):
                d = distribution(m, ctx)
                assert np.all(d >= 0)
                assert np.sum(d) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        m = small_model(trained=True)
        for distribution in self.distributions:
            d1 = distribution(m, [BOS, 5, 6])
            d2 = distribution(m, [BOS, 5, 6])
            assert np.array_equal(d1, d2)

    def test_context_too_long(self):
        m = small_model()
        with pytest.raises(ValueError):
            forward_logits(m, [BOS] * 49)

    def test_token_out_of_range(self):
        m = small_model()
        with pytest.raises(ValueError):
            forward_logits(m, [BOS, 258])


class TestEquivalence:
    tokens = [BOS] + list(np.random.default_rng(13).integers(0, VOCAB_SIZE, size=255))

    def test_forward_matches_dense_reference(self):
        m = full_model()
        logits = forward_logits(m, self.tokens)
        dense = dense_forward_logits(m, self.tokens)
        assert np.max(np.abs(dense)) > 1.0
        assert np.max(np.abs(logits - dense)) <= 1e-12

    def test_decoder_steps_match_forward_rows(self):
        m = full_model()
        logits = forward_logits(m, self.tokens)
        decoder = _Decoder(m, 1)
        steps = np.array([decoder.step([t])[0] for t in self.tokens])
        assert np.max(np.abs(steps - logits)) <= 1e-12

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_sample_matches_full_forward_sampler(self, temperature):
        m = full_model()
        for seed in range(3):
            for prompt in ([BOS], [BOS, 104, 105], [BOS] + list(range(200))):
                got = sample(m, prompt, temperature, 40, seed).response_tokens
                want = full_forward_sample(m, prompt, temperature, 40, rng(seed).random(40))
                assert got == want


class TestTokenLogprobs:
    def test_uniform_model_anchor(self):
        m = small_model()
        seq = make_sequence(b"abc", b"defg")
        lp = token_logprobs(m, seq)
        assert lp == pytest.approx(-np.log(VOCAB_SIZE) * np.ones(5), abs=1e-12)
        assert -np.log(VOCAB_SIZE) == pytest.approx(-5.5530, abs=1e-4)

    def test_chain_rule_identity(self):
        m = small_model(trained=True)
        seq = make_sequence(b"xy", b"zw")
        lp = token_logprobs(m, seq)
        ctx = list(seq.prompt_tokens)
        stepwise = []
        for tok in seq.response_tokens:
            stepwise.append(np.log(next_token_distribution(m, ctx)[tok]))
            ctx.append(tok)
        assert np.sum(lp) == pytest.approx(np.sum(stepwise), abs=1e-10)

    def test_entries_nonpositive_finite(self):
        m = small_model(trained=True)
        lp = token_logprobs(m, make_sequence(b"a", b"bcd"))
        assert np.all(lp <= 0) and np.all(np.isfinite(lp))

    def test_exhaustive_enumeration(self):
        # all length-2 responses (no EOS) from a fixed prompt: their
        # probabilities must sum to 1
        m = small_model(trained=True)
        prompt = [BOS, 65]
        first = next_token_distribution(m, prompt)
        total = 0.0
        for a in range(0, VOCAB_SIZE, 16):
            second = next_token_distribution(m, prompt + [a])
            total += first[a] * np.sum(second)
            seq = TokenSequence(prompt, [a, (a + 3) % VOCAB_SIZE])
            lp = token_logprobs(m, seq)
            expected = np.log(first[a]) + np.log(second[(a + 3) % VOCAB_SIZE])
            assert np.sum(lp) == pytest.approx(expected, abs=1e-10)
        full_total = sum(first[a] * 1.0 for a in range(VOCAB_SIZE))
        assert full_total == pytest.approx(1.0, abs=1e-9)

    def test_parameter_gradients_match_finite_differences(self):
        m = small_model(trained=True)
        seq = make_sequence(b"ab", b"cd")
        taped = m.taped(ad.Tape())
        loss = ad.weighted_sum(token_logprobs(taped, seq), np.full(3, -1.0))
        grads = ad.gradients(loss, list(taped.params.values()))
        for name in ("embed", "pos", "w1_0", "w2_0", "w3_1", "w_out"):
            sub = np.s_[:3, :3]
            orig = m.params[name].copy()

            def f(v):
                m.params[name][sub] = v
                out = -float(np.sum(token_logprobs(m, seq)))
                m.params[name][:] = orig
                return out

            fd = central_difference(f, orig[sub])
            assert np.allclose(grads[taped.params[name]][sub], fd, rtol=1e-4, atol=1e-8), name


def length_mix(n=16, seed=3, lo=8, hi=200):
    """Sequences with short prompts and responses from lo toward hi bytes,
    most of them short."""
    rng = np.random.default_rng(seed)
    return [make_sequence(bytes(rng.integers(97, 105, size=int(rng.integers(1, 6))).tolist()),
                          bytes(rng.integers(97, 105, size=round(lo * (hi / lo) ** (x * x))).tolist()))
            for x in np.linspace(0.0, 1.0, n)]


def dense_logprobs(model, seq):
    """Response log-probs of one sequence from dense_forward_logits."""
    logits = dense_forward_logits(model, seq.prompt_tokens + seq.response_tokens)
    rows = logits[seq.prompt_len - 1:-1]
    m = np.max(rows, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(rows - m), axis=1))
    return rows[np.arange(seq.response_len), seq.response_tokens] - lse


class TestPackedScoring:
    MAX_DEVIATION = 1e-12

    def test_packed_matches_one_sequence_at_a_time(self):
        m = full_model()
        seqs = length_mix()
        assert [min(s.response_len for s in seqs), max(s.response_len for s in seqs)] == [9, 201]
        logps, offsets = packed_logprobs(m, seqs)
        assert offsets.tolist() == np.cumsum([0] + [s.response_len for s in seqs]).tolist()
        worst = 0.0
        for i, seq in enumerate(seqs):
            mine = logps[offsets[i]:offsets[i + 1]]
            for oracle in (token_logprobs(m, seq), dense_logprobs(m, seq)):
                worst = max(worst, float(np.max(np.abs(mine - oracle))))
        assert worst <= self.MAX_DEVIATION

    def test_taped_and_plain_passes_agree_bit_for_bit(self):
        """Each entry point gives a taped model a tensor with the bits of the
        array it gives the plain model."""
        m = full_model()
        seqs = length_mix(6)
        taped = m.taped(ad.Tape())
        batch = [(PreferencePair(id="0", prompt=b"ab?", chosen=b"cd", rejected=b"efg"), 0)]
        for score in (lambda model: packed_logprobs(model, seqs)[0],
                      lambda model: response_logits(model, seqs)[0],
                      lambda model: token_logprobs(model, seqs[0]),
                      lambda model: score_pairs(model, m, batch).chosen_logps,
                      lambda model: score_pairs(model, m, batch).rejected_logps,
                      lambda model: forward_logits(model, seqs[0].prompt_tokens)):
            tensor, array = score(taped), score(m)
            assert isinstance(tensor, ad.Tensor) and type(array) is np.ndarray
            assert np.array_equal(tensor.value, array)
        assert np.array_equal(packed_logprobs(taped, seqs)[1], packed_logprobs(m, seqs)[1])
        logits, offsets = response_logits(m, seqs)
        assert logits.shape == (offsets[-1], VOCAB_SIZE)

    def test_taped_leaves_share_the_arrays_in_param_shapes_order(self):
        m = full_model()
        before = dict(m.params)
        tape = ad.Tape()
        taped = m.taped(tape)
        assert list(taped.params) == list(param_shapes(m.dim, m.context, m.blocks))
        assert tape.leaves == list(taped.params.values())
        assert tape.nodes == [leaf.node for leaf in tape.leaves]
        assert all(leaf.value is m.params[n] for n, leaf in taped.params.items())
        assert m.params == before and all(type(a) is np.ndarray for a in m.params.values())
        assert (taped.dim, taped.context, taped.blocks, taped.seed) == (64, 256, 2, 11)

    def test_inference_records_no_tape(self):
        m = small_model(trained=True)
        seqs = [make_sequence(b"ab", b"cd"), make_sequence(b"x", b"yz")]
        logps, _ = packed_logprobs(m, seqs)
        logits, _ = response_logits(m, seqs)
        assert type(logps) is np.ndarray and type(logits) is np.ndarray
        assert type(token_logprobs(m, seqs[0])) is np.ndarray

    def test_packed_gradients_match_finite_differences(self):
        m = small_model(trained=True)
        seqs = [make_sequence(b"ab", b"c"), make_sequence(b"", b"de"), make_sequence(b"f", b"g")]
        w = np.random.default_rng(8).normal(0, 1, size=sum(s.response_len for s in seqs))
        taped = m.taped(ad.Tape())
        grads = ad.gradients(ad.weighted_sum(packed_logprobs(taped, seqs)[0], w))
        for name in ("embed", "pos", "w1_0", "w3_1", "w_out"):
            sub = np.s_[:3, :3]
            orig = m.params[name].copy()

            def f(v):
                m.params[name][sub] = v
                out = float(np.sum(w * packed_logprobs(m, seqs)[0]))
                m.params[name][:] = orig
                return out

            fd = central_difference(f, orig[sub])
            assert np.allclose(grads[taped.params[name]][sub], fd, rtol=1e-4, atol=1e-8), name

    def test_rejects_no_sequences_and_overflow(self):
        m = small_model()
        with pytest.raises(ValueError, match="no sequences"):
            packed_logprobs(m, [])
        with pytest.raises(ValueError, match="exceeds limit"):
            packed_logprobs(m, [make_sequence(b"a", b"b"), make_sequence(b"a" * 40, b"b" * 8)])


class TestSampling:
    def test_temperature_zero_is_greedy(self):
        m = small_model(trained=True)
        prompt = [BOS, 70]
        seq = sample(m, prompt, 0.0, 5, seed=1)
        ctx = list(prompt)
        for tok in seq.response_tokens:
            logits = forward_logits(m, ctx)[-1]
            assert tok == int(np.argmax(logits))
            ctx.append(tok)

    def test_argmax_ties_lowest_id(self):
        m = small_model()  # exactly uniform: every id ties, 0 must win
        seq = sample(m, [BOS], 0.0, 3, seed=9)
        assert seq.response_tokens == [0, 0, 0]

    @pytest.mark.parametrize("temperature", [1e-200, 1e-310, 1e-320])
    def test_tiny_temperature_samples_the_greedy_tokens(self, temperature):
        """(logits - max) / T keeps the maximum at 0, so a temperature so small
        that logits / T overflows still draws the argmax, with no warning."""
        m = small_model(trained=True)  # a random head: no tied maxima
        prompt = [BOS] + list(b"abcd?")
        greedy = sample(m, prompt, 0.0, 12, seed=1).response_tokens
        assert sample(m, prompt, temperature, 12, seed=1).response_tokens == greedy
        assert len(set(greedy)) > 1

    def test_same_seed_identical(self):
        m = small_model(trained=True)
        s1 = sample(m, [BOS, 66], 0.8, 10, seed=77)
        s2 = sample(m, [BOS, 66], 0.8, 10, seed=77)
        assert s1.response_tokens == s2.response_tokens

    def test_k_draws_vary(self):
        m = small_model(trained=True)
        outs = {tuple(sample(m, [BOS, 66], 0.8, 8, seed=k).response_tokens)
                for k in range(5)}
        assert len(outs) > 1

    def test_terminates_at_eos_or_limit(self):
        m = small_model(trained=True)
        seq = sample(m, [BOS], 1.0, 6, seed=3)
        assert len(seq.response_tokens) <= 6
        if len(seq.response_tokens) < 6:
            assert seq.response_tokens[-1] == EOS

    def test_prompt_fills_context(self):
        m = small_model()
        with pytest.raises(ValueError):
            sample(m, [BOS] * 48, 1.0, 4, seed=0)

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_finite_weights_whose_logits_overflow_raise(self, temperature):
        """Weights at 3e38, finite in a checkpoint's float32, give logits of
        inf - inf: sampling says so in its own words, with no numpy warning."""
        m = small_model(trained=True)
        for name in ("embed", "w3_0", "w3_1", "w_out"):  # each weight at 3e38, its sign kept
            m.params[name][:] = 3e38 * np.sign(m.params[name])
        with pytest.raises(ValueError,
                           match="^sampling is not finite: the model's logits overflow$"):
            sample_many(m, [[BOS, 97], [BOS, 98, 99]], temperature, 8, seed=0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -0.5])
    def test_rejects_non_finite_or_negative_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            sample(small_model(), [BOS, 66], temperature, 4, seed=0)

    @pytest.mark.parametrize("prompt", [[], [BOS, VOCAB_SIZE], [BOS, -1], [BOS] * 49],
                             ids=["empty", "id-258", "id-negative", "over-context"])
    def test_rejects_bad_prompt(self, prompt):
        with pytest.raises(ValueError):
            sample(small_model(), prompt, 0.0, 4, seed=0)

    def test_inverse_cdf_frequencies(self):
        # 100k draws through the same mechanism sample() uses, against the
        # exact next-token distribution, within 3 standard errors per token
        m = PolicyModel(dim=8, context=16, blocks=1, seed=5)
        r = np.random.default_rng(50)
        m.params["w_out"] = r.normal(0, 0.3, size=m.params["w_out"].shape)
        probs = next_token_distribution(m, [BOS, 10])
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        n = 100_000
        draws = np.array([sample_token_id(probs, rng.random()) for _ in range(n)])
        counts = np.bincount(draws, minlength=probs.shape[0])
        freq = counts / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 3 * se + 1e-12)

    def test_sample_first_token_matches_mechanism(self):
        """Every token, the first included, is the inverse-CDF draw at the
        next uniform of one sequential rng(seed)."""
        m = small_model(trained=True)
        prompt = [BOS, 33]
        seq = sample(m, prompt, 1.0, 20, seed=21)
        draw = rng(21)
        context = list(prompt)
        for tok in seq.response_tokens:
            probs = next_token_distribution(m, context)  # temperature 1
            assert tok == sample_token_id(probs, draw.random())
            context.append(tok)
        assert seq.response_len == 20 or seq.response_tokens[-1] == EOS
        assert seq.response_len > 5


def distinct_prefill_sample_many(model, prompts, temperature, max_len, seed, eos_room=False):
    """sample_many as it was when each distinct prompt of a prompt-length
    group was prefilled once and its decoder row then copied to every row
    that repeats it; valid prompts only."""
    end = model.context - eos_room
    groups = {}
    for i, prompt in enumerate(prompts):
        groups.setdefault(len(prompt), []).append(i)
    u = rng(seed).random((len(prompts), model.context - 1))
    out = [None] * len(prompts)
    for n, members in groups.items():
        distinct = {}
        which = [distinct.setdefault(tuple(prompts[i]), len(distinct)) for i in members]
        decoder = _Decoder(model, len(distinct))
        for column in np.array(list(distinct)).T:
            logits = decoder.step(column)
        decoder.take(which)
        logits = logits[which]
        limit = min(max_len, end - n)
        responses = [[] for _ in members]
        live = list(range(len(members)))
        drawn = []
        for t in range(limit):
            if t:
                logits = decoder.step(tok)
            if temperature == 0.0:
                tok = logits.argmax(axis=-1)
            else:
                tok = sample_token_id(_softmax(logits / temperature), u[members][live, t])
            drawn.append(tok.tolist())
            if EOS in drawn[-1] or t == limit - 1:
                for j, column in zip(live, zip(*drawn)):
                    responses[j] += column
                kept = [k for k, x in enumerate(drawn[-1]) if x != EOS]
                drawn.clear()
                live = [live[k] for k in kept]
                if not live:
                    break
                tok = tok[kept]
                decoder.take(kept)
        for i, response in zip(members, responses):
            out[i] = response
    return out


class TestLockstepSampling:
    @pytest.mark.parametrize("temperature", [0.0, 0.8, 1.5])
    @pytest.mark.parametrize("eos_room", [False, True])
    def test_per_row_prefill_matches_distinct_prompt_prefill(self, temperature, eos_room):
        """Prefilling every row on its own draws the tokens that prefilling
        each distinct prompt once and copying its row drew, over prompts of
        mixed lengths, each repeated up to four times."""
        m = eos_prone_model()
        r = np.random.default_rng(int(10 * temperature) + eos_room)
        distinct = [[BOS] + r.integers(97, 123, size=r.integers(0, 6)).tolist()
                    for _ in range(12)] + [[BOS] * 44]
        prompts = [p for p in distinct for _ in range(r.integers(1, 5))]
        prompts = [prompts[i] for i in r.permutation(len(prompts))]
        got = sample_many(m, prompts, temperature, 20, 9, eos_room)
        want = distinct_prefill_sample_many(m, prompts, temperature, 20, 9, eos_room)
        assert [seq.response_tokens for seq in got] == want
        assert len(prompts) > len(distinct)
        assert any(w[-1] == EOS for w in want), "some row ends at EOS"
        caps = [min(20, m.context - len(p) - eos_room) for p in prompts]
        assert any(len(w) == cap and w[-1] != EOS for w, cap in zip(want, caps)), \
            "some row ends at its cap"

    def test_draw_is_searchsorted_right(self):
        r = np.random.default_rng(8)
        probs = r.dirichlet(np.full(VOCAB_SIZE, 0.3), size=64)
        probs[:8, 100:] = 0.0   # rows whose cumsum ends early and flat
        cdf = np.cumsum(probs, axis=1)
        # uniforms at, just below and just above a cumsum entry, and at 0
        u = np.concatenate([r.random(40), cdf[40:48, 7], np.nextafter(cdf[48:56, 9], 0),
                            np.nextafter(cdf[56:63, 11], 2), [0.0]])
        want = [min(int(np.searchsorted(c, x, side="right")), VOCAB_SIZE - 1)
                for c, x in zip(cdf, u)]
        assert sample_token_id(probs, u).tolist() == want
        assert [int(sample_token_id(p, x)) for p, x in zip(probs, u)] == want

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_rows_match_one_row_full_forward_sampler(self, temperature):
        """Row j of a call is the one-row sampler at row j of the call's
        uniform block."""
        m = eos_prone_model()
        prompts = [[BOS, 97], [BOS, 98], [BOS, 99], [BOS, 102], [BOS, 105],
                   [BOS] * 47,                     # exactly one free position
                   [BOS] + list(b"xyz?"), [BOS, 97]]
        prompts = [prompts[i % len(prompts)] for i in range(32)]
        got = sample_many(m, prompts, temperature, 15, 40)
        u = rng(40).random((len(prompts), m.context - 1))
        want = [full_forward_sample(m, prompt, temperature, 15, u[j])
                for j, prompt in enumerate(prompts)]
        assert [seq.response_tokens for seq in got] == want
        assert [seq.prompt_tokens for seq in got] == prompts
        ends = {len(w) for w in want if w[-1] == EOS}
        assert len(ends) >= 3, "rows should stop by EOS at different steps"
        assert any(len(w) == 15 and w[-1] != EOS for w in want), "some row reaches its limit"
        assert 15 in ends, "some row draws EOS on its last allowed step"
        assert [len(w) for w in want][5::8] == [1] * 4

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_eos_room_stops_a_row_one_token_earlier(self, temperature):
        """With eos_room a row stops one token short of the context, so that
        it fits with the EOS that scoring appends; up to there it draws the
        tokens it draws without."""
        m = eos_prone_model()
        prompts = [[BOS, 97], [BOS, 98], [BOS] * 36, [BOS] * 46]
        prompts = [prompts[i % len(prompts)] for i in range(32)]
        free = sample_many(m, prompts, temperature, m.context, 80)
        roomy = sample_many(m, prompts, temperature, m.context, 80, eos_room=True)
        caps = [m.context - len(prompt) - 1 for prompt in prompts]
        assert [r.response_tokens for r in roomy] == [
            f.response_tokens[:cap] for f, cap in zip(free, caps)]
        assert all(r.prompt_len + r.response_len + (r.response_tokens[-1] != EOS) <= m.context
                   for r in roomy)
        assert any(f.response_len > cap for f, cap in zip(free, caps)), "the cap cuts some row"
        with pytest.raises(ValueError, match="^prompt leaves no room for a response and its EOS$"):
            sample_many(m, [[BOS] * 47], temperature, 8, 0, eos_room=True)

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_max_len_and_eos_room_only_cut_a_row_at_its_cap(self, temperature):
        m = eos_prone_model()
        prompts = [[BOS, 97], [BOS, 98], [BOS] * 30, [BOS] * 44, [BOS, 99, 100]] * 4
        free = [seq.response_tokens for seq in sample_many(m, prompts, temperature, 48, 6)]
        assert any(len(f) > 10 for f in free)
        for max_len in (1, 3, 10, 17, 48):
            for eos_room in (False, True):
                got = sample_many(m, prompts, temperature, max_len, 6, eos_room)
                caps = [min(max_len, m.context - len(p) - eos_room) for p in prompts]
                assert [seq.response_tokens for seq in got] == [
                    f[:cap] for f, cap in zip(free, caps)], (max_len, eos_room)

    def test_a_row_does_not_depend_on_the_other_rows(self):
        """At temperature > 0 row i's tokens depend only on the seed, i and
        the context: appending rows, or changing the other rows' prompts,
        leaves them as they are."""
        m = eos_prone_model()
        prompts = [[BOS, 97], [BOS, 98], [BOS] * 30, [BOS, 97], [BOS, 99, 100]] * 3
        base = [seq.response_tokens for seq in sample_many(m, prompts, 0.8, 20, 13)]
        assert len(set(map(tuple, base))) > 10
        more = sample_many(m, prompts + [[BOS, 101]] * 5 + [[BOS] * 40], 0.8, 20, 13)
        assert [seq.response_tokens for seq in more[:len(prompts)]] == base
        others = [[BOS, 120 + i] if i % 3 else p for i, p in enumerate(prompts)]
        mixed = sample_many(m, others, 0.8, 20, 13)
        assert [seq.response_tokens for seq in mixed][::3] == base[::3]
        assert [seq.response_tokens for seq in mixed] != base

    def test_batched_decoder_logits_match_one_row_steps(self):
        """A (rows x d) matrix product rounds differently from a vector one,
        so a batched step may move the logits by a few ulps; at the CLI's
        default width the deviation measured 1.6e-14 here (numpy 2.4,
        OpenBLAS), reported by the assertion when it fails."""
        m = full_model()
        r = np.random.default_rng(21)
        tokens = r.integers(0, VOCAB_SIZE, size=(12, 200))
        batched = _Decoder(m, len(tokens))
        singles = [_Decoder(m, 1) for _ in tokens]
        deviation = 0.0
        for column in tokens.T:
            logits = batched.step(column)
            one_row = np.array([d.step([t])[0] for d, t in zip(singles, column)])
            deviation = max(deviation, float(np.max(np.abs(logits - one_row))))
        assert np.max(np.abs(one_row)) > 1.0
        assert deviation <= 1e-12, f"max deviation {deviation:.3g}"

    def test_decoder_take_keeps_rows_in_order(self):
        m = full_model()
        tokens = np.random.default_rng(3).integers(0, VOCAB_SIZE, size=(4, 9))
        decoder = _Decoder(m, 4)
        for column in tokens[:, :5].T:
            decoder.step(column)
        decoder.take([2, 0, 2])
        kept = _Decoder(m, 3)
        for column in tokens[[2, 0, 2], :5].T:
            kept.step(column)
        for column in tokens[[2, 0, 2], 5:].T:
            assert np.array_equal(decoder.step(column), kept.step(column))

    @pytest.mark.parametrize("n_prompts", [0, 5])
    def test_pairs_and_winrate_equal_per_row_loops(self, n_prompts):
        m = eos_prone_model()
        other = eos_prone_model()
        other.params["w_out"] = other.params["w_out"][:, ::-1].copy()
        corpus = synthetic_corpus(n_prompts, seed=2, min_target_len=1, max_target_len=4)
        oracle = RewardOracle(kind="target_match", targets=corpus)
        prompts, K, seed = list(corpus), 4, 17

        def sampled(model, prompt, uniforms):
            tokens = full_forward_sample(model, [BOS] + list(prompt), 0.8, 12, uniforms)
            return response_bytes(TokenSequence([BOS], tokens))

        u = rng(seed).random((len(prompts) * K, m.context - 1))
        want, skipped = [], 0
        for i, prompt in enumerate(prompts):
            got = [sampled(m, prompt, u[i * K + k]) for k in range(K)]
            scores = [oracle_score(oracle, prompt, g) for g in got]
            best, worst = int(np.argmax(scores)), int(np.argmin(scores))
            if scores[best] == scores[worst]:
                skipped += 1
            else:
                want.append((prompt, got[best], got[worst]))
        pairs, n_skipped = build_onpolicy_pairs(m, oracle, prompts, K=K, temperature=0.8,
                                                seed=seed, max_len=12)
        assert [(p.prompt, p.chosen, p.rejected) for p in pairs] == want
        assert n_skipped == skipped

        wins = [0, 0, 0]
        for i, prompt in enumerate(prompts):
            sc = oracle_score(oracle, prompt, sampled(m, prompt, u[i]))
            sb = oracle_score(oracle, prompt, sampled(other, prompt, u[i]))
            wins[0 if sc > sb else 1 if sc == sb else 2] += 1
        assert evaluate_winrate(Checkpoint(m), Checkpoint(other), oracle, prompts, 0.8, seed,
                                max_len=12) == tuple(wins)


def matmul_steps(model, columns):
    """The logits of each decoder step over the token ``columns``, written
    with ``@`` as the decoder was before it took np.dot."""
    p = model.params
    sums = [np.zeros((len(columns[0]), model.dim)) for _ in range(model.blocks)]
    for n, tokens in enumerate(columns, 1):
        x = p["embed"][tokens] + p["pos"][n - 1]
        for b, s in enumerate(sums):
            s += x
            m = s / n
            u = ad._logsigmoid((x + m) @ p[f"w1_{b}"])
            x = x + (u @ p[f"w2_{b}"] + (x * m) @ p[f"w3_{b}"])
        yield x @ p["w_out"]


class TestDecoderArithmetic:
    """The decoder's np.dot products and headless prefill change no bit."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 8, 128])
    @pytest.mark.parametrize("dim", [1, 5, 16, 64])
    def test_step_is_bitwise_the_matmul_step(self, rows, dim):
        m = PolicyModel(dim=dim, context=6, blocks=2, seed=dim)
        r = np.random.default_rng(rows)
        m.params["w_out"] = r.normal(0, 1.0, size=m.params["w_out"].shape)
        columns = r.integers(0, VOCAB_SIZE, size=(6, rows))
        decoder = _Decoder(m, rows)
        for column, want in zip(columns, matmul_steps(m, columns)):
            assert decoder.step(column).tobytes() == want.tobytes()

    def test_prefill_by_feed_equals_a_step_per_token(self):
        m = full_model()
        columns = np.random.default_rng(8).integers(0, VOCAB_SIZE, size=(40, 5))
        fed, stepped = _Decoder(m, 5), _Decoder(m, 5)
        for column in columns[:-1]:
            fed.feed(column)
            stepped.step(column)
        assert fed.step(columns[-1]).tobytes() == stepped.step(columns[-1]).tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fed.sums, stepped.sums))

    @pytest.mark.parametrize("temperature", [1.0, 0.8])
    def test_softmax_leaves_its_input_unchanged(self, temperature):
        logits = np.random.default_rng(4).normal(0, 3.0, size=(3, VOCAB_SIZE))
        before = logits.copy()
        probs = _softmax(logits, temperature)
        assert logits.tobytes() == before.tobytes()
        e = np.exp((before - before.max(axis=-1, keepdims=True)) / temperature)
        assert probs.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    @pytest.mark.parametrize("temperature, digest", [
        (0.0, "433f3f1a545ed46e630cda7738f005141cfd1bb16ed523c0a26815dd2037f192"),
        (0.8, "7da2ad890ba3efd2a8ff7d6f94f123e1b7e5769e632462d86b29ddd818362e91")])
    def test_sample_many_draws_the_matmul_decoders_tokens(self, temperature, digest):
        """sha256 of the JSON token lists that the decoder drew when its
        products were ``@`` and it prefilled through the output head."""
        r = np.random.default_rng(21)
        prompts = [[BOS] + r.integers(97, 123, size=r.integers(0, 8)).tolist()
                   for _ in range(24)]
        got = [seq.response_tokens for seq in sample_many(eos_prone_model(), prompts,
                                                          temperature, 30, 3)]
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == digest


class TestCopy:
    def test_copy_is_deep(self):
        m = small_model()
        c = m.copy()
        c.params["embed"][0, 0] += 1.0
        assert m.params["embed"][0, 0] != c.params["embed"][0, 0]
