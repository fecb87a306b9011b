"""Preference training on the toy model: AdamW, cosine schedule with
warmup, checkpoint container IO, NLL pretraining for building an SFT-style
init, and oracle-based win-rate evaluation."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .config import derive_seed, rng
from .data import RewardOracle, sample_and_score
from .losses import REFERENCE_FREE, LossConfig, PairScore, batch_loss
from .model import VOCAB_SIZE, PolicyModel, make_sequence, packed_logprobs, param_shapes


@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    base_lr: float = 5e-7          # scaled up by lr_multiplier for desk-scale runs
    lr_multiplier: float = 1e3     # desk-scale models want ~5e-4
    batch_size: int = 32
    warmup_fraction: float = 0.10
    epochs: int = 1
    max_steps: int | None = None
    seed: int = 0
    max_response_len: int = 256
    weight_decay: float = 0.0
    grad_clip: float | None = None

    def __post_init__(self):
        if not self.base_lr * self.lr_multiplier > 0:
            raise ValueError("learning rate must be > 0")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup fraction must be in [0, 1)")

    @property
    def lr(self) -> float:
        return self.base_lr * self.lr_multiplier


def cosine_lr(step: int, total_steps: int, warmup_fraction: float, base_lr: float) -> float:
    """Linear warmup to base_lr, then a half cosine down to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError("step must be in [0, total_steps]")
    warmup = math.ceil(warmup_fraction * total_steps)
    if step < warmup:
        return base_lr * step / warmup
    if total_steps == warmup:
        return base_lr
    progress = (step - warmup) / (total_steps - warmup)
    return base_lr * (1.0 + math.cos(math.pi * progress)) / 2.0


# ---------------------------------------------------------------------------
# checkpoint container: [u32 manifest length][manifest JSON][f32 LE arrays]

@dataclass
class Checkpoint:
    model: PolicyModel
    step: int = 0
    seed: int = 0


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    model = ckpt.model
    names = model.param_names()
    manifest = {
        "format": "decaypo-checkpoint-v1",
        "architecture": {"kind": model.architecture, "dim": model.dim,
                         "context": model.context, "blocks": model.blocks},
        "vocab_size": VOCAB_SIZE,
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "step": ckpt.step,
        "seed": ckpt.seed,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in names:
            f.write(model.params[n].astype("<f4").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed file raises a ValueError naming it."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise ValueError(f"{path}: truncated checkpoint header")
    (length,) = struct.unpack_from("<I", blob)
    end = 4 + length
    if end > len(blob):
        raise ValueError(f"{path}: truncated checkpoint manifest")
    try:
        manifest = json.loads(blob[4:end].decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or JSON
        raise ValueError(f"{path}: unreadable checkpoint manifest: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "decaypo-checkpoint-v1":
        raise ValueError(f"not a checkpoint file: {path}")
    try:
        if type(manifest["step"]) is not int or manifest["step"] < 0:  # a bool is not an int
            raise ValueError(f"manifest key 'step' must be a non-negative integer, "
                             f"got {manifest['step']!r}")
        if type(manifest["seed"]) is not int:  # the root seed, which may be negative
            raise ValueError(f"manifest key 'seed' must be an integer, got {manifest['seed']!r}")
        arch = manifest["architecture"]
        params = {}
        for entry in manifest["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape))
            if min(shape, default=0) < 0:
                raise ValueError(f"negative dimension in parameter shape {shape}")
            if end + 4 * count > len(blob):
                raise ValueError("truncated checkpoint payload")
            data = np.frombuffer(blob, dtype="<f4", count=count, offset=end)
            params[entry["name"]] = data.astype(np.float64).reshape(shape)
            end += 4 * count
        if end != len(blob):
            raise ValueError(f"{len(blob) - end} trailing bytes after the checkpoint payload")
        expected = param_shapes(arch["dim"], arch["context"], arch["blocks"])
        for name, shape in expected.items():
            if name not in params:
                raise ValueError(f"missing parameter {name!r}")
            if params[name].shape != shape:
                raise ValueError(f"parameter {name!r} has shape {params[name].shape}, "
                                 f"the architecture needs {shape}")
        if params.keys() != expected.keys():
            raise ValueError(f"unknown parameters {sorted(params.keys() - expected.keys())}")
        model = PolicyModel(dim=arch["dim"], context=arch["context"],
                            blocks=arch["blocks"], seed=manifest["seed"], params=params)
        return Checkpoint(model=model, step=manifest["step"], seed=manifest["seed"])
    except KeyError as e:
        raise ValueError(f"{path}: checkpoint manifest lacks key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # AdamW's moment decays and denominator floor


class AdamW:
    """Adam with decoupled weight decay; update order is the fixed
    parameter-name order, so runs are bit-reproducible."""

    def __init__(self, params: dict, names, weight_decay: float = 0.0):
        self.params = params
        self.names = list(names)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(params[n]) for n in self.names}
        self.v = {n: np.zeros_like(params[n]) for n in self.names}

    def step(self, grads: dict, lr: float):
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # update = (m/c1) / (sqrt(v/c2) + eps) + wd*param, in place: the same
        # operations in the same order, so the same bits, with two fresh
        # arrays per parameter instead of one per operation
        for n in self.names:
            g, m, v = grads[n], self.m[n], self.v[n]
            m *= BETA1
            scratch = (1.0 - BETA1) * g
            m += scratch
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=scratch)
            scratch *= g
            v += scratch
            np.divide(v, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS
            update = m / c1
            update /= scratch
            if self.weight_decay:
                np.multiply(self.weight_decay, self.params[n], out=scratch)
                update += scratch
            update *= lr
            self.params[n] -= update


def score_pairs(policy: PolicyModel, reference: PolicyModel | None, batch,
                max_response_len: int, param_tensors: dict | None = None):
    """(PairScores, skipped count) of the (pair, example_id) items of ``batch``:
    responses cut to ``max_response_len`` bytes, pairs that overflow the
    context skipped, and one packed pass per model. The policy log-probs are
    tensors when ``param_tensors`` is given, else arrays; the reference ones
    (None without ``reference``) are arrays from the same arithmetic."""
    kept = [([make_sequence(pair.prompt, response[:max_response_len])
              for response in (pair.chosen, pair.rejected)], example_id)
            for pair, example_id in batch]
    kept = [(seqs, i) for seqs, i in kept
            if all(s.prompt_len + s.response_len <= policy.context for s in seqs)]
    if not kept:
        return [], len(batch)
    seqs = [seq for pair_seqs, _ in kept for seq in pair_seqs]
    logps, offsets = packed_logprobs(policy, seqs, param_tensors)
    ref_logps = None if reference is None else packed_logprobs(reference, seqs)[0]

    def cut(flat):
        return [None if flat is None else ad.gather_rows(flat, np.arange(lo, hi))
                for lo, hi in zip(offsets[:-1], offsets[1:])]

    pol, ref = cut(logps), cut(ref_logps)
    return [PairScore(pol[2 * k], pol[2 * k + 1], ref[2 * k], ref[2 * k + 1],
                      seqs[2 * k].prompt_len, example_id)
            for k, (_, example_id) in enumerate(kept)], len(batch) - len(kept)


def _gradients(loss, leaves: dict) -> dict:
    grads = ad.gradients(loss, list(leaves.values()))
    return {n: grads[leaf] for n, leaf in leaves.items()}


def _batch_gradients(policy, reference, batch, cfg: TrainConfig):
    """One forward/backward over a batch: ((loss, margin, grads), skipped),
    or (None, skipped) when every example overflowed the context."""
    with Tape() as tape:  # emptied on exit, so the step's arrays are freed when it ends
        leaves = {n: ad.leaf(tape, policy.params[n]) for n in policy.param_names()}
        scores, skipped = score_pairs(policy, reference, batch, cfg.max_response_len, leaves)
        if not scores:
            return None, skipped
        loss = batch_loss(scores, cfg.loss)
        margins = [float(np.sum(s.chosen_logps.value) - np.sum(s.rejected_logps.value))
                   for s in scores]
        return (float(loss.value), float(np.mean(margins)), _gradients(loss, leaves)), skipped


def grad_norm(grads: dict, names) -> float:
    return float(math.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in names)))


def train(cfg: TrainConfig, pairs, init: Checkpoint,
          reference: Checkpoint | None = None):
    """Run preference optimization; returns (Checkpoint, metrics list).

    Metrics is one dict per optimizer step: step, loss, margin, grad_norm,
    lr, skipped. Fully deterministic in (cfg, pairs, init, reference).
    """
    needs_reference = cfg.loss.method not in REFERENCE_FREE
    if needs_reference and reference is None:
        raise ValueError(f"method {cfg.loss.method} requires a reference checkpoint")
    ref_model = reference.model if needs_reference else None
    policy = init.model.copy()
    names = policy.param_names()
    opt = AdamW(policy.params, names, weight_decay=cfg.weight_decay)
    n_batches = max(1, math.ceil(len(pairs) / cfg.batch_size))
    total_steps = cfg.epochs * n_batches
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps) if cfg.epochs else cfg.max_steps
    order_rng = rng(cfg.seed, 0)  # data substream
    metrics = []
    step = 0
    while step < total_steps:
        order = order_rng.permutation(len(pairs))
        for b in range(n_batches):
            if step >= total_steps:
                break
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            batch = [(pairs[i], int(i)) for i in idx]
            result, skipped = _batch_gradients(policy, ref_model, batch, cfg)
            lr = cosine_lr(step, total_steps, cfg.warmup_fraction, cfg.lr)
            loss = margin = None
            gn = 0.0
            if result is not None:  # else every example overflowed the context
                loss, margin, grads = result
                gn = grad_norm(grads, names)
                if cfg.grad_clip is not None and gn > cfg.grad_clip:
                    scale = cfg.grad_clip / gn
                    grads = {n: g * scale for n, g in grads.items()}
                opt.step(grads, lr=lr)
            metrics.append({"step": step, "loss": loss, "margin": margin,
                            "grad_norm": gn, "lr": lr, "skipped": skipped})
            step += 1
    if step == 0:
        return Checkpoint(policy, init.step, init.seed), metrics
    return Checkpoint(policy, init.step + step, cfg.seed), metrics


def pretrain_nll(model: PolicyModel, corpus: dict, steps: int, lr: float,
                 batch_size: int, seed: int) -> PolicyModel:
    """Plain NLL training on (prompt -> target) items; builds the SFT init."""
    model = model.copy()
    opt = AdamW(model.params, model.param_names())
    items = list(corpus.items())
    draw = rng(seed, 1)
    for step in range(steps):
        seqs = [make_sequence(*items[int(i)])
                for i in draw.integers(0, len(items), size=batch_size)]
        # the batch mean of each sequence's mean NLL: weight -1/(T*B) per token
        weights = np.concatenate([np.full(seq.response_len, 1.0 / seq.response_len)
                                  for seq in seqs]) * (-1.0 / batch_size)
        with Tape() as tape:
            leaves = {n: ad.leaf(tape, model.params[n]) for n in model.param_names()}
            logps, _ = packed_logprobs(model, seqs, leaves)
            grads = _gradients(ad.weighted_sum(logps, weights), leaves)
        opt.step(grads, lr=lr)
    return model


def evaluate_winrate(candidate: Checkpoint, baseline: Checkpoint,
                     oracle: RewardOracle, prompts, temperature: float,
                     seed: int, max_len: int = 256):
    """Paired-seed sampling; (win, tie, lose) for the candidate. Each model
    samples every prompt in one lockstep batch."""
    prompts = list(prompts)
    seeds = [derive_seed(seed, 2, i) for i in range(len(prompts))]
    _, sc = sample_and_score(candidate.model, oracle, prompts, temperature, max_len, seeds)
    _, sb = sample_and_score(baseline.model, oracle, prompts, temperature, max_len, seeds)
    win = sum(c > b for c, b in zip(sc, sb))
    tie = sum(c == b for c, b in zip(sc, sb))
    return win, tie, len(prompts) - win - tie
