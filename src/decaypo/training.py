"""Preference training on the toy model: AdamW, cosine schedule with
warmup, checkpoint container IO, NLL pretraining for building an SFT-style
init, and oracle-based win-rate evaluation."""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .config import rng
from .data import RewardOracle, sample_and_score
from .losses import REFERENCE_FREE, LossConfig, PairScore, batch_loss, sequence_margins
from .model import VOCAB_SIZE, PolicyModel, make_sequence, packed_logprobs, param_shapes


BASE_LR = 5e-7           # scaled up by TrainConfig.lr_multiplier for desk-scale runs
WARMUP_FRACTION = 0.10   # of the run's steps, warming up linearly to the peak rate


@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    lr_multiplier: float = 1e3     # desk-scale models want ~5e-4
    batch_size: int = 32
    epochs: int = 1
    max_steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not BASE_LR * self.lr_multiplier > 0:
            raise ValueError("learning rate must be > 0")

    @property
    def lr(self) -> float:
        return BASE_LR * self.lr_multiplier


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr over WARMUP_FRACTION of the steps, then a half cosine to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError("step must be in [0, total_steps]")
    warmup = math.ceil(WARMUP_FRACTION * total_steps)
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
    names = param_shapes(model.dim, model.context, model.blocks)
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
        if type(manifest["seed"]) is not int:  # the root seed, which may be negative
            raise ValueError(f"manifest key 'seed' must be an integer, got {manifest['seed']!r}")
        arch = manifest["architecture"]
        if arch["kind"] != PolicyModel.architecture:
            raise ValueError(f"manifest key 'kind' must be {PolicyModel.architecture!r}, "
                             f"got {arch['kind']!r}")
        # step, and the architecture as the command line bounds it
        for where, key, low in ((manifest, "step", 0), (arch, "dim", 1),
                                (arch, "context", 1), (arch, "blocks", 1)):
            if type(where[key]) is not int or where[key] < low:  # a bool is not an int
                raise ValueError(f"manifest key {key!r} must be an integer >= {low}, "
                                 f"got {where[key]!r}")
        # the table lists the architecture's parameters in param_shapes order,
        # each shape a list of integers, not of floats or bools
        shapes = param_shapes(arch["dim"], arch["context"], arch["blocks"])
        table = [(entry["name"], entry["shape"]) for entry in manifest["params"]]
        for got, want in itertools.zip_longest(table, shapes.items()):
            if got is None or want is None or got[0] != want[0] or type(got[1]) is not list \
                    or [(type(n), n) for n in got[1]] != [(int, n) for n in want[1]]:
                raise ValueError(f"parameter table has {got or 'nothing'} for {want or 'nothing'}")
        sizes = [math.prod(shape) for shape in shapes.values()]
        if len(blob) - end != 4 * sum(sizes):
            raise ValueError(f"payload of {len(blob) - end} bytes, not {sum(sizes)} float32 values")
        # one conversion and one check of the whole payload; each parameter
        # is a view of it
        payload = np.frombuffer(blob, "<f4", sum(sizes), end).astype(np.float64)
        offsets = np.cumsum([0, *sizes])
        finite = np.isfinite(payload)
        if not finite.all():
            first = np.searchsorted(offsets, finite.argmin(), side="right") - 1
            raise ValueError(f"parameter {list(shapes)[first]} is not finite")
        params = {name: payload[lo:lo + size].reshape(shape)
                  for (name, shape), size, lo in zip(shapes.items(), sizes, offsets)}
        model = PolicyModel(dim=arch["dim"], context=arch["context"],
                            blocks=arch["blocks"], seed=manifest["seed"], params=params)
        return Checkpoint(model=model, step=manifest["step"], seed=manifest["seed"])
    except KeyError as e:
        raise ValueError(f"{path}: checkpoint manifest lacks key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # AdamW's moment decays and denominator floor


class AdamW:
    """AdamW with its weight decay fixed at 0, so Adam; update order is the
    order of the ``params`` dict, so runs are bit-reproducible."""

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}

    def step(self, grads: dict, lr: float):
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # update = (m/c1) / (sqrt(v/c2) + eps), in place: the same
        # operations in the same order, so the same bits, with two fresh
        # arrays per parameter instead of one per operation
        for n, p in self.params.items():
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
            update *= lr
            p -= update


class KeptReference:
    """A frozen reference model and, by example id, the (chosen, rejected)
    log-prob arrays of every pair it has scored: a pair is scored once, in
    the packed pass of the first batch that holds it, and read back after."""

    def __init__(self, model: PolicyModel):
        self.model = model
        self.kept: dict[int, tuple] = {}

    def sides(self, batch, seqs) -> list[tuple]:
        """(chosen, rejected) log-probs of each pair of ``batch``, whose
        sequences are ``seqs``: the kept ones, and those of the other pairs
        from one packed pass over their sequences, which are kept too."""
        found = [self.kept.get(i) for _, i in batch]
        new = [k for k, side in enumerate(found) if side is None]
        if new:
            flat, offsets = packed_logprobs(self.model, [seqs[2 * k + j]
                                                         for k in new for j in (0, 1)])
            cuts = np.split(flat, offsets[1:-1])
            for n, k in enumerate(new):
                found[k] = self.kept[batch[k][1]] = (cuts[2 * n], cuts[2 * n + 1])
        return found


def score_pairs(policy: PolicyModel, reference: PolicyModel | KeptReference | None,
                batch) -> PairScore:
    """One PairScore of the (pair, example_id) items of ``batch``, in order,
    from one packed pass of the policy; a pair that does not fit the context
    raises model._check_context's ValueError. The policy log-probs are
    tensors when the policy is taped, else arrays. The reference ones are
    None without ``reference``, else arrays from the same arithmetic: of a
    KeptReference, which scores only the pairs it has not kept, or of a
    model, which scores every pair in one packed pass."""
    seqs = [make_sequence(pair.prompt, response)
            for pair, _ in batch for response in (pair.chosen, pair.rejected)]
    # the reference first, so that its temporaries are freed before the tape grows
    ref_sides = [None, None]
    if reference is not None:
        kept = reference if isinstance(reference, KeptReference) else KeptReference(reference)
        ref_sides = [np.concatenate(side) for side in zip(*kept.sides(batch, seqs))]
    logps, offsets = packed_logprobs(policy, seqs)
    lens = np.diff(offsets)
    chosen = np.repeat(np.arange(len(seqs)) % 2 == 0, lens)  # the chosen responses' rows
    # chosen then rejected: one gather per side
    return PairScore(*[ad.gather_rows(logps, side)
                       for side in (np.flatnonzero(chosen), np.flatnonzero(~chosen))],
                     *ref_sides,
                     prompt_len=[seq.prompt_len for seq in seqs[0::2]],
                     example_id=[i for _, i in batch],
                     chosen_lens=lens[0::2], rejected_lens=lens[1::2])


def _gradients(loss, taped: PolicyModel) -> dict:
    grads = ad.gradients(loss, list(taped.params.values()))
    return {n: grads[leaf] for n, leaf in taped.params.items()}


def _batch_gradients(policy, reference, batch, cfg: TrainConfig):
    """(loss, margin, grads) of one forward/backward over a batch; the
    reference is None, a model or a KeptReference, as score_pairs takes it."""
    with Tape() as tape:  # emptied on exit, so the step's arrays are freed when it ends
        taped = policy.taped(tape)
        score = score_pairs(taped, reference, batch)
        loss = batch_loss(score, cfg.loss)
        margin = float(np.mean(sequence_margins(score)))
        return float(loss.value), margin, _gradients(loss, taped)


def grad_norm(grads: dict) -> float:
    return float(math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())))


def train(cfg: TrainConfig, pairs, init: Checkpoint,
          reference: Checkpoint | None = None):
    """Run preference optimization on a nonempty list of pairs, each of
    which must fit the context; returns (Checkpoint, metrics list).

    Metrics is one dict per optimizer step: step, loss, margin, grad_norm,
    lr. Step k trains on batch k mod B of epoch k // B's shuffle.
    A KeptReference scores each pair under the reference once, so epoch 2
    on may differ at the ulp level from rescoring it in that epoch's packs.
    A step whose loss or gradient norm is not finite (a margin that is not
    makes the loss nan) raises ValueError naming the step.
    Fully deterministic in (cfg, pairs, init, reference).
    """
    if not pairs:
        raise ValueError("train requires pairs")
    needs_reference = cfg.loss.method not in REFERENCE_FREE
    if needs_reference and reference is None:
        raise ValueError(f"method {cfg.loss.method} requires a reference checkpoint")
    kept = KeptReference(reference.model) if needs_reference else None
    policy = init.model.copy()
    opt = AdamW(policy.params)
    n_batches = math.ceil(len(pairs) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps) if cfg.epochs else cfg.max_steps
    order_rng = rng(cfg.seed, 0)  # data substream: one shuffle per epoch
    metrics = []
    for step in range(total_steps):
        b = step % n_batches
        if b == 0:
            order = order_rng.permutation(len(pairs))
        idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
        batch = [(pairs[i], int(i)) for i in idx]
        with np.errstate(all="ignore"):  # a non-finite step raises below
            loss, margin, grads = _batch_gradients(policy, kept, batch, cfg)
            gn = grad_norm(grads)
        if not (math.isfinite(loss) and math.isfinite(gn)):
            raise ValueError(f"step {step} is not finite: loss {loss}, gradient norm {gn}")
        lr = cosine_lr(step, total_steps, cfg.lr)
        opt.step(grads, lr=lr)
        metrics.append({"step": step, "loss": loss, "margin": margin, "grad_norm": gn, "lr": lr})
    # a run of no steps leaves the checkpoint as it was, seed included
    return Checkpoint(policy, init.step + total_steps,
                      cfg.seed if total_steps else init.seed), metrics


def pretrain_nll(model: PolicyModel, corpus: dict, steps: int, lr: float,
                 batch_size: int, seed: int) -> PolicyModel:
    """Plain NLL training on (prompt -> target) items; builds the SFT init.
    A step whose loss is not finite raises ValueError naming the step."""
    model = model.copy()
    opt = AdamW(model.params)
    items = list(corpus.items())
    draw = rng(seed, 1)
    for step in range(steps):
        seqs = [make_sequence(*items[int(i)])
                for i in draw.integers(0, len(items), size=batch_size)]
        # the batch mean of each sequence's mean NLL: weight -1/(T*B) per token
        weights = np.concatenate([np.full(seq.response_len, 1.0 / seq.response_len)
                                  for seq in seqs]) * (-1.0 / batch_size)
        with Tape() as tape, np.errstate(all="ignore"):  # a non-finite step raises below
            taped = model.taped(tape)
            logps, _ = packed_logprobs(taped, seqs)
            loss = ad.weighted_sum(logps, weights)
            grads = _gradients(loss, taped)
        if not math.isfinite(loss.value):
            raise ValueError(f"step {step} is not finite: loss {loss.value}")
        opt.step(grads, lr=lr)
    return model


def evaluate_winrate(candidate: Checkpoint, baseline: Checkpoint,
                     oracle: RewardOracle, prompts, temperature: float,
                     seed: int, max_len: int = 256):
    """(win, tie, lose) for the candidate. Each model samples every prompt
    in one lockstep call of the same ``seed``, so the two responses to
    prompt i are drawn at the same uniforms."""
    prompts = list(prompts)
    _, sc = sample_and_score(candidate.model, oracle, prompts, temperature, max_len, seed)
    _, sb = sample_and_score(baseline.model, oracle, prompts, temperature, max_len, seed)
    win = sum(c > b for c, b in zip(sc, sb))
    tie = sum(c == b for c, b in zip(sc, sb))
    return win, tie, len(prompts) - win - tie
