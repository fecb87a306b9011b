"""Pairwise preference losses over per-token log-probability records.

A :class:`PairScore` holds k >= 1 pairs; one pair is a batch of one.
pair_losses gives every pair's loss, a (k,) vector, from two (k,) side
sums of one segmented weighted_sum each, and a batch's loss is its mean,
added in index order: a graph that does not grow with k. Every method but
kto and orpo is one margin form:
link(c * (sum_t w_w[t] r_w[t] - sum_t w_l[t] r_l[t]) - offset), where r is
the log-ratio to the reference, or the raw log-prob for the REFERENCE_FREE
methods, and the link is the square for ipo and -log sigma for the rest.
_margin_weights gives a pair's weights w_w and w_l, and _sides the method's
c and offset and the two scaled sums; kto puts a sigma link on each of dpo's.

Each loss has one definition, written with the autodiff primitives: given
a PairScore of autodiff tensors it returns a tensor on their tape, and
given plain arrays it returns a plain value from the same arithmetic (a
float from batch_loss, also named pair_loss, and from each named loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np

from . import autodiff as ad
from .config import rng
from .schedules import UNIFORM, DecaySchedule, weights

METHODS = ("d2po", "dpo", "d2po_ref_free", "simpo", "ipo", "kto", "orpo", "sampo")
REFERENCE_FREE = ("d2po_ref_free", "simpo", "orpo")


@dataclass
class PairScore:
    """Per-token log-probabilities of k >= 1 preference pairs.

    Each side's arrays hold the pairs' responses end to end, and
    ``chosen_lens`` and ``rejected_lens`` give each response's length
    (default: the whole array, one pair), each at least 1 and adding up,
    side by side, to each of that side's arrays; a ValueError names a side
    that breaks this, and another rejects k = 0. ``prompt_len`` and
    ``example_id`` take one value per pair (an int: one pair); all four
    become int arrays. Reference log-probs are None in reference-free mode.
    Arrays may be numpy arrays or autodiff tensors; reference arrays are
    always constants.
    """

    chosen_logps: object
    rejected_logps: object
    chosen_ref_logps: object = None
    rejected_ref_logps: object = None
    prompt_len: object = 0
    example_id: object = 0
    chosen_lens: object = None
    rejected_lens: object = None

    def __post_init__(self):
        names = ("chosen_lens", "rejected_lens", "prompt_len", "example_id")
        whole = (len(ad._value(self.chosen_logps)), len(ad._value(self.rejected_logps)), 0, 0)
        for name, default in zip(names, whole):
            value = default if getattr(self, name) is None else getattr(self, name)
            setattr(self, name, np.atleast_1d(np.asarray(value, dtype=np.int64)))
        if len({getattr(self, name).shape for name in names}) != 1:
            raise ValueError("a PairScore needs one of each response length, prompt_len "
                             "and example_id per pair")
        if not len(self.example_id):
            raise ValueError("a PairScore needs at least one pair")
        for side in ("chosen", "rejected"):
            lens = getattr(self, f"{side}_lens")
            arrays = (getattr(self, f"{side}_logps"), getattr(self, f"{side}_ref_logps"))
            sizes = [len(ad._value(a)) for a in arrays if a is not None]
            if np.any(lens < 1) or any(size != lens.sum() for size in sizes):
                raise ValueError(f"{side} response lengths {lens.tolist()} must be >= 1 and "
                                 f"add up to each {side} array, of {sizes} tokens")


@dataclass
class LossConfig:
    method: str = "d2po"
    beta: float = 0.1
    schedule: DecaySchedule = field(default_factory=DecaySchedule)
    tau: float = 0.1
    lambda_w: float = 1.0
    lambda_l: float = 1.0
    lambda_orpo: float = 1.0
    target_margin: float = 0.0
    sampo_seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown loss method {self.method!r}")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if not self.tau > 0:
            raise ValueError("tau must be > 0")


def segment_sums(x, lens, w=None):
    """Each response's sum of w * x (w 1 by default), x holding responses of
    lengths ``lens`` end to end: a vector from one segmented weighted_sum."""
    return ad.weighted_sum(x, np.ones(len(ad._value(x))) if w is None else w,
                           np.cumsum([0, *lens]))


def sequence_margins(score: PairScore) -> np.ndarray:
    """Each pair's chosen-minus-rejected summed log-probs, from plain values."""
    return (segment_sums(ad._value(score.chosen_logps), score.chosen_lens)
            - segment_sums(ad._value(score.rejected_logps), score.rejected_lens))


def _require_ref(score: PairScore):
    if score.chosen_ref_logps is None or score.rejected_ref_logps is None:
        raise ValueError("reference log-probs are required for this loss")


def _margin_weights(method: str, cfg: LossConfig, T_w: int, T_l: int, prompt_len: int,
                    example_id: int):
    """(w_w, w_l) of ``method``'s margin for one pair."""
    if method == "simpo":
        return np.full(T_w, 1.0 / T_w), np.full(T_l, 1.0 / T_l)
    if method == "ipo":
        return np.ones(T_w), np.ones(T_l)
    if method == "sampo":
        idx_w, idx_l = sampo_indices(T_w, T_l, cfg.sampo_seed, example_id)
        w_w, w_l = np.zeros(T_w), np.zeros(T_l)
        w_w[idx_w] = w_l[idx_l] = 1.0
        return w_w, w_l
    schedule = UNIFORM if method == "dpo" else cfg.schedule  # d2po, d2po_ref_free, dpo
    return weights(schedule, T_w, prompt_len), weights(schedule, T_l, prompt_len)


def _sides(score: PairScore, cfg: LossConfig, method: str):
    """(c * sum_t w_w[t] r_w[t], c * sum_t w_l[t] r_l[t], offset) of
    ``method``, each sum a (k,) vector of one entry per pair."""
    r_w, r_l = score.chosen_logps, score.rejected_logps
    if method not in REFERENCE_FREE:
        _require_ref(score)
        r_w = ad.sub(r_w, ad._value(score.chosen_ref_logps))
        r_l = ad.sub(r_l, ad._value(score.rejected_ref_logps))
    per_pair = (score.chosen_lens, score.rejected_lens, score.prompt_len, score.example_id)
    w_w, w_l = zip(*[_margin_weights(method, cfg, *pair)
                     for pair in zip(*(v.tolist() for v in per_pair))])
    s_w = segment_sums(r_w, score.chosen_lens, np.concatenate(w_w))
    s_l = segment_sums(r_l, score.rejected_lens, np.concatenate(w_l))
    c = 1.0 if method == "ipo" else cfg.beta
    offset = {"simpo": cfg.target_margin, "ipo": 1.0 / (2.0 * cfg.tau)}.get(method, 0.0)
    if c != 1.0:  # scaling by 1 is exact, so it would only lengthen the tape
        s_w, s_l = ad.scale(s_w, c), ad.scale(s_l, c)
    return s_w, s_l, offset


def _mean(*losses):
    """The mean of the entries of per-pair loss vectors, added in index
    order as a chain of adds would."""
    total = reduce(ad.add, [ad.weighted_sum(v, np.ones(len(ad._value(v)))) for v in losses])
    return ad.scale(total, 1.0 / sum(len(ad._value(v)) for v in losses))


def pair_losses(score: PairScore, cfg: LossConfig, z_ref=None, desirable: bool = True):
    """Each pair's loss under cfg.method, a (k,) vector: what a batch of that
    pair alone gives it. KTO anchors each pair at its own z_ref, or at the
    constant ``z_ref`` when given, clamped at 0; ``desirable`` False swaps
    its roles of chosen and rejected."""
    if cfg.method == "orpo":  # simpo's sides at beta 1 are the mean log-probs
        mean_w, mean_l, _ = _sides(score, replace(cfg, beta=1.0), "simpo")
        if np.any(ad._value(mean_w) >= 0.0) or np.any(ad._value(mean_l) >= 0.0):
            raise ValueError("orpo requires strictly negative mean log-probs "
                             "(odds are singular at probability 1)")
        # log odds(p) with p = exp(mean logp):  m - log(1 - e^m)
        lo_w = ad.sub(mean_w, ad.log1mexp(mean_w))
        lo_l = ad.sub(mean_l, ad.log1mexp(mean_l))
        penalty = ad.scale(ad.logsigmoid(ad.sub(lo_w, lo_l)), -cfg.lambda_orpo)
        return ad.add(ad.scale(mean_w, -1.0), penalty)
    s_w, s_l, offset = _sides(score, cfg, "dpo" if cfg.method == "kto" else cfg.method)
    if cfg.method == "kto":  # s_w and s_l are beta * the summed log-ratios
        z = _z_terms(score, cfg) if z_ref is None else np.full(s_w.shape, float(z_ref))
        z = np.where(z > 0.0, z, 0.0)  # a constant: no gradient flows through it
        if not desirable:
            s_w, s_l = s_l, s_w
        # KTO's lambda_y - v(x, y): lambda_w (1 - sigma(s_w - z)) + lambda_l (1 - sigma(z - s_l))
        return ad.add(ad.scale(ad.sigmoid(ad.sub(z, s_w)), cfg.lambda_w),
                      ad.scale(ad.sigmoid(ad.sub(s_l, z)), cfg.lambda_l))
    margin = ad.sub(s_w, s_l)
    if offset:
        margin = ad.sub(margin, np.full(margin.shape, offset))
    return ad.mul(margin, margin) if cfg.method == "ipo" else -ad.logsigmoid(margin)


def _mean_loss(score: PairScore, cfg: LossConfig, method: str):
    """batch_loss under ``method``; cfg.method is not read."""
    return batch_loss(score, replace(cfg, method=method))


d2po_loss = partial(_mean_loss, method="d2po")
dpo_loss = partial(_mean_loss, method="dpo")
d2po_ref_free_loss = partial(_mean_loss, method="d2po_ref_free")
simpo_loss = partial(_mean_loss, method="simpo")
ipo_loss = partial(_mean_loss, method="ipo")
sampo_loss = partial(_mean_loss, method="sampo")
orpo_loss = partial(_mean_loss, method="orpo")


def kto_loss(batch, cfg: LossConfig, z_ref: float):
    """Mean KTO loss over the pairs of a batch of (PairScore,
    chosen_is_desirable) items, each anchored at the constant z_ref."""
    if not batch:
        raise ValueError("kto_loss requires a nonempty batch")
    kto = replace(cfg, method="kto")
    return _mean(*(pair_losses(score, kto, z_ref, desirable) for score, desirable in batch))


def _z_terms(score: PairScore, cfg: LossConfig) -> np.ndarray:
    """Each pair's beta * (rejected sequence log-ratio) / T_l."""
    _require_ref(score)
    ratio = ad._value(score.rejected_logps) - ad._value(score.rejected_ref_logps)
    return cfg.beta * segment_sums(ratio, score.rejected_lens) / score.rejected_lens


def estimate_z_ref(batch, cfg: LossConfig) -> float:
    """Batch estimate of the KTO KL anchor.

    Mean over rejected responses of beta * (sequence log-ratio) / T,
    clamped at 0. Treated as a detached constant by kto_loss.
    """
    if not batch:
        raise ValueError("estimate_z_ref requires a nonempty batch")
    return max(0.0, float(np.mean(np.concatenate([_z_terms(s, cfg) for s, _ in batch]))))


def sampo_indices(T_w: int, T_l: int, sampo_seed: int, example_id: int):
    """Deterministic token index sets for SamPO subsampling.

    The longer response is subsampled to T_m = min(T_w, T_l) indices drawn
    uniformly without replacement; the shorter keeps all its tokens.
    """
    T_m = min(T_w, T_l)
    idx_w, idx_l = np.arange(T_w), np.arange(T_l)
    if T_w != T_l:
        draw = rng(sampo_seed, example_id)
        if T_w > T_m:
            idx_w = np.sort(draw.choice(T_w, size=T_m, replace=False))
        else:
            idx_l = np.sort(draw.choice(T_l, size=T_m, replace=False))
    return idx_w, idx_l


def batch_loss(score: PairScore, cfg: LossConfig):
    """Mean of the losses of a PairScore's pairs, added in index order; KTO
    anchors every pair at z_ref estimated from the batch."""
    z_ref = estimate_z_ref([(score, True)], cfg) if cfg.method == "kto" else None
    loss = _mean(pair_losses(score, cfg, z_ref))
    return loss if isinstance(loss, ad.Tensor) else float(loss)


pair_loss = partial(batch_loss)  # one pair's loss; unlike an alias, keeps batch_loss's span name
