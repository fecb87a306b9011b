"""Pairwise preference losses over per-token log-probability records.

Every pairwise method but kto and orpo is margin_loss, one margin form:
link(c * (sum_t w_w[t] r_w[t] - sum_t w_l[t] r_l[t]) - offset), where r is
the log-ratio to the reference, or the raw log-prob for the REFERENCE_FREE
methods, and the link is the square for ipo and -log sigma for the rest.
_margin_form gives each method's weights w_w and w_l, scale c and offset.

Each loss has one definition, written with the autodiff primitives: given
a :class:`PairScore` of autodiff tensors it returns a tensor on their tape,
and given plain arrays it returns a plain value from the same arithmetic
(batch_loss and pair_loss return it as a float).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import rng
from .schedules import UNIFORM, DecaySchedule, weights

METHODS = ("d2po", "dpo", "d2po_ref_free", "simpo", "ipo", "kto", "orpo", "sampo")
REFERENCE_FREE = ("d2po_ref_free", "simpo", "orpo")


@dataclass
class PairScore:
    """Per-token log-probabilities for one preference pair.

    Reference log-probs are absent (None) in reference-free mode. Arrays may
    be numpy arrays or autodiff tensors; reference arrays are always treated
    as constants.
    """

    chosen_logps: object
    rejected_logps: object
    chosen_ref_logps: object = None
    rejected_ref_logps: object = None
    prompt_len: int = 0
    example_id: int = 0


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


def _array(x) -> np.ndarray:
    return np.asarray(x.value if isinstance(x, Tensor) else x, dtype=np.float64)


def _require_ref(score: PairScore):
    if score.chosen_ref_logps is None or score.rejected_ref_logps is None:
        raise ValueError("reference log-probs are required for this loss")


def _ratios(logps, ref_logps):
    return logps if ref_logps is None else ad.sub(logps, _array(ref_logps))


def _margin_form(method: str, score: PairScore, cfg: LossConfig, T_w: int, T_l: int):
    """(w_w, w_l, c, offset) of ``method``'s margin."""
    if method == "simpo":
        return np.full(T_w, 1.0 / T_w), np.full(T_l, 1.0 / T_l), cfg.beta, cfg.target_margin
    if method == "ipo":
        if not cfg.tau > 0:
            raise ValueError("ipo requires tau > 0")
        return np.ones(T_w), np.ones(T_l), 1.0, 1.0 / (2.0 * cfg.tau)
    if method == "sampo":
        idx_w, idx_l = sampo_indices(T_w, T_l, cfg.sampo_seed, score.example_id)
        w_w, w_l = np.zeros(T_w), np.zeros(T_l)
        w_w[idx_w] = 1.0
        w_l[idx_l] = 1.0
        return w_w, w_l, cfg.beta, 0.0
    if method in ("d2po", "d2po_ref_free", "dpo"):
        schedule = UNIFORM if method == "dpo" else cfg.schedule
        return (weights(schedule, T_w, score.prompt_len),
                weights(schedule, T_l, score.prompt_len), cfg.beta, 0.0)
    raise ValueError(f"{method!r} is not a margin method")


def margin_loss(score: PairScore, cfg: LossConfig, method: str):
    """The margin form of ``method`` (module docstring); cfg.method is not read."""
    use_ref = method not in REFERENCE_FREE
    if use_ref:
        _require_ref(score)
    r_w = _ratios(score.chosen_logps, score.chosen_ref_logps if use_ref else None)
    r_l = _ratios(score.rejected_logps, score.rejected_ref_logps if use_ref else None)
    w_w, w_l, c, offset = _margin_form(method, score, cfg, len(_array(r_w)), len(_array(r_l)))
    s_w, s_l = ad.weighted_sum(r_w, w_w), ad.weighted_sum(r_l, w_l)
    if c != 1.0:  # scaling by 1 is exact, so it would only lengthen the tape
        s_w, s_l = ad.scale(s_w, c), ad.scale(s_l, c)
    margin = ad.sub(s_w, s_l)
    if offset:
        margin = ad.sub(margin, offset)
    return ad.square(margin) if method == "ipo" else -ad.logsigmoid(margin)


# margin_loss with the method fixed; each ignores cfg.method
d2po_loss = partial(margin_loss, method="d2po")
dpo_loss = partial(margin_loss, method="dpo")
d2po_ref_free_loss = partial(margin_loss, method="d2po_ref_free")
simpo_loss = partial(margin_loss, method="simpo")
ipo_loss = partial(margin_loss, method="ipo")
sampo_loss = partial(margin_loss, method="sampo")


def kto_loss(batch, cfg: LossConfig, z_ref: float):
    """Mean KTO loss over a batch of (PairScore, chosen_is_desirable) items.

    z_ref is a constant (no gradient flows through it), clamped at 0.
    """
    if not batch:
        raise ValueError("kto_loss requires a nonempty batch")
    z = max(0.0, float(z_ref))
    items = []
    for score, label in batch:
        _require_ref(score)
        rw = ad.arraysum(_ratios(score.chosen_logps, score.chosen_ref_logps))
        rl = ad.arraysum(_ratios(score.rejected_logps, score.rejected_ref_logps))
        if not label:
            rw, rl = rl, rw
        term_w = ad.scale(ad.sigmoid(ad.sub(ad.scale(rw, cfg.beta), z)), -cfg.lambda_w)
        term_l = ad.scale(ad.sigmoid(ad.sub(z, ad.scale(rl, cfg.beta))), cfg.lambda_l)
        items.append(ad.add(term_w, term_l))
    return ad.scale(reduce(ad.add, items), 1.0 / len(batch))


def estimate_z_ref(batch, cfg: LossConfig) -> float:
    """Batch estimate of the KTO KL anchor.

    Mean over rejected responses of beta * (sequence log-ratio) / T,
    clamped at 0. Treated as a detached constant by kto_loss.
    """
    vals = []
    for score, _label in batch:
        _require_ref(score)
        rl, rr = _array(score.rejected_logps), _array(score.rejected_ref_logps)
        vals.append(cfg.beta * float(np.sum(rl - rr)) / rl.shape[0])
    return max(0.0, float(np.mean(vals)))


def orpo_loss(score: PairScore, cfg: LossConfig):
    cw, cl = score.chosen_logps, score.rejected_logps
    Tw, Tl = len(_array(cw)), len(_array(cl))
    mean_w = ad.weighted_sum(cw, np.full(Tw, 1.0 / Tw))
    mean_l = ad.weighted_sum(cl, np.full(Tl, 1.0 / Tl))
    if float(_array(mean_w)) >= 0.0 or float(_array(mean_l)) >= 0.0:
        raise ValueError("orpo requires strictly negative mean log-probs "
                         "(odds are singular at probability 1)")
    # log odds(p) with p = exp(mean logp):  m - log(1 - e^m)
    lo_w = ad.sub(mean_w, ad.log1mexp(mean_w))
    lo_l = ad.sub(mean_l, ad.log1mexp(mean_l))
    penalty = ad.scale(ad.logsigmoid(ad.sub(lo_w, lo_l)), -cfg.lambda_orpo)
    nll = ad.scale(mean_w, -1.0)
    return ad.add(nll, penalty)


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


def pair_loss(score: PairScore, cfg: LossConfig):
    """The loss of one pair under cfg.method: batch_loss of a batch of one."""
    return batch_loss([score], cfg)


def batch_loss(scores, cfg: LossConfig):
    """Arithmetic mean of per-example losses in index order.

    KTO is handled batch-natively with z_ref estimated from the batch.
    """
    if not scores:
        raise ValueError("batch_loss requires a nonempty batch")
    if cfg.method == "kto":
        batch = [(s, True) for s in scores]
        loss = kto_loss(batch, cfg, estimate_z_ref(batch, cfg))
    else:
        loss = ad.scale(reduce(ad.add, [orpo_loss(s, cfg) if cfg.method == "orpo"
                                        else margin_loss(s, cfg, cfg.method)
                                        for s in scores]), 1.0 / len(scores))
    return loss if isinstance(loss, Tensor) else float(loss)
