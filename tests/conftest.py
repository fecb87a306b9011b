import dataclasses
import json
import struct
from functools import reduce

import numpy as np
import pytest

from decaypo import autodiff as ad
from decaypo.cli import _one_blas_thread
from decaypo.losses import PairScore, kto_loss, pair_loss
from decaypo.model import PolicyModel, _check_context, _forward

# One BLAS thread, as cli.main holds every command to, so that results
# computed in-process have the bits that a command writes.
_one_blas_thread()


def random_pairscore(rng, with_ref=True, max_len=8, prompt_len=None):
    """A random valid PairScore with strictly negative log-probs."""
    T_w = int(rng.integers(1, max_len + 1))
    T_l = int(rng.integers(1, max_len + 1))

    def logps(n):
        return -np.abs(rng.normal(1.0, 0.7, size=n)) - 1e-3

    return PairScore(
        chosen_logps=logps(T_w),
        rejected_logps=logps(T_l),
        chosen_ref_logps=logps(T_w) if with_ref else None,
        rejected_ref_logps=logps(T_l) if with_ref else None,
        prompt_len=int(rng.integers(0, 6)) if prompt_len is None else prompt_len,
        example_id=int(rng.integers(0, 1000)),
    )


def join_pairs(scores):
    """One PairScore of the pairs of PairScores of plain arrays."""
    def joined(name):
        parts = [getattr(s, name) for s in scores]
        return None if parts[0] is None else np.concatenate(parts)

    return PairScore(*(joined(f.name) for f in dataclasses.fields(PairScore)))


def pairwise_batch_loss(scores, cfg):
    """A batch's loss built pair by pair from single-pair PairScores: each
    pair's own graph, KTO's at the batch's z_ref (the mean of beta times
    each rejected response's mean log-ratio, clamped at 0), added in order
    and scaled by 1/k. The oracle of the batched losses."""
    if cfg.method == "kto":
        terms = [cfg.beta * float(np.sum(ad._value(s.rejected_logps) - s.rejected_ref_logps))
                 / len(s.rejected_ref_logps) for s in scores]
        z_ref = max(0.0, float(np.mean(terms)))
        losses = [kto_loss([(s, True)], cfg, z_ref) for s in scores]
    else:
        losses = [pair_loss(s, cfg) for s in scores]
    return ad.scale(reduce(ad.add, losses), 1.0 / len(scores))


def central_difference(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def forward_logits(model, tokens):
    """Logits for every position of one sequence ``tokens`` (n x V) from
    model._forward: a tensor when the model is taped, else an array."""
    tokens = _check_context(model, list(tokens))
    n = len(tokens)
    return _forward(model, tokens, np.arange(n), (0, n))


def read_csv(path, header) -> list[list[str]]:
    """The rows below ``header`` in a file written by analysis.write_csv, as
    text cells."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in map(str.strip, f) if line]
    if not lines or lines[0] != ",".join(header):
        raise ValueError(f"{path}: expected the CSV header {','.join(header)!r}")
    return [line.split(",") for line in lines[1:]]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_raw_checkpoint(path, arrays: dict, dim=16, context=48, blocks=2,
                         kind="causal-mixer", **fields):
    """A checkpoint file holding exactly ``arrays`` under the given
    architecture, whether or not they fit it; ``fields`` override or add
    manifest keys (``params``: the parameter table)."""
    manifest = {"format": "decaypo-checkpoint-v1",
                "architecture": {"kind": kind, "dim": dim,
                                 "context": context, "blocks": blocks},
                "params": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
                "step": 0, "seed": 0, **fields}
    blob = json.dumps(manifest).encode("utf-8")
    payload = b"".join(np.asarray(a).astype("<f4").tobytes() for a in arrays.values())
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(blob)) + blob + payload)


# manifest fields of the wrong type or out of range -> (key, value) a loader must
# reject, naming the key
BAD_MANIFEST_FIELDS = {"step_text": ("step", "abc"), "step_float": ("step", 1.5),
                       "step_negative": ("step", -1), "step_bool": ("step", True),
                       "seed_text": ("seed", "x"), "seed_null": ("seed", None),
                       "kind_other": ("kind", "transformer"), "dim_zero": ("dim", 0),
                       "dim_bool": ("dim", True), "dim_float": ("dim", 16.0),
                       "context_zero": ("context", 0), "blocks_zero": ("blocks", 0),
                       "blocks_negative": ("blocks", -1)}


def _manifest_only(manifest: dict) -> bytes:
    blob = json.dumps(manifest).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


# checkpoint files whose manifest cannot be read or lacks a key -> what a
# loader's error must say after the file's name
BAD_MANIFESTS = {
    "not_utf8": (b"\x02\x00\x00\x00\xff{", "unreadable checkpoint manifest: "),
    "not_json": (b"\x02\x00\x00\x00{x", "unreadable checkpoint manifest: "),
    "lacks_seed": (_manifest_only({"format": "decaypo-checkpoint-v1"}),
                   "checkpoint manifest lacks key 'seed'"),
}


# damaged parameter tables of a dim-16, 2-block model -> the name a loader must report
MISFITS = {"narrow": "w1_0", "missing": "w3_1", "unknown": "extra", "extra_block": "w1_2"}


def misfit_params(case: str) -> tuple[dict, int]:
    """The parameters for one MISFITS case and the block count to declare."""
    params = dict(PolicyModel(dim=16, context=48, blocks=2, seed=0).params)
    if case == "narrow":
        params["w1_0"] = np.zeros((8, 8))
    elif case == "missing":
        del params["w3_1"]
    elif case == "unknown":
        params["extra"] = np.zeros(3)
    else:  # extra_block: a third block is declared but its weights are absent
        return params, 3
    return params, 2
