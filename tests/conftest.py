import json
import struct

import numpy as np
import pytest

from decaypo.losses import PairScore
from decaypo.model import PolicyModel, _check_context, _forward


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


def forward_logits(model, tokens, params=None):
    """Logits for every position of one sequence ``tokens`` (n x V) from
    model._forward: a tensor when ``params`` maps each name to a leaf
    tensor, else an array."""
    tokens = _check_context(model, list(tokens))
    n = len(tokens)
    return _forward(model, model.params if params is None else params,
                    tokens, np.arange(n), (0, n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_raw_checkpoint(path, params: dict, dim=16, context=48, blocks=2, **fields):
    """A checkpoint file holding exactly ``params`` under the given
    architecture, whether or not they fit it; ``fields`` override or add
    manifest keys."""
    manifest = {"format": "decaypo-checkpoint-v1",
                "architecture": {"kind": "causal-mixer", "dim": dim,
                                 "context": context, "blocks": blocks},
                "params": [{"name": n, "shape": list(a.shape)} for n, a in params.items()],
                "step": 0, "seed": 0, **fields}
    blob = json.dumps(manifest).encode("utf-8")
    payload = b"".join(np.asarray(a).astype("<f4").tobytes() for a in params.values())
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(blob)) + blob + payload)


# manifest fields of the wrong type -> (key, value) a loader must reject, naming the key
BAD_MANIFEST_FIELDS = {"step_text": ("step", "abc"), "step_float": ("step", 1.5),
                       "step_negative": ("step", -1), "step_bool": ("step", True),
                       "seed_text": ("seed", "x"), "seed_null": ("seed", None)}


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
