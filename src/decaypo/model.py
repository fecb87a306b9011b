"""Tiny byte-level autoregressive policy model.

Architecture ("causal-mixer"): token + position embeddings, two residual
blocks that mix each position with the causal running mean of the prefix
through multiplicative gating and a logsigmoid nonlinearity, and a
zero-initialized output projection (so a fresh model is exactly uniform).
The forward pass is built from the autodiff primitive set and costs
O(n*d^2) for n tokens at width d. One forward definition scores any number
of sequences packed end to end (positions and running means restart at each
one, and only the rows that predict a response token reach the output
projection): with parameter tensors it records a tape for training, and
with the plain parameter arrays it records nothing, for the reference model
and the analyses. Because the running mean is a recurrence, sampling is
recurrent too: it carries one running sum per block and spends
O(blocks*d^2 + d*V) per token instead of rerunning the prefix. It runs in
lockstep: one decoder step advances a stack of rows at one position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .config import rng

VOCAB_SIZE = 258
BOS = 256
EOS = 257


@dataclass
class TokenSequence:
    """A prompt (BOS-prefixed) and a response (ideally EOS-terminated)."""

    prompt_tokens: list[int]
    response_tokens: list[int]

    def __post_init__(self):
        if len(self.prompt_tokens) < 1:
            raise ValueError("prompt must be nonempty (BOS always present)")
        if len(self.response_tokens) < 1:
            raise ValueError("response must be nonempty")

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_tokens)

    @property
    def response_len(self) -> int:
        return len(self.response_tokens)


def make_sequence(prompt: bytes, response: bytes) -> TokenSequence:
    return TokenSequence([BOS] + list(prompt), list(response) + [EOS])


@dataclass
class PolicyModel:
    dim: int = 64
    context: int = 256
    blocks: int = 2
    seed: int = 0
    params: dict = field(default=None)

    architecture = "causal-mixer"

    def __post_init__(self):
        if self.params is None:
            self.params = init_params(self.dim, self.context, self.blocks, self.seed)

    def param_names(self):
        return list(param_shapes(self.dim, self.context, self.blocks))

    def copy(self) -> "PolicyModel":
        return PolicyModel(self.dim, self.context, self.blocks, self.seed,
                           {k: v.copy() for k, v in self.params.items()})


def param_shapes(dim: int, context: int, blocks: int) -> dict:
    """Name -> shape of every parameter of the architecture, in the fixed
    order that initialization draws them and checkpoints store them."""
    shapes = {"embed": (VOCAB_SIZE, dim), "pos": (context, dim)}
    for b in range(blocks):
        shapes.update({f"w{i}_{b}": (dim, dim) for i in (1, 2, 3)})
    shapes["w_out"] = (dim, VOCAB_SIZE)
    return shapes


def init_params(dim: int, context: int, blocks: int, seed: int) -> dict:
    draw = rng(seed)
    s = 1.0 / np.sqrt(dim)
    # Zero output head: a fresh model is exactly uniform over the vocabulary.
    return {name: np.zeros(shape) if name == "w_out" else draw.normal(0.0, s, size=shape)
            for name, shape in param_shapes(dim, context, blocks).items()}


def _check_context(model: PolicyModel, tokens: list, lengths=None) -> np.ndarray:
    """``tokens`` as an id array, once the sequences of ``lengths`` packed in
    it end to end (default: one sequence) are each nonempty and within the
    context, and one numpy pass finds every id in the vocabulary."""
    for n in (len(tokens),) if lengths is None else lengths:
        if n == 0:
            raise ValueError("empty context")
        if n > model.context:
            raise ValueError(f"context of length {n} exceeds limit {model.context}")
    ids = np.asarray(tokens)
    if ids.size and (ids.min() < 0 or ids.max() >= VOCAB_SIZE):
        raise ValueError("token id out of vocabulary range")
    return ids


def _block(x, m, w1, w2, w3, logsigmoid):
    """One residual block on the input ``x`` and its causal running mean
    ``m``; written with operators so it serves Tensors and plain arrays."""
    u = logsigmoid((x + m) @ w1)
    return x + (u @ w2 + (x * m) @ w3)


def _forward(model: PolicyModel, p: dict, tokens, positions, bounds, rows=None):
    """Logits at ``rows`` (every row when None) of ``tokens``: sequences
    packed end to end, the segment ``bounds`` (0, n_1, n_1 + n_2, ...) and
    ``positions`` restarting at each. ``p`` maps each parameter name to a
    tensor, for a taped pass, or to its array, for a plain one; both run the
    same arithmetic."""
    x = ad.gather_rows(p["embed"], tokens) + ad.gather_rows(p["pos"], positions)
    for b in range(model.blocks):
        x = _block(x, ad.causal_mean(x, bounds), p[f"w1_{b}"], p[f"w2_{b}"], p[f"w3_{b}"],
                   ad.logsigmoid)
    if rows is not None:
        x = ad.gather_rows(x, rows)
    return x @ p["w_out"]


def response_logits(model: PolicyModel, seqs: list[TokenSequence],
                    param_tensors: dict | None = None):
    """Logits of the rows that predict the response tokens of ``seqs`` (R x V,
    R their total response length), from one forward pass over the sequences
    packed end to end, and the offsets that cut them per sequence: sequence i
    owns rows offsets[i]:offsets[i + 1].

    The logits are a tensor when ``param_tensors`` is given, else an array,
    and then nothing is recorded on any tape.
    """
    if not seqs:
        raise ValueError("no sequences to score")
    tokens: list[int] = []
    positions: list[int] = []
    rows: list[int] = []
    bounds = [0]
    for seq in seqs:
        ids = seq.prompt_tokens + seq.response_tokens
        start = len(tokens)
        tokens += ids
        positions += range(len(ids))
        rows += range(start + seq.prompt_len - 1, start + len(ids) - 1)
        bounds.append(len(tokens))
    tokens = _check_context(model, tokens, np.diff(bounds).tolist())
    p = model.params if param_tensors is None else param_tensors
    offsets = np.cumsum([0] + [seq.response_len for seq in seqs])
    return _forward(model, p, tokens, positions, bounds, rows), offsets


def packed_logprobs(model: PolicyModel, seqs: list[TokenSequence],
                    param_tensors: dict | None = None):
    """Per-token conditional log-probabilities of the responses of ``seqs``,
    flat, from one packed forward pass, and the offsets of response_logits.

    The log-probs are a differentiable tensor when ``param_tensors`` is
    given, else an array recorded on no tape.
    """
    logits, offsets = response_logits(model, seqs, param_tensors)
    targets = [t for seq in seqs for t in seq.response_tokens]
    return ad.log_softmax_gather(logits, targets), offsets


class _Decoder:
    """The forward pass one token at a time, off the tape, for a stack of rows
    at one shared position: each block keeps the running sum of every row's
    inputs, so a step costs O(rows*(blocks*d^2 + d*V))."""

    def __init__(self, model: PolicyModel, rows: int):
        p = model.params
        self.embed, self.pos, self.w_out = p["embed"], p["pos"], p["w_out"]
        self.blocks = [(p[f"w1_{b}"], p[f"w2_{b}"], p[f"w3_{b}"]) for b in range(model.blocks)]
        self.sums = [np.zeros((rows, model.dim)) for _ in self.blocks]
        self.n = 0

    def step(self, tokens) -> np.ndarray:
        """Logits (rows x V) of the next token of each row after feeding it
        its entry of ``tokens``."""
        x = self.embed.take(tokens, axis=0) + self.pos[self.n]
        self.n += 1
        for s, (w1, w2, w3) in zip(self.sums, self.blocks):
            s += x
            x = _block(x, s / self.n, w1, w2, w3, ad._logsigmoid)
        return x @ self.w_out

    def take(self, rows) -> None:
        """Keep the rows at the indices ``rows``, in that order."""
        self.sums = [s[rows] for s in self.sums]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row (of a vector, or of each row of a matrix)."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def token_logprobs(model: PolicyModel, seq: TokenSequence,
                   tape: Tape | None = None, param_tensors: dict | None = None):
    """Per-token conditional log-probabilities of the response: packed_logprobs
    of the one sequence.

    Returns a numpy array, or a differentiable tensor on ``tape``, the tape of
    the leaves, when ``param_tensors`` is supplied.
    """
    return packed_logprobs(model, [seq], param_tensors)[0]


def sample_token_id(probs: np.ndarray, u):
    """Inverse-CDF draw, one per row of ``probs`` at its uniform in ``u`` (or
    one from a vector at a float): the count of cumulative probabilities at
    most u, which is searchsorted(cumsum, u, side="right"), clipped to the
    vocabulary. The tie/rounding behavior is fixed and portable."""
    below = np.cumsum(probs, axis=-1) <= np.asarray(u)[..., None]
    return np.minimum(below.sum(axis=-1), probs.shape[-1] - 1)


def sample_many(model: PolicyModel, rows, temperature: float,
                max_len: int) -> list[TokenSequence]:
    """Autoregressive sampling of every (prompt tokens, seed) row in lockstep.

    Temperature 0 is argmax with lowest-id ties. Rows are grouped by prompt
    length; each distinct prompt of a group is prefilled once, and one
    decoder step then advances every live row of the group. Row i draws its
    uniforms from the generator of its own seed, in order, so its tokens do
    not depend on the other rows. A row leaves the batch at EOS or after
    min(max_len, context - prompt length) tokens.
    """
    if not 0 <= temperature < np.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rows = [(list(prompt), seed) for prompt, seed in rows]
    _check_context(model, [t for prompt, _ in rows for t in prompt],
                   [len(prompt) for prompt, _ in rows])
    groups: dict[int, list[int]] = {}
    for i, (prompt, _) in enumerate(rows):
        if len(prompt) >= model.context:
            raise ValueError("prompt leaves no room for a response")
        groups.setdefault(len(prompt), []).append(i)
    out: list[TokenSequence] = [None] * len(rows)
    for n, members in groups.items():
        distinct: dict[tuple, int] = {}
        which = [distinct.setdefault(tuple(rows[i][0]), len(distinct)) for i in members]
        decoder = _Decoder(model, len(distinct))
        for column in np.array(list(distinct)).T:
            logits = decoder.step(column)
        decoder.take(which)
        limit = min(max_len, model.context - n)
        uniforms = None
        if temperature > 0.0:   # row i's draws, in order, from its own seed
            uniforms = np.array([rng(rows[i][1]).random(limit) for i in members])
        responses = _decode(decoder, logits[which], temperature, uniforms, limit)
        for i, response in zip(members, responses):
            out[i] = TokenSequence(rows[i][0], response)
    return out


def _decode(decoder: _Decoder, logits: np.ndarray, temperature: float,
            uniforms: np.ndarray | None, limit: int) -> list[list[int]]:
    """The responses of the decoder's rows, from the logits after their
    prompts: the argmax at temperature 0, else row i's t-th token drawn at
    ``uniforms[i, t]``. A step does array operations over the live rows
    only; a row leaves on the step that draws its EOS."""
    responses: list[list[int]] = [[] for _ in logits]
    live = list(range(len(logits)))
    drawn: list[list[int]] = []   # the live rows' tokens since a row last left

    def flush():
        for j, column in zip(live, zip(*drawn)):
            responses[j] += column
        drawn.clear()

    for t in range(limit):
        if t:
            logits = decoder.step(tok)
        if temperature == 0.0:
            tok = logits.argmax(axis=-1)
        else:
            tok = sample_token_id(_softmax(logits / temperature), uniforms[live, t])
        drawn.append(tok.tolist())
        if EOS in drawn[-1]:
            kept = [k for k, x in enumerate(drawn[-1]) if x != EOS]
            flush()
            live = [live[k] for k in kept]
            if not live:
                break
            tok = tok[kept]
            decoder.take(kept)
    flush()
    return responses


def sample(model: PolicyModel, prompt, temperature: float, max_len: int,
           seed: int) -> TokenSequence:
    """Autoregressive sampling of one row: sample_many of [(prompt, seed)]."""
    return sample_many(model, [(prompt, seed)], temperature, max_len)[0]
