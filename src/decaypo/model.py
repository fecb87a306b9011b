"""Tiny byte-level autoregressive policy model.

Architecture ("causal-mixer"): token + position embeddings, two residual
blocks that mix each position with the causal running mean of the prefix
through multiplicative gating and a logsigmoid nonlinearity, and a
zero-initialized output projection (so a fresh model is exactly uniform).
The forward pass is built from the autodiff primitive set and costs
O(n*d^2) for n tokens at width d. One forward definition scores any number
of sequences packed end to end (positions and running means restart at each
one, and only the rows that predict a response token reach the output
projection). On the model that ``taped(tape)`` returns it records the tape,
and on plain arrays nothing, for the reference and the analyses. Because the
running mean is a recurrence, sampling is recurrent too: it carries one
running sum per block and spends O(blocks*d^2 + d*V) per token instead of
rerunning the prefix. It runs in lockstep: one decoder step advances a stack
of rows at one position. The decoder runs the same block definition with
np.dot for its products, the bits of ``@`` at less cost per call, and
prefills a prompt without the output head except at its last token.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
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

    def __len__(self) -> int:
        """Prompt and response tokens: the rows the sequence takes in a packed pass."""
        return self.prompt_len + self.response_len

    def fits(self, context: int) -> bool:
        """Whether a model of ``context`` can score the whole sequence."""
        return len(self) <= context


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

    def taped(self, tape) -> "PolicyModel":
        """This model with each parameter a leaf of ``tape``, in param_shapes
        order, sharing its arrays: a pass through it records on the tape."""
        return PolicyModel(self.dim, self.context, self.blocks, self.seed,
                           {n: ad.leaf(tape, self.params[n])
                            for n in param_shapes(self.dim, self.context, self.blocks)})

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
    s = 1.0 / math.sqrt(dim)  # np.sqrt refuses an int beyond int64
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


def _block(x, m, w1, w2, w3, logsigmoid, dot):
    """One residual block on the input ``x`` and its causal running mean
    ``m``, written with operators and the given ``logsigmoid`` and matrix
    product ``dot``, so it serves Tensors and plain arrays."""
    u = logsigmoid(dot(x + m, w1))
    return x + (dot(u, w2) + dot(x * m, w3))


def _forward(model: PolicyModel, tokens, positions, bounds, rows=None):
    """Logits at ``rows`` (every row when None) of ``tokens``: sequences
    packed end to end, the segment ``bounds`` (0, n_1, n_1 + n_2, ...) and
    ``positions`` restarting at each. A taped model's pass gives a tensor,
    a plain one's an array, from the same arithmetic."""
    p = model.params
    x = ad.gather_rows(p["embed"], tokens) + ad.gather_rows(p["pos"], positions)
    for b in range(model.blocks):
        x = _block(x, ad.causal_mean(x, bounds), p[f"w1_{b}"], p[f"w2_{b}"], p[f"w3_{b}"],
                   ad.logsigmoid, operator.matmul)
    if rows is not None:
        x = ad.gather_rows(x, rows)
    return x @ p["w_out"]


def response_logits(model: PolicyModel, seqs: list[TokenSequence]):
    """Logits of the rows that predict the response tokens of ``seqs`` (R x V,
    R their total response length), from one forward pass over the sequences
    packed end to end, and the offsets that cut them per sequence: sequence i
    owns rows offsets[i]:offsets[i + 1]. The logits are a tensor when the
    model is taped, else an array recorded on no tape.
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
    offsets = np.cumsum([0] + [seq.response_len for seq in seqs])
    return _forward(model, tokens, positions, bounds, rows), offsets


def packed_logprobs(model: PolicyModel, seqs: list[TokenSequence]):
    """Per-token conditional log-probabilities of the responses of ``seqs``,
    flat, from one packed forward pass, and the offsets of response_logits:
    a tensor when the model is taped, else an array."""
    logits, offsets = response_logits(model, seqs)
    targets = [t for seq in seqs for t in seq.response_tokens]
    return ad.log_softmax_gather(logits, targets), offsets


class _Decoder:
    """The forward pass one token at a time, off the tape, for a stack of rows
    at one shared position: each block keeps the running sum of every row's
    inputs, so a step costs O(rows*(blocks*d^2 + d*V)). Its products are
    np.dot, which gives the bits of ``@`` with less dispatch per call."""

    def __init__(self, model: PolicyModel, rows: int):
        p = model.params
        self.embed, self.pos, self.w_out = p["embed"], p["pos"], p["w_out"]
        self.blocks = [(p[f"w1_{b}"], p[f"w2_{b}"], p[f"w3_{b}"]) for b in range(model.blocks)]
        self.sums = [np.zeros((rows, model.dim)) for _ in self.blocks]
        self.n = 0

    def feed(self, tokens) -> np.ndarray:
        """Hidden rows (rows x d) after feeding each row its entry of
        ``tokens``: the running sums advance one position, and no row goes
        through the output head."""
        x = self.embed.take(tokens, axis=0) + self.pos[self.n]
        self.n += 1
        for s, (w1, w2, w3) in zip(self.sums, self.blocks):
            s += x
            x = _block(x, s / self.n, w1, w2, w3, ad._logsigmoid, np.dot)
        return x

    def step(self, tokens) -> np.ndarray:
        """Logits (rows x V) of the next token of each row after feeding it
        its entry of ``tokens``."""
        return np.dot(self.feed(tokens), self.w_out)

    def take(self, rows) -> None:
        """Keep the rows at the indices ``rows``, in that order."""
        self.sums = [s[rows] for s in self.sums]


def _softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of each row of logits / temperature. The row maximum comes out
    before the division, so a tiny temperature sends the other logits to
    -inf (an overflow for the caller to silence), never the maximum."""
    e = logits - logits.max(axis=-1, keepdims=True)  # the one fresh array
    e /= temperature
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def token_logprobs(model: PolicyModel, seq: TokenSequence):
    """Per-token conditional log-probabilities of the response: packed_logprobs
    of the one sequence."""
    return packed_logprobs(model, [seq])[0]


def sample_token_id(probs: np.ndarray, u):
    """Inverse-CDF draw, one per row of ``probs`` at its uniform in ``u`` (or
    one from a vector at a float): the count of cumulative probabilities at
    most u, which is searchsorted(cumsum, u, side="right"), clipped to the
    vocabulary. The tie/rounding behavior is fixed and portable."""
    below = np.cumsum(probs, axis=-1) <= np.asarray(u)[..., None]
    return np.minimum(below.sum(axis=-1), probs.shape[-1] - 1)


def sample_many(model: PolicyModel, prompts, temperature: float, max_len: int,
                seed: int, eos_room: bool = False) -> list[TokenSequence]:
    """Autoregressive sampling of every prompt (a token list) in lockstep.

    Temperature 0 is argmax with lowest-id ties; otherwise the call draws
    one block u = rng(seed).random((rows, context - 1)) and row i's t-th
    token is drawn at u[i, t], so a row's tokens depend on the seed, its
    index and the context only. Rows are grouped by prompt length; each row
    of a group is prefilled as a row of its own, through the output head at
    its last prompt token only, and one decoder step then advances every
    live row of the group. A row leaves the batch on the step that draws
    its EOS, or after min(max_len, end - prompt length) tokens, where end
    is the context, or one less with ``eos_room``, which keeps room for the
    EOS that scoring appends to a response that has none. A row that stops
    before that cap draws the same tokens at any cap.
    Logits that overflow to nan, from finite weights, raise ValueError.
    """
    if not 0 <= temperature < np.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    prompts = [list(prompt) for prompt in prompts]
    _check_context(model, [t for prompt in prompts for t in prompt],
                   [len(prompt) for prompt in prompts])
    end = model.context - eos_room
    groups: dict[int, list[int]] = {}
    for i, prompt in enumerate(prompts):
        if len(prompt) >= end:
            raise ValueError("prompt leaves no room for a response"
                             + (" and its EOS" if eos_room else ""))
        groups.setdefault(len(prompt), []).append(i)
    if temperature > 0.0:
        u = rng(seed).random((len(prompts), model.context - 1))
    out: list[TokenSequence] = [None] * len(prompts)
    try:
        with np.errstate(over="ignore", invalid="raise"):  # see _softmax; once, not per token
            for n, members in groups.items():
                decoder = _Decoder(model, len(members))
                *head, tok = np.array([prompts[i] for i in members]).T
                for column in head:  # only the last prompt column needs logits
                    decoder.feed(column)
                limit = min(max_len, end - n)
                if temperature > 0.0:
                    uniforms = u[members, :limit]
                responses: list[list[int]] = [[] for _ in members]
                live = list(range(len(members)))
                drawn: list[list[int]] = []  # live rows' tokens since a row left: one append a step
                for t in range(limit):
                    logits = decoder.step(tok)
                    if temperature == 0.0:
                        tok = logits.argmax(axis=-1)
                    else:
                        tok = sample_token_id(_softmax(logits, temperature), uniforms[live, t])
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
                    out[i] = TokenSequence(prompts[i], response)
    except FloatingPointError:  # finite weights whose logits overflow to inf - inf
        raise ValueError("sampling is not finite: the model's logits overflow") from None
    return out


def sample(model: PolicyModel, prompt, temperature: float, max_len: int,
           seed: int) -> TokenSequence:
    """Autoregressive sampling of one prompt: sample_many of [prompt]."""
    return sample_many(model, [prompt], temperature, max_len, seed)[0]
