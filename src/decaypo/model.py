"""Tiny byte-level autoregressive policy model.

Architecture ("causal-mixer"): token + position embeddings, two residual
blocks that mix each position with the causal running mean of the prefix
through multiplicative gating and a logsigmoid nonlinearity, and a
zero-initialized output projection (so a fresh model is exactly uniform).
The forward pass is built from the autodiff primitive set and costs
O(n*d^2) for n tokens at width d. Because the running mean is a recurrence,
sampling is recurrent too: it carries one running sum per block and spends
O(blocks*d^2 + d*V) per token instead of rerunning the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

VOCAB_SIZE = 258
BOS = 256
EOS = 257


class Vocabulary:
    """Byte vocabulary: 256 byte values plus BOS (256) and EOS (257)."""

    size = VOCAB_SIZE
    bos = BOS
    eos = EOS

    @staticmethod
    def encode(data: bytes) -> list[int]:
        return list(data)

    @staticmethod
    def decode(tokens) -> bytes:
        out = bytearray()
        for t in tokens:
            if not 0 <= t < 256:
                raise ValueError(f"token {t} is not a byte value")
            out.append(t)
        return bytes(out)


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
    return TokenSequence([BOS] + Vocabulary.encode(prompt), Vocabulary.encode(response) + [EOS])


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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    s = 1.0 / np.sqrt(dim)
    # Zero output head: a fresh model is exactly uniform over the vocabulary.
    return {name: np.zeros(shape) if name == "w_out" else rng.normal(0.0, s, size=shape)
            for name, shape in param_shapes(dim, context, blocks).items()}


def _check_context(model: PolicyModel, tokens: list) -> None:
    if not tokens:
        raise ValueError("empty context")
    if len(tokens) > model.context:
        raise ValueError(f"context of length {len(tokens)} exceeds limit {model.context}")
    if any(not 0 <= t < VOCAB_SIZE for t in tokens):
        raise ValueError("token id out of vocabulary range")


def _block(x, m, w1, w2, w3, logsigmoid):
    """One residual block on the input ``x`` and its causal running mean
    ``m``; written with operators so it serves Tensors and plain arrays."""
    u = logsigmoid((x + m) @ w1)
    return x + (u @ w2 + (x * m) @ w3)


def forward_logits(model: PolicyModel, tokens, tape: Tape | None = None,
                   param_tensors: dict | None = None) -> Tensor:
    """Logits for every position of ``tokens`` (n x V).

    When ``param_tensors`` is given (leaf tensors on ``tape``) the result is
    differentiable with respect to the parameters.
    """
    tokens = list(tokens)
    _check_context(model, tokens)
    if tape is None:
        tape = Tape()
    if param_tensors is None:
        param_tensors = {k: ad.constant(tape, v) for k, v in model.params.items()}
    p = param_tensors

    x = ad.gather_rows(p["embed"], tokens) + ad.gather_rows(p["pos"], np.arange(len(tokens)))
    for b in range(model.blocks):
        x = _block(x, ad.causal_mean(x), p[f"w1_{b}"], p[f"w2_{b}"], p[f"w3_{b}"],
                   ad.logsigmoid)
    return x @ p["w_out"]


class _Decoder:
    """forward_logits one token at a time, off the tape: each block keeps
    the running sum of its inputs, so a step costs O(blocks*d^2 + d*V)."""

    def __init__(self, model: PolicyModel):
        p = model.params
        self.embed, self.pos, self.w_out = p["embed"], p["pos"], p["w_out"]
        self.blocks = [(p[f"w1_{b}"], p[f"w2_{b}"], p[f"w3_{b}"]) for b in range(model.blocks)]
        self.sums = np.zeros((model.blocks, model.dim))
        self.n = 0

    def step(self, token: int) -> np.ndarray:
        """Logits of the next token after feeding ``token``."""
        x = self.embed[token] + self.pos[self.n]
        self.n += 1
        for s, (w1, w2, w3) in zip(self.sums, self.blocks):
            s += x
            x = _block(x, s / self.n, w1, w2, w3, ad._logsigmoid)
        return x @ self.w_out


def _softmax(row: np.ndarray) -> np.ndarray:
    z = row - np.max(row)
    e = np.exp(z)
    return e / np.sum(e)


def next_token_distribution(model: PolicyModel, context) -> np.ndarray:
    """Probability distribution over the next token given ``context``."""
    logits = forward_logits(model, context).value
    return _softmax(logits[-1])


def token_logprobs(model: PolicyModel, seq: TokenSequence,
                   tape: Tape | None = None, param_tensors: dict | None = None):
    """Per-token conditional log-probabilities of the response.

    Returns a numpy array, or a differentiable tensor when ``param_tensors``
    is supplied.
    """
    tokens = seq.prompt_tokens + seq.response_tokens
    l, T = seq.prompt_len, seq.response_len
    differentiable = param_tensors is not None
    logits = forward_logits(model, tokens, tape=tape, param_tensors=param_tensors)
    rows = ad.gather_rows(logits, np.arange(l - 1, l + T - 1))
    out = ad.log_softmax_gather(rows, seq.response_tokens)
    return out if differentiable else out.value


def sample_token_id(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF draw; the tie/rounding behavior is fixed and portable."""
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, probs.shape[0] - 1))


def sample(model: PolicyModel, prompt, temperature: float, max_len: int,
           seed: int) -> TokenSequence:
    """Autoregressive sampling; temperature 0 is argmax with lowest-id ties."""
    if not 0 <= temperature < np.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    prompt = list(prompt)
    _check_context(model, prompt)
    limit = min(max_len, model.context - len(prompt))
    if limit < 1:
        raise ValueError("prompt leaves no room for a response")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed) & (2**63 - 1))))
    decoder = _Decoder(model)
    for tok in prompt:
        logits = decoder.step(tok)
    response: list[int] = []
    for _ in range(limit):
        if temperature == 0.0:
            tok = int(np.argmax(logits))
        else:
            tok = sample_token_id(_softmax(logits / temperature), rng.random())
        response.append(tok)
        if tok == EOS:
            break
        logits = decoder.step(tok)
    return TokenSequence(prompt, response)
