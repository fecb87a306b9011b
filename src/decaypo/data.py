"""Preference-pair data: JSONL persistence, the synthetic task corpus, the
toy reward oracle, and the on-policy pair construction pipeline."""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field

import numpy as np

from .config import rng
from .model import BOS, PolicyModel, TokenSequence, sample_many


class PairError(ValueError):
    """A pairs record that does not parse or breaks a PreferencePair
    invariant; ``line_no`` is its line when it was read from a file."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class PreferencePair:
    id: str
    prompt: bytes
    chosen: bytes
    rejected: bytes
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ident = f" (id={self.id!r})" if self.id else ""
        if not self.prompt:
            raise PairError(f"prompt must be nonempty{ident}")
        if self.chosen == self.rejected:
            raise PairError(f"chosen and rejected must differ{ident}")


def _encode_bytes(data: bytes) -> str:
    try:
        text = data.decode("utf-8")
        if not text.startswith("b64:"):
            return text
    except UnicodeDecodeError:
        pass
    return "b64:" + base64.b64encode(data).decode("ascii")


def _decode_bytes(text: str) -> bytes:
    if text.startswith("b64:"):
        return base64.b64decode(text[4:], validate=True)
    return text.encode("utf-8")


def save_pairs(pairs, path) -> None:
    lines = [json.dumps({"id": p.id, "prompt": _encode_bytes(p.prompt),
                         "chosen": _encode_bytes(p.chosen),
                         "rejected": _encode_bytes(p.rejected), "meta": p.meta},
                        ensure_ascii=False) + "\n" for p in pairs]
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def load_pairs(path) -> list[PreferencePair]:
    pairs = []
    # Each line is decoded on its own, so that one that is not UTF-8 is named;
    # bytes.splitlines breaks at \n, \r\n and \r, as text mode does.
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise PairError(f"not UTF-8: {e}", line_no) from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as e:  # also too deep, or too many digits
                raise PairError(str(e), line_no) from e
            if not isinstance(record, dict):
                raise PairError("record is not a JSON object", line_no)
            missing = {"id", "prompt", "chosen", "rejected"} - record.keys()
            if missing:
                raise PairError(f"missing keys {sorted(missing)}", line_no)
            texts = {}
            for key in ("prompt", "chosen", "rejected"):
                if not isinstance(record[key], str):
                    raise PairError(f"key {key!r} is not a string", line_no)
                try:
                    texts[key] = _decode_bytes(record[key])
                except binascii.Error as e:
                    raise PairError(f"key {key!r}: bad base64: {e}", line_no) from None
                except ValueError as e:  # non-ASCII base64 text, or a lone surrogate
                    raise PairError(f"key {key!r}: {e}", line_no) from None
            try:
                pairs.append(PreferencePair(id=str(record["id"]), **texts,
                                            meta=record.get("meta", {})))
            except PairError as e:
                raise PairError(str(e), line_no) from e
    return pairs


def edit_distance(a: bytes, b: bytes) -> int:
    """Levenshtein distance, bit-parallel (Myers, J. ACM 1999, in the
    Levenshtein form of Hyyro 2003). The longer string runs down the rows of
    the DP table: in the current column j, bit i of pv (mv) is set when cell
    (i + 1, j) is one more (less) than cell (i, j). Each byte of the shorter
    string advances the column by a few operations on Python ints as wide as
    the longer string, and the last row's value is tracked in ``score``."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[int, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(a)) - 1
    top = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return score


ORACLE_KINDS = ("target_match", "length_penalized_match")


@dataclass
class RewardOracle:
    """Deterministic stand-in for an external reward model.

    target_match scores a response by negated edit distance to the prompt's
    target answer; length_penalized_match additionally subtracts
    brevity_coefficient * len(response). A negative brevity coefficient
    rewards length, which makes verbosity-biased corpora constructible.
    """

    kind: str = "target_match"
    targets: dict = field(default_factory=dict)
    brevity_coefficient: float = 0.0

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")


class UnknownPromptError(KeyError):
    pass


def oracle_score(oracle: RewardOracle, prompt: bytes, response: bytes) -> float:
    try:
        target = oracle.targets[bytes(prompt)]
    except KeyError:
        raise UnknownPromptError(f"no target for prompt {prompt!r}") from None
    score = -float(edit_distance(response, target))
    if oracle.kind == "length_penalized_match":
        score -= oracle.brevity_coefficient * len(response)
    return score


ALPHABET = b"abcdefgh"   # the bytes of every synthetic prompt and target


def synthetic_corpus(n_prompts: int, seed: int, min_target_len: int = 4,
                     max_target_len: int = 16) -> dict:
    """Prompt -> target-answer lookup with controlled target lengths."""
    distinct = len(ALPHABET) ** 4
    if n_prompts > distinct:
        raise ValueError(f"n_prompts {n_prompts} exceeds the {distinct} distinct "
                         "4-letter prompts over the alphabet")
    draw = rng(seed, 11)
    corpus = {}
    while len(corpus) < n_prompts:
        prompt = bytes(ALPHABET[i] for i in draw.integers(0, len(ALPHABET), size=4)) + b"?"
        if prompt in corpus:
            continue
        tlen = int(draw.integers(min_target_len, max_target_len + 1))
        corpus[prompt] = bytes(ALPHABET[i] for i in draw.integers(0, len(ALPHABET), size=tlen))
    return corpus


def response_bytes(seq: TokenSequence) -> bytes:
    """Response as raw bytes; special tokens have no byte rendering and
    are dropped (EOS terminates sampling, but a fresh near-uniform model
    can emit BOS mid-response)."""
    return bytes(t for t in seq.response_tokens if 0 <= t < 256)


def sample_and_score(model: PolicyModel, oracle: RewardOracle, prompts,
                     temperature: float, max_len: int, seed: int,
                     eos_room: bool = False) -> tuple[list[bytes], list[float]]:
    """A sampled response to each of ``prompts`` and the oracle scores: the
    on-policy step that building pairs and evaluating a win rate share.
    Every row is sampled in one lockstep call of model.sample_many, which
    reads ``seed`` and ``eos_room``: response i is drawn at row i of the
    call's one block of uniforms."""
    prompts = [bytes(p) for p in prompts]
    responses = [response_bytes(seq) for seq in sample_many(
        model, [[BOS] + list(p) for p in prompts], temperature, max_len, seed, eos_room)]
    return responses, [oracle_score(oracle, p, r) for p, r in zip(prompts, responses)]


def build_onpolicy_pairs(model: PolicyModel, oracle: RewardOracle, prompts,
                         K: int = 5, temperature: float = 0.8, seed: int = 0,
                         max_len: int = 256):
    """Sample K responses per prompt and pair the best against the worst.

    Returns (pairs, skipped) where skipped counts prompts whose K samples
    all tied at one score. A response stops one token short of the context,
    so that it fits with the EOS that scoring appends. All prompts x K
    samples run as one lockstep sample_and_score call of ``seed``, in which
    row i*K + k is prompt i's k-th sample. So every sampled token depends
    on the seed and its row only, not on the other rows; only the logits
    may move by a few ulps with the make-up of the batch (a matrix product
    rounds differently from a vector one).
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    prompts = [bytes(p) for p in prompts]
    sampled, scored = sample_and_score(
        model, oracle, [p for p in prompts for _ in range(K)], temperature, max_len, seed,
        eos_room=True)
    pairs = []
    skipped = 0
    for i, prompt in enumerate(prompts):
        responses, scores = sampled[i * K:(i + 1) * K], scored[i * K:(i + 1) * K]
        if not np.all(np.isfinite(scores)):
            raise ValueError(f"non-finite oracle score {scores} for prompt {prompt!r}")
        best = int(np.argmax(scores))   # earliest index wins ties
        worst = int(np.argmin(scores))
        if scores[best] == scores[worst]:
            skipped += 1
            continue
        pairs.append(PreferencePair(
            id=f"onpolicy-{i}",
            prompt=prompt,
            chosen=responses[best],
            rejected=responses[worst],
            meta={"chosen_score": scores[best], "rejected_score": scores[worst],
                  "chosen_len": len(responses[best]), "rejected_len": len(responses[worst])},
        ))
    return pairs, skipped
