"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs closed-loop passes: one caller, every stage waiting for the previous
one. A pass drives decaypo from outside, through ``decaypo.cli.main`` for
each CLI stage and ``decaypo.training.pretrain_nll`` for pretraining, which
has no CLI command. Calls go through module attributes so that a traced pass
sees them. Each pass checks what it wrote and counts every operation and
check into ``Checks``. It marks its timed stages on the harness's stopwatch
and returns the work done in its two rated stages: ((count, stage), (count,
stage)).
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import decaypo.cli
import decaypo.data
import decaypo.model
import decaypo.training
from decaypo.config import seed_substream

DIM, CONTEXT, BLOCKS = 64, 256, 2   # the CLI's default architecture
ALPHABET = b"abcdefgh"              # the alphabet of decaypo's synthetic corpus
PRETRAIN_LR = 1e-2   # converges in 150 steps to a model that mostly emits EOS
PRETRAIN_BATCH = 8
# Pretraining draws its batches with replacement. Its seed is fixed so that
# every workload seed trains on the same mix of lengths; in train the bytes
# still come from the workload seed.
PRETRAIN_SEED = 1


class Checks:
    """Operations and checks attempted in a run, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def cli(checks: Checks, *argv) -> str:
    """Run one decaypo command in-process; returns what it printed."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = decaypo.cli.main(argv)
    checks.expect(code == 0, f"decaypo {' '.join(argv[:2])} exited with {code}: "
                             f"{err.getvalue().strip()}")
    return out.getvalue()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _fresh_model(seed: int) -> decaypo.training.Checkpoint:
    """The model ``decaypo`` builds when given no checkpoint and this seed."""
    model = decaypo.model.PolicyModel(dim=DIM, context=CONTEXT, blocks=BLOCKS,
                                      seed=seed_substream(seed, "init"))
    return decaypo.training.Checkpoint(model=model, step=0, seed=model.seed)


def _read_json(text: str, checks: Checks, what: str) -> dict:
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        checks.expect(False, f"{what} printed no JSON result: {text[-200:]!r}")
        return {}


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


# ---------------------------------------------------------------------------

class TrainWorkload:
    """Preference training and analysis on synthesized pairs; no sampling.

    Nearly all of the time is model forward/backward, autodiff, losses and
    training. The pairs come from the benchmark, so a change to sampling
    cannot change this workload's inputs.
    """

    name = "train"
    units = ("decaypo train optimizer steps/s", "pretrain_nll steps/s")
    n_pairs = 64
    pretrain_steps = 40
    batch_size = PRETRAIN_BATCH   # for pretraining and for decaypo train
    min_len, max_len = 8, 200     # chosen-response lengths in bytes

    def lengths(self) -> list[int]:
        """Chosen-response length of each pair: from min_len toward max_len,
        most of them short. The same for every seed, so that the work per
        pass is too; the seed changes only the bytes."""
        q = (np.arange(self.n_pairs) + 0.5) / self.n_pairs
        ratio = self.max_len / self.min_len
        return [int(round(self.min_len * ratio ** (x * x))) for x in q]

    def setup(self, seed: int, inputs: str) -> None:
        rng = _rng(seed, 0)
        letters = np.frombuffer(ALPHABET, dtype=np.uint8)
        deltas = (0, -3, 2, 5, -1, 9, -6, 1)    # rejected minus chosen length
        prompts: set[bytes] = set()
        records = []
        for i, n in enumerate(self.lengths()):
            prompt = b""
            while not prompt or prompt in prompts:
                prompt = bytes(rng.choice(letters, 4)) + b"?"
            prompts.add(prompt)
            chosen = bytes(rng.choice(letters, n))
            # corrupt a fixed share of positions, each to a different letter
            rejected = bytearray(chosen)
            for pos in rng.choice(n, max(1, round(0.3 * n)), replace=False):
                shift = int(rng.integers(1, len(ALPHABET)))
                rejected[pos] = ALPHABET[(ALPHABET.index(rejected[pos]) + shift) % len(ALPHABET)]
            delta = deltas[i % len(deltas)]
            if delta < 0:
                rejected = rejected[:max(1, n + delta)]
            else:
                rejected += bytes(rng.choice(letters, delta))
            records.append({"id": f"bench-{i}", "prompt": prompt.decode(),
                            "chosen": chosen.decode(), "rejected": rejected.decode(),
                            "meta": {}})
        with open(os.path.join(inputs, "pairs.jsonl"), "w", encoding="utf-8") as f:
            f.writelines(json.dumps(r) + "\n" for r in records)
        decaypo.training.save_checkpoint(_fresh_model(seed), os.path.join(inputs, "init.ckpt"))

    def run_pass(self, seed: int, inputs: str, out: str, checks: Checks, watch):
        pairs = os.path.join(inputs, "pairs.jsonl")
        sft = os.path.join(out, "sft.ckpt")
        policy = os.path.join(out, "policy.ckpt")
        metrics = os.path.join(out, "metrics.jsonl")

        training = decaypo.training
        corpus = {p.prompt: p.chosen for p in decaypo.data.load_pairs(pairs)}
        init = training.load_checkpoint(os.path.join(inputs, "init.ckpt"))
        with watch.stage("pretrain"):
            model = training.pretrain_nll(init.model, corpus, self.pretrain_steps,
                                          PRETRAIN_LR, self.batch_size, PRETRAIN_SEED)
        training.save_checkpoint(training.Checkpoint(model, self.pretrain_steps, init.seed), sft)

        with watch.stage("train"):
            cli(checks, "train", "--pairs", pairs, "--init", sft, "--reference", sft,
                "--batch-size", self.batch_size, "--seed", seed,
                "--out", policy, "--metrics", metrics)

        for command, *flags, csv in (
                ("kl-position", "--policy", policy, "--reference", sft, "kl.csv"),
                ("prob-position", "--model", policy, "prob.csv"),
                ("ref-margin", "--reference", sft, "margin.csv"),
                ("length-bias", "--policy", policy, "--reference", sft, "bias.csv")):
            cli(checks, "analyze", command, *flags, "--pairs", pairs,
                "--out", os.path.join(out, csv))

        losses = [json.loads(line)["loss"] for line in _read_bytes(metrics).splitlines()]
        steps = math.ceil(self.n_pairs / self.batch_size)
        checks.expect(len(losses) == steps, f"train wrote {len(losses)} steps, not {steps}")
        # policy = reference at step 0, so every margin is 0 and the loss is ln 2
        checks.expect(bool(losses) and abs(losses[0] - math.log(2.0)) <= 1e-12,
                      f"first train loss {losses[:1]} is not ln 2")
        return (steps, "train"), (self.pretrain_steps, "pretrain")


class GenerateWorkload:
    """On-policy sampling and oracle scoring; no backward pass.

    Sampling reruns the whole prefix for every token. The pass mixes short
    responses of the supervised model with long greedy ones of the fresh
    init, so the cost that grows with the prefix shows.
    """

    name = "generate"
    units = ("responses sampled/s", "greedy tokens/s of decaypo sample")
    n_prompts = 32                # build-pairs prompts; K samples each
    k = 4
    # The supervised model's answers end within about 50 tokens, but now and
    # then a sample misses EOS and runs to max-len. At 250 such a sample costs as
    # much as a whole greedy one, and the 0 to 2 of them per pass moved the
    # pass time by a fifth from seed to seed. 64 keeps them cheap.
    pairs_max_len = 64
    eval_prompts = 3
    greedy_calls = 2              # decaypo sample calls on the fresh init
    max_len = 250                 # eval and sample
    pretrain_steps = 150
    target_lens = (8, 32)         # corpus target lengths in bytes

    def setup(self, seed: int, inputs: str) -> None:
        training = decaypo.training
        fresh = _fresh_model(seed)
        training.save_checkpoint(fresh, os.path.join(inputs, "fresh.ckpt"))
        # The supervised model is the same for every workload seed. How soon a
        # trained model ends its answers differs from one model to the next
        # (greedy answers of 9 to 31 tokens over ten seeds), and the pass time
        # with it. The workload seed picks the prompts and the sampling noise.
        base = _fresh_model(PRETRAIN_SEED)
        sft = training.pretrain_nll(
            base.model, decaypo.data.synthetic_corpus(
                self.n_prompts, seed_substream(PRETRAIN_SEED, "data"), *self.target_lens),
            self.pretrain_steps, PRETRAIN_LR, PRETRAIN_BATCH, PRETRAIN_SEED)
        training.save_checkpoint(training.Checkpoint(sft, self.pretrain_steps, base.seed),
                                 os.path.join(inputs, "sft.ckpt"))
        # the corpus decaypo's build-pairs and eval rebuild from the same seed
        corpus = decaypo.data.synthetic_corpus(
            self.n_prompts, seed_substream(seed, "data"), *self.target_lens)
        prompts = [p.decode() for p in list(corpus)[:self.greedy_calls]]
        with open(os.path.join(inputs, "prompts.json"), "w", encoding="utf-8") as f:
            json.dump(prompts, f)

    def run_pass(self, seed: int, inputs: str, out: str, checks: Checks, watch):
        fresh = os.path.join(inputs, "fresh.ckpt")
        sft = os.path.join(inputs, "sft.ckpt")
        with open(os.path.join(inputs, "prompts.json"), encoding="utf-8") as f:
            prompts = json.load(f)
        corpus = ("--min-target-len", self.target_lens[0], "--max-target-len", self.target_lens[1])

        built = _read_json(cli(
            checks, "build-pairs", "--model", sft, "--k", self.k, "--temperature", 0.8,
            "--max-len", self.pairs_max_len, "--n-prompts", self.n_prompts, *corpus,
            "--seed", seed, "--out", os.path.join(out, "pairs.jsonl")), checks, "build-pairs")
        checks.expect(built.get("pairs", 0) + built.get("skipped", 0) == self.n_prompts,
                      f"build-pairs accounted for {built} of {self.n_prompts} prompts")

        # Greedy, so the fresh init answers with exactly max-len tokens: sampled
        # at 0.8 its length is geometric (EOS has probability 1/258 per token)
        # and the pass time would swing with the seed.
        result = _read_json(cli(
            checks, "eval", "--candidate", sft, "--baseline", fresh, "--temperature", 0,
            "--max-len", self.max_len, "--n-prompts", self.eval_prompts, *corpus,
            "--seed", seed, "--out", os.path.join(out, "eval.json")), checks, "eval")
        total = sum(result.get(key, 0) for key in ("win", "tie", "lose"))
        checks.expect(total == self.eval_prompts,
                      f"eval scored {total} of {self.eval_prompts} prompts")

        with watch.stage("greedy"):
            for j, prompt in enumerate(prompts):
                path = os.path.join(out, f"sample{j}.txt")
                cli(checks, "sample", "--model", fresh, "--prompt", prompt, "--temperature", 0,
                    "--max-len", self.max_len, "--seed", seed, "--out", path)
                # the fresh head is exactly uniform and ties go to the lowest id
                checks.expect(_read_bytes(path) == b"\0" * self.max_len + b"\n",
                              f"greedy sample {j} of the fresh init is not {self.max_len} zero bytes")
        responses = self.n_prompts * self.k + 2 * self.eval_prompts + len(prompts)
        return (responses, "pass"), (len(prompts) * self.max_len, "greedy")


class MdpWorkload:
    """``decaypo mdp-verify`` at a small and a large shape; no model.

    The small shape is bound by per-call overhead, the large one by array
    arithmetic, so a vectorization that helps one and costs the other shows.
    """

    name = "mdp"
    units = ("mdp-verify rows/s at S4 A3 H8", "mdp-verify rows/s at S64 A16 H64")
    shapes = (("small", 100, 4, 3, 8), ("large", 10, 64, 16, 64))  # seeds, S, A, H

    def setup(self, seed: int, inputs: str) -> None:
        # mdp-verify always draws MDP seeds 0..n-1; the workload seed picks the
        # discounts and the temperature, which leave the work unchanged.
        rng = _rng(seed, 2)
        gammas = sorted(round(float(g), 3) for g in rng.uniform(0.5, 0.99, 4)) + [1.0]
        params = {"gammas": gammas, "beta": round(float(rng.uniform(0.1, 1.0)), 3)}
        with open(os.path.join(inputs, "params.json"), "w", encoding="utf-8") as f:
            json.dump(params, f)

    def run_pass(self, seed: int, inputs: str, out: str, checks: Checks, watch):
        with open(os.path.join(inputs, "params.json"), encoding="utf-8") as f:
            params = json.load(f)
        work = []
        for name, seeds, states, actions, horizon in self.shapes:
            path = os.path.join(out, f"{name}.csv")
            expected = seeds * len(params["gammas"])
            with watch.stage(name):
                report = _read_json(cli(
                    checks, "mdp-verify", "--seeds", seeds,
                    "--gammas", ",".join(map(repr, params["gammas"])), "--beta", params["beta"],
                    "--states", states, "--actions", actions, "--horizon", horizon,
                    "--seed", seed, "--out", path), checks, "mdp-verify")
            work.append((expected, name))
            rows = [line.split(b",") for line in _read_bytes(path).splitlines()[1:]]
            checks.expect(report.get("rows") == expected == len(rows),
                          f"mdp-verify {name}: {report} and {len(rows)} CSV rows, "
                          f"not {expected}")
            checks.expect(report.get("violations") == 0
                          and all(row[-1] == b"1" for row in rows),
                          f"mdp-verify {name} reports bound violations: {report}")
        return tuple(work)


WORKLOADS = {w.name: w for w in (TrainWorkload, GenerateWorkload, MdpWorkload)}
