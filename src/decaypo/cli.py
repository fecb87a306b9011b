"""Command-line entry point wiring all modules into reproducible runs.

One binary, one dispatch: train, build-pairs, sample, eval,
analyze {kl-position | ref-margin | prob-position | length-bias}, mdp-verify.
Each command declares its options once, as the Option rows of COMMANDS;
read_argv maps argv onto their names, and config.resolve parses and checks
flag and file values alike. Exit codes: 0 success, 1 validation error
(diagnostic names the key/flag), 2 runtime failure, running out of
memory included. All output files are written atomically.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import astuple

import numpy as np

from . import analysis, data, mdp
from .config import (ConfigError, Option, above, at_least, atomic_write, one_of, resolve,
                     seed_substream, write_resolved_snapshot)
from .losses import METHODS, REFERENCE_FREE, LossConfig
from .model import BOS, PolicyModel, make_sequence, sample as sample_tokens
from .schedules import KINDS as SCHEDULE_KINDS, ORIGINS, DecaySchedule
from .training import (Checkpoint, TrainConfig, evaluate_winrate,
                       load_checkpoint, save_checkpoint, score_pairs, train)


# Each option declares its domain once, as ``valid``; config.resolve checks
# flag and file values against it, and --help shows its text. Rules that
# tie two keys together stay in their commands.
SEED_OPT = Option("seed", "int", 0, help="root seed")
# a file a command writes: an empty name would fail only once the run is done
OUTPUT = (bool, "must name a file")

ARCH_OPTS = [
    Option("dim", "int", 64, help="model width", valid=at_least(1)),
    Option("context", "int", 256, help="maximum context length", valid=at_least(1)),
    Option("blocks", "int", 2, help="residual block count", valid=at_least(1)),
]

LOSS_OPTS = [
    Option("method", "str", "d2po", help="loss", valid=one_of(METHODS)),
    Option("beta", "float", 0.1, help="implicit-reward temperature", valid=above(0)),
    Option("schedule", "str", "exponential", help="decay schedule",
           valid=one_of(SCHEDULE_KINDS)),
    Option("gamma", "float", 0.98, help="decay parameter; its range depends on the schedule"),
    Option("origin", "str", "prompt_start", help="decay origin", valid=one_of(ORIGINS)),
    Option("tau", "float", 0.1, help="ipo regularization", valid=above(0)),
    Option("lambda-w", "float", 1.0, help="kto desirable weight"),
    Option("lambda-l", "float", 1.0, help="kto undesirable weight"),
    Option("lambda-orpo", "float", 1.0, help="orpo penalty weight"),
    Option("target-margin", "float", 0.0, help="simpo target margin"),
]

ORACLE_OPTS = [
    Option("brevity-coefficient", "float", 0.0,
           help="length penalty per response byte; nonzero selects the length-penalized oracle"),
    Option("n-prompts", "int", 64, valid=at_least(0)),
    Option("min-target-len", "int", 4, valid=at_least(0)),
    Option("max-target-len", "int", 16, help="not below min-target-len"),
]

SAMPLING_OPTS = [
    Option("temperature", "float", 0.8, valid=at_least(0)),
    Option("max-len", "int", 256, valid=at_least(1)),
    SEED_OPT,
]


def _loss_config(r: dict) -> LossConfig:
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            schedule = DecaySchedule(kind=r["schedule"], gamma=r["gamma"], origin=r["origin"])
    except ValueError as e:  # kind and origin are valid, so gamma does not fit the kind
        raise ConfigError(f"key 'gamma': {e}, got {r['gamma']!r}") from None
    for w in caught:
        print(f"warning: key 'gamma': {w.message}, got {r['gamma']!r}", file=sys.stderr)
    return LossConfig(
        method=r["method"], beta=r["beta"], schedule=schedule,
        tau=r["tau"], lambda_w=r["lambda-w"], lambda_l=r["lambda-l"],
        lambda_orpo=r["lambda-orpo"], target_margin=r["target-margin"],
        sampo_seed=seed_substream(r["seed"], "sampo"))


def _model_from(r: dict, key: str) -> Checkpoint:
    """The checkpoint r[key], its architecture written into r, or a fresh model."""
    if r.get(key):
        ckpt = load_checkpoint(r[key])
        r.update(dim=ckpt.model.dim, context=ckpt.model.context, blocks=ckpt.model.blocks)
        return ckpt
    model = PolicyModel(dim=r["dim"], context=r["context"], blocks=r["blocks"],
                        seed=seed_substream(r["seed"], "init"))
    return Checkpoint(model=model, step=0, seed=model.seed)


def _oracle_from(r: dict):
    if r["max-target-len"] < r["min-target-len"]:
        raise ConfigError(f"key 'max-target-len': must be >= min-target-len "
                          f"{r['min-target-len']}, got {r['max-target-len']}")
    corpus = data.synthetic_corpus(
        r["n-prompts"], seed_substream(r["seed"], "data"),
        r["min-target-len"], r["max-target-len"])
    kind = "length_penalized_match" if r["brevity-coefficient"] else "target_match"
    oracle = data.RewardOracle(kind=kind, targets=corpus,
                               brevity_coefficient=r["brevity-coefficient"])
    return corpus, oracle


# ---------------------------------------------------------------------------
# command runners

def _cmd_train(r: dict) -> None:
    loss_cfg = _loss_config(r)
    cfg = TrainConfig(loss=loss_cfg, lr_multiplier=r["lr-multiplier"],
                      batch_size=r["batch-size"], epochs=r["epochs"],
                      max_steps=r["max-steps"], seed=r["seed"])
    init = _model_from(r, "init")
    # train copies init, so a reference that is init's file, or none, is init itself
    same = r.get("reference") in (None, "", r.get("init"))
    reference = (None if loss_cfg.method in REFERENCE_FREE
                 else init if same else load_checkpoint(r["reference"]))
    pairs = _pairs_that_fit(r, init.model, reference and reference.model)
    ckpt, metrics = train(cfg, pairs, init, reference)
    atomic_write(r["metrics"], "".join(json.dumps(m) + "\n" for m in metrics))
    atomic_write(r["out"], lambda p: save_checkpoint(ckpt, p))


def _cmd_build_pairs(r: dict) -> None:
    corpus, oracle = _oracle_from(r)
    ckpt = _model_from(r, "model")
    pairs, skipped = data.build_onpolicy_pairs(
        ckpt.model, oracle, list(corpus), K=r["k"], temperature=r["temperature"],
        seed=seed_substream(r["seed"], "sampling"), max_len=r["max-len"])
    atomic_write(r["out"], lambda p: data.save_pairs(pairs, p))
    print(json.dumps({"pairs": len(pairs), "skipped": skipped}))


def _cmd_sample(r: dict) -> None:
    ckpt = load_checkpoint(r["model"])
    prompt = [BOS] + list(r["prompt"].encode("utf-8"))
    seq = sample_tokens(ckpt.model, prompt, r["temperature"], r["max-len"],
                        seed_substream(r["seed"], "sampling"))
    text = data.response_bytes(seq).decode("utf-8", errors="replace")
    if r.get("out"):
        atomic_write(r["out"], text + "\n")
    print(text)


def _cmd_eval(r: dict) -> None:
    _, oracle = _oracle_from(r)
    candidate = load_checkpoint(r["candidate"])
    baseline = load_checkpoint(r["baseline"])
    win, tie, lose = evaluate_winrate(
        candidate, baseline, oracle, list(oracle.targets), r["temperature"],
        seed_substream(r["seed"], "eval"), max_len=r["max-len"])
    total = win + tie + lose
    result = {"win": win, "tie": tie, "lose": lose,
              "winrate": (win + tie / 2.0) / total if total else 0.0}
    if r.get("out"):
        atomic_write(r["out"], json.dumps(result) + "\n")
    print(json.dumps(result))


def _pairs_that_fit(r: dict, policy: PolicyModel, reference: PolicyModel | None = None) -> list:
    """The pairs of the file r["pairs"] that fit the context of ``policy`` and
    of ``reference`` if any, in order; warns once of the pairs it drops,
    naming the file r["reference"] when the reference's context binds."""
    context = min(policy.context, (reference or policy).context)
    pairs = data.load_pairs(r["pairs"])
    kept = [p for p in pairs
            if all(make_sequence(p.prompt, y).fits(context) for y in (p.chosen, p.rejected))]
    if len(kept) < len(pairs):
        binds = "" if context == policy.context else (
            f": reference {r['reference']} has context {context}, the policy {policy.context}")
        print(f"warning: skipped {len(pairs) - len(kept)} context-overflow examples{binds}",
              file=sys.stderr)
    return kept


def _pair_rows(item) -> int:
    """The rows a (pair, example id) item's two sequences take in a packed pass."""
    pair, _ = item
    return sum(len(make_sequence(pair.prompt, y)) for y in (pair.chosen, pair.rejected))


def _scored_pairs(policy: PolicyModel, reference: PolicyModel | None, pairs) -> list:
    """The PairScores of ``pairs`` from score_pairs over packs of at most
    analysis.ROWS rows, with their indices in ``pairs`` as example ids."""
    return list(analysis._packs(functools.partial(score_pairs, policy, reference),
                                [(p, i) for i, p in enumerate(pairs)], _pair_rows))


def _cmd_kl_position(r: dict) -> None:
    policy = load_checkpoint(r["policy"]).model
    reference = load_checkpoint(r["reference"]).model
    seqs = [make_sequence(p.prompt, p.chosen) for p in _pairs_that_fit(r, policy, reference)]
    curve = analysis.kl_per_position(policy, reference, seqs, r["max-pos"])
    atomic_write(r["out"], lambda p: analysis.write_curve_csv(p, curve))


def _cmd_prob_position(r: dict) -> None:
    model = load_checkpoint(r["model"]).model
    seqs = [make_sequence(p.prompt, p.chosen) for p in _pairs_that_fit(r, model)]
    curve = analysis.prob_per_position(model, seqs, r["max-pos"])
    atomic_write(r["out"], lambda p: analysis.write_curve_csv(p, curve))


def _cmd_ref_margin(r: dict) -> None:
    reference = load_checkpoint(r["reference"]).model
    scores = _scored_pairs(reference, None, _pairs_that_fit(r, reference))
    hist = analysis.ref_margin_density(scores, r["bins"])
    atomic_write(r["out"], lambda p: analysis.write_histogram_csv(p, hist))


def _cmd_length_bias(r: dict) -> None:
    cfg = _loss_config(r)
    if cfg.method not in REFERENCE_FREE and not r.get("reference"):
        raise ConfigError(f"method {cfg.method!r} needs a reference: pass --reference")
    policy = load_checkpoint(r["policy"]).model
    reference = None if cfg.method in REFERENCE_FREE else load_checkpoint(r["reference"]).model
    pairs = _pairs_that_fit(r, policy, reference)
    with np.errstate(all="ignore"):  # a loss that is not finite raises, as in train
        scores = _scored_pairs(policy, reference, pairs)
        rows = analysis.loss_by_length_gap(cfg, scores, r["gap-bins"])
    atomic_write(r["out"], lambda p: analysis.write_csv(
        p, ("gap_lo", "gap_hi", "mean_loss", "count"),
        [astuple(row) for row in rows]))


def _cmd_mdp_verify(r: dict) -> None:
    shape = (r["states"], r["actions"], r["horizon"])
    gammas = r["gammas"]
    # MDP i is drawn from seed i; a stack holds as many as fit the budget
    per_stack = max(1, mdp.STACK_ELEMENTS // ((1 + len(gammas)) * math.prod(shape)))
    rows = []
    violations = 0
    for first in range(0, r["seeds"], per_stack):
        seeds = range(first, min(first + per_stack, r["seeds"]))
        stack = mdp.random_stack(*shape, r["reward-bound"], seeds)
        reports = mdp.verify_bounds(stack, mdp.uniform_policy(stack), r["beta"], gammas)
        holds = (reports[..., 3] <= reports[..., 6] + 1e-9).astype(int)  # subopt <= bound_total
        violations += holds.size - int(holds.sum())
        rows += [(seed, gamma, *fields, hold)
                 for seed, stack_rows, stack_holds in zip(seeds, reports.tolist(), holds.tolist())
                 for gamma, fields, hold in zip(gammas, stack_rows, stack_holds)]
    atomic_write(r["out"], lambda p: analysis.write_csv(
        p, ("seed", "gamma", "delta1", "delta2", "delta3", "subopt", "term1", "term2",
            "bound", "tv", "holds"), rows))
    print(json.dumps({"rows": r["seeds"] * len(gammas),
                      "violations": violations}))


COMMANDS = {
    "train": (
        LOSS_OPTS + ARCH_OPTS + [
            Option("pairs", "str", required=True, help="preference pairs JSONL"),
            Option("init", "str", help="initial checkpoint (fresh model if absent)"),
            Option("reference", "str",
                   help="reference checkpoint (defaults to init); a reference-free method "
                        "opens none"),
            Option("out", "str", "model.ckpt", valid=OUTPUT),
            Option("metrics", "str", "metrics.jsonl", valid=OUTPUT),
            Option("lr-multiplier", "float", 1e3, valid=above(0)),
            Option("batch-size", "int", 32, valid=at_least(1)),
            Option("epochs", "int", 1, valid=at_least(0)),
            Option("max-steps", "int", valid=at_least(0)),
            SEED_OPT,
        ], _cmd_train),
    "build-pairs": (
        ARCH_OPTS + ORACLE_OPTS + SAMPLING_OPTS + [
            Option("model", "str", help="sampling checkpoint (fresh model if absent)"),
            Option("out", "str", "pairs.jsonl", valid=OUTPUT),
            Option("k", "int", 5, help="samples per prompt", valid=at_least(2)),
        ], _cmd_build_pairs),
    "sample": (
        SAMPLING_OPTS + [
            Option("model", "str", required=True),
            Option("prompt", "str", required=True),
            Option("out", "str", valid=OUTPUT),
        ], _cmd_sample),
    "eval": (
        ORACLE_OPTS + SAMPLING_OPTS + [
            Option("candidate", "str", required=True),
            Option("baseline", "str", required=True),
            Option("out", "str", valid=OUTPUT),
        ], _cmd_eval),
    "analyze-kl-position": (
        [
            Option("policy", "str", required=True),
            Option("reference", "str", required=True),
            Option("pairs", "str", required=True),
            Option("max-pos", "int", 64, valid=at_least(0)),
            Option("out", "str", "kl_position.csv", valid=OUTPUT),
        ], _cmd_kl_position),
    "analyze-prob-position": (
        [
            Option("model", "str", required=True),
            Option("pairs", "str", required=True),
            Option("max-pos", "int", 64, valid=at_least(0)),
            Option("out", "str", "prob_position.csv", valid=OUTPUT),
        ], _cmd_prob_position),
    "analyze-ref-margin": (
        [
            Option("reference", "str", required=True),
            Option("pairs", "str", required=True),
            Option("bins", "int", 20, valid=at_least(2)),
            Option("out", "str", "ref_margin.csv", valid=OUTPUT),
        ], _cmd_ref_margin),
    "analyze-length-bias": (
        LOSS_OPTS + [
            Option("policy", "str", required=True),
            Option("reference", "str", help="needed by every method that is not reference-free"),
            Option("pairs", "str", required=True),
            Option("gap-bins", "ints", [-64, -16, -4, 0, 4, 16, 64],
                   valid=(lambda v: len(v) >= 2 and v == sorted(v),
                          "must be two or more sorted values")),
            Option("out", "str", "length_bias.csv", valid=OUTPUT),
            SEED_OPT,
        ], _cmd_length_bias),
    "mdp-verify": (
        [
            Option("seeds", "int", 100, valid=at_least(0)),
            Option("gammas", "floats", [0.5, 0.9, 0.95, 0.98, 1.0],
                   valid=(lambda v: v and all(0 < g <= 1 for g in v),
                          "one or more values, each in (0, 1]")),
            Option("states", "int", 4, valid=at_least(1)),
            Option("actions", "int", 3, valid=at_least(1)),
            Option("horizon", "int", 8, valid=at_least(1)),
            Option("reward-bound", "float", 1.0, valid=above(0)),
            Option("beta", "float", 0.3, valid=above(0)),
            Option("out", "str", "mdp_verify.csv", valid=OUTPUT),
            SEED_OPT,  # unread: MDP i is drawn from seed i; benchmarks/workloads.py passes it
        ], _cmd_mdp_verify),
}

HELP = ("-h", "--help")


def read_argv(argv) -> tuple[str | None, dict | None]:
    """The COMMANDS key that ``argv`` names and its flags as {name: text}.

    A flag is ``--key value`` or ``--key=value``; the value may start with
    "-", and the last occurrence of a key wins. config.resolve rejects an
    unknown name. The flags are None for -h or --help, and the key too
    before a command is named. Anything else raises ConfigError naming the word.
    """
    words = iter(argv)
    command = next(words, None)
    if command == "analyze":
        analysis = next(words, None)
        if analysis in HELP:
            return None, None
        known = ", ".join(c.removeprefix("analyze-") for c in COMMANDS if c.startswith("analyze-"))
        if f"analyze-{analysis}" not in COMMANDS:
            raise ConfigError(f"analyze needs an analysis: one of {known}" if analysis is None
                              else f"unknown analysis {analysis!r}: one of {known}")
        command = f"analyze-{analysis}"
    elif command in HELP:
        return None, None
    elif command not in COMMANDS or command.startswith("analyze-"):
        known = ", ".join(dict.fromkeys("analyze" if c.startswith("analyze-") else c
                                        for c in COMMANDS))
        raise ConfigError(f"missing command: one of {known}" if command is None
                          else f"unknown command {command!r}: one of {known}")
    flags = {}
    for word in words:
        if word in HELP:
            return command, None
        key, glued, value = word[2:].partition("=")
        if not word.startswith("--") or not key:
            raise ConfigError(f"unexpected word {word!r}")
        if not glued:
            value = next(words, None)
            if value is None:
                raise ConfigError(f"flag {word} needs a value")
        flags[key] = value
    return command, flags


def help_text(command: str | None) -> str:
    """The commands, or each option of ``command`` with its help and domain."""
    if command is None:
        return "usage: decaypo <command> [--key value ...]\n\ncommands:\n" + "\n".join(
            "  " + c.replace("analyze-", "analyze ") for c in COMMANDS)
    rows = [("config", "configuration file (flags override file values)")] + [
        (o.name, "; ".join(filter(None, (o.help, o.valid and o.valid[1]))))
        for o in COMMANDS[command][0]]
    return (f"usage: decaypo {command.replace('analyze-', 'analyze ')} [--key value ...]\n\n"
            "options:\n" + "\n".join(f"  --{name:<20} {text}".rstrip() for name, text in rows))


def _check_outputs(outputs) -> None:
    """Reject, naming the key, a (key, path) output that is not a file in an
    existing directory, or is an earlier output's file: before the run."""
    seen = {}
    for key, path in outputs:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"key {key!r}: {path} is not a file in an existing directory")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"key {key!r}: {path} is also the output of key {seen[real]!r}")
        seen[real] = key


def run_command(argv) -> int:
    command, flags = read_argv(argv)
    if flags is None:
        print(help_text(command))
        return 0
    options, runner = COMMANDS[command]
    config = flags.pop("config", None)
    resolved = resolve(command, options, flags, config, COMMANDS)
    snapshot = resolved.get("out") and f"{resolved['out']}.resolved.cfg"
    outputs = [(o.name, resolved[o.name]) for o in options if o.valid is OUTPUT]
    _check_outputs([(key, path) for key, path in [*outputs, ("out", snapshot)] if path])
    runner(resolved)
    if snapshot:
        write_resolved_snapshot(snapshot, command, resolved)
    return 0


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_heap() -> None:
    """Keep a training step's freed memory in the heap for the next step.

    glibc by default maps large arrays afresh and trims the free heap top
    back to the OS, so every step faulted its tape's arrays back in. Arrays
    up to 32 MiB now come from the heap, and up to 256 MiB of it stays free
    but mapped. The trim threshold alone would pin the mmap threshold at
    128 KiB, so it is set only once the mmap threshold is. Without glibc's
    mallopt, or where it refuses a value, nothing changes; no number moves
    either way. Called from main, not on import, to leave a host process's
    allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, 32 << 20):
        mallopt(M_TRIM_THRESHOLD, 256 << 20)


@functools.cache
def _one_blas_thread() -> None:
    """Hold numpy's bundled OpenBLAS to one thread, so that no output
    depends on the core count: a product split over threads adds in another
    order. The setter is looked up through numpy's own extension module,
    which links the library under numpy.libs/. Where numpy has no such
    library, or it lacks the symbol, nothing changes and nothing is printed.
    Called from main, not on import, to leave a host process's pool alone.
    """
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__) \
            .scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(1)


def main(argv=None) -> int:
    _keep_heap()
    _one_blas_thread()
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run_command(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, MemoryError) as e:
        print(f"runtime error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
