"""Command-line entry point wiring all modules into reproducible runs.

One binary, one dispatch: train, build-pairs, sample, eval,
analyze {kl-position | ref-margin | prob-position | length-bias}, mdp-verify.
Exit codes: 0 success, 1 validation error (diagnostic names the key/flag),
2 runtime failure. All output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import astuple

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
    Option("oracle-kind", "str", "target_match", valid=one_of(data.ORACLE_KINDS)),
    Option("brevity-coefficient", "float", 0.0),
    Option("n-prompts", "int", 64, valid=at_least(0)),
    Option("min-target-len", "int", 4, valid=at_least(0)),
    Option("max-target-len", "int", 16, help="not below min-target-len"),
]

SAMPLING_OPTS = [
    Option("temperature", "float", 0.8, valid=at_least(0)),
    Option("max-len", "int", 256, valid=at_least(1)),
    SEED_OPT,
]


def _loss_config(r: dict, root_seed: int) -> LossConfig:
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
        sampo_seed=seed_substream(root_seed, "sampo"))


def _model_from(r: dict, key: str, root_seed: int) -> Checkpoint:
    if r.get(key):
        return load_checkpoint(r[key])
    model = PolicyModel(dim=r["dim"], context=r["context"], blocks=r["blocks"],
                        seed=seed_substream(root_seed, "init"))
    return Checkpoint(model=model, step=0, seed=model.seed)


def _oracle_from(r: dict):
    if r["max-target-len"] < r["min-target-len"]:
        raise ConfigError(f"key 'max-target-len': must be >= min-target-len "
                          f"{r['min-target-len']}, got {r['max-target-len']}")
    corpus = data.synthetic_corpus(
        r["n-prompts"], seed_substream(r["seed"], "data"),
        r["min-target-len"], r["max-target-len"])
    oracle = data.RewardOracle(kind=r["oracle-kind"], targets=corpus,
                               brevity_coefficient=r["brevity-coefficient"])
    return corpus, oracle


# ---------------------------------------------------------------------------
# command runners

def _cmd_train(r: dict) -> int:
    loss_cfg = _loss_config(r, r["seed"])
    pairs = data.load_pairs(r["pairs"])
    cfg = TrainConfig(loss=loss_cfg, base_lr=r["base-lr"],
                      lr_multiplier=r["lr-multiplier"], batch_size=r["batch-size"],
                      warmup_fraction=r["warmup-fraction"], epochs=r["epochs"],
                      max_steps=r["max-steps"], seed=r["seed"],
                      max_response_len=r["max-response-len"],
                      weight_decay=r["weight-decay"], grad_clip=r["grad-clip"])
    init = _model_from(r, "init", r["seed"])
    reference = load_checkpoint(r["reference"]) if r.get("reference") else \
        Checkpoint(init.model.copy(), init.step, init.seed)
    ckpt, metrics = train(cfg, pairs, init, reference)
    skipped = sum(m.get("skipped", 0) for m in metrics)
    if skipped:
        print(f"warning: skipped {skipped} context-overflow examples", file=sys.stderr)
    lines = [json.dumps({"step": m["step"], "loss": m["loss"], "margin": m["margin"],
                         "grad_norm": m["grad_norm"], "lr": m["lr"]})
             for m in metrics]
    atomic_write(r["metrics"], "".join(line + "\n" for line in lines))
    atomic_write(r["out"], lambda p: save_checkpoint(ckpt, p))
    return 0


def _cmd_build_pairs(r: dict) -> int:
    corpus, oracle = _oracle_from(r)
    ckpt = _model_from(r, "model", r["seed"])
    pairs, skipped = data.build_onpolicy_pairs(
        ckpt.model, oracle, list(corpus), K=r["k"], temperature=r["temperature"],
        seed=seed_substream(r["seed"], "sampling"), max_len=r["max-len"])
    atomic_write(r["out"], lambda p: data.save_pairs(pairs, p))
    print(json.dumps({"pairs": len(pairs), "skipped": skipped}))
    return 0


def _cmd_sample(r: dict) -> int:
    ckpt = load_checkpoint(r["model"])
    prompt = [BOS] + list(r["prompt"].encode("utf-8"))
    seq = sample_tokens(ckpt.model, prompt, r["temperature"], r["max-len"],
                        seed_substream(r["seed"], "sampling"))
    text = data.response_bytes(seq).decode("utf-8", errors="replace")
    if r.get("out"):
        atomic_write(r["out"], text + "\n")
    print(text)
    return 0


def _cmd_eval(r: dict) -> int:
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
    return 0


def _sequences(pairs):
    return [make_sequence(p.prompt, p.chosen) for p in pairs]


def _cmd_kl_position(r: dict) -> int:
    policy = load_checkpoint(r["policy"]).model
    reference = load_checkpoint(r["reference"]).model
    pairs = data.load_pairs(r["pairs"])
    curve = analysis.kl_per_position(policy, reference, _sequences(pairs), r["max-pos"])
    atomic_write(r["out"], lambda p: analysis.write_curve_csv(p, curve))
    return 0


def _cmd_prob_position(r: dict) -> int:
    model = load_checkpoint(r["model"]).model
    pairs = data.load_pairs(r["pairs"])
    curve = analysis.prob_per_position(model, _sequences(pairs), r["max-pos"])
    atomic_write(r["out"], lambda p: analysis.write_curve_csv(p, curve))
    return 0


def _cmd_ref_margin(r: dict) -> int:
    reference = load_checkpoint(r["reference"]).model
    pairs = data.load_pairs(r["pairs"])
    hist = analysis.ref_margin_density(reference, pairs, r["bins"])
    atomic_write(r["out"], lambda p: analysis.write_histogram_csv(p, hist))
    return 0


def _cmd_length_bias(r: dict) -> int:
    cfg = _loss_config(r, r["seed"])
    needs_reference = cfg.method not in REFERENCE_FREE
    if needs_reference and not r.get("reference"):
        raise ConfigError(f"method {cfg.method!r} needs a reference: pass --reference")
    policy = load_checkpoint(r["policy"]).model
    ref_model = load_checkpoint(r["reference"]).model if needs_reference else None
    pairs = data.load_pairs(r["pairs"])
    # max_response_len = context truncates nothing that would fit; packs of
    # analysis.PACK sequences keep each pass small
    batch = [(p, i) for i, p in enumerate(pairs)]
    step = analysis.PACK // 2
    scored = [score for i in range(0, len(batch), step)
              for score in score_pairs(policy, ref_model, batch[i:i + step], policy.context)[0]]
    rows = analysis.loss_by_length_gap(cfg, scored, r["gap-bins"])
    atomic_write(r["out"], lambda p: analysis.write_csv(
        p, ("gap_lo", "gap_hi", "mean_loss", "count"),
        [astuple(row) for row in rows]))
    return 0


def _cmd_mdp_verify(r: dict) -> int:
    rows = []
    violations = 0
    for seed in range(r["seeds"]):
        m = mdp.random_mdp(r["states"], r["actions"], r["horizon"],
                           r["reward-bound"], seed)
        for rep in mdp.verify_bounds(m, mdp.uniform_policy(m), r["beta"], r["gammas"]):
            holds = int(rep.subopt <= rep.bound_total + 1e-9)
            violations += 1 - holds
            rows.append((seed, *astuple(rep), holds))
    atomic_write(r["out"], lambda p: analysis.write_csv(
        p, ("seed", "gamma", "delta1", "delta2", "delta3", "subopt", "term1", "term2",
            "bound", "tv", "holds"), rows))
    print(json.dumps({"rows": r["seeds"] * len(r["gammas"]),
                      "violations": violations}))
    return 0


COMMANDS = {
    "train": (
        LOSS_OPTS + ARCH_OPTS + [
            Option("pairs", "str", required=True, help="preference pairs JSONL"),
            Option("init", "str", help="initial checkpoint (fresh model if absent)"),
            Option("reference", "str", help="reference checkpoint (defaults to init)"),
            Option("out", "str", "model.ckpt"),
            Option("metrics", "str", "metrics.jsonl"),
            Option("base-lr", "float", 5e-7, valid=above(0)),
            Option("lr-multiplier", "float", 1e3, valid=above(0)),
            Option("batch-size", "int", 32, valid=at_least(1)),
            Option("warmup-fraction", "float", 0.10,
                   valid=(lambda v: 0 <= v < 1, "must be in [0, 1)")),
            Option("epochs", "int", 1, valid=at_least(0)),
            Option("max-steps", "int", valid=at_least(0)),
            SEED_OPT,
            Option("max-response-len", "int", 256, valid=at_least(1)),
            Option("weight-decay", "float", 0.0, valid=at_least(0)),
            Option("grad-clip", "float", help="gradient-norm clip if set", valid=above(0)),
        ], _cmd_train),
    "build-pairs": (
        ARCH_OPTS + ORACLE_OPTS + SAMPLING_OPTS + [
            Option("model", "str", help="sampling checkpoint (fresh model if absent)"),
            Option("out", "str", "pairs.jsonl"),
            Option("k", "int", 5, help="samples per prompt", valid=at_least(2)),
        ], _cmd_build_pairs),
    "sample": (
        SAMPLING_OPTS + [
            Option("model", "str", required=True),
            Option("prompt", "str", required=True),
            Option("out", "str"),
        ], _cmd_sample),
    "eval": (
        ORACLE_OPTS + SAMPLING_OPTS + [
            Option("candidate", "str", required=True),
            Option("baseline", "str", required=True),
            Option("out", "str"),
        ], _cmd_eval),
    "analyze-kl-position": (
        [
            Option("policy", "str", required=True),
            Option("reference", "str", required=True),
            Option("pairs", "str", required=True),
            Option("max-pos", "int", 64, valid=at_least(0)),
            Option("out", "str", "kl_position.csv"),
        ], _cmd_kl_position),
    "analyze-prob-position": (
        [
            Option("model", "str", required=True),
            Option("pairs", "str", required=True),
            Option("max-pos", "int", 64, valid=at_least(0)),
            Option("out", "str", "prob_position.csv"),
        ], _cmd_prob_position),
    "analyze-ref-margin": (
        [
            Option("reference", "str", required=True),
            Option("pairs", "str", required=True),
            Option("bins", "int", 20, valid=at_least(2)),
            Option("out", "str", "ref_margin.csv"),
        ], _cmd_ref_margin),
    "analyze-length-bias": (
        LOSS_OPTS + [
            Option("policy", "str", required=True),
            Option("reference", "str", help="needed by every method that is not reference-free"),
            Option("pairs", "str", required=True),
            Option("gap-bins", "ints", [-64, -16, -4, 0, 4, 16, 64],
                   valid=(lambda v: len(v) >= 2 and v == sorted(v),
                          "must be two or more sorted values")),
            Option("out", "str", "length_bias.csv"),
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
            Option("out", "str", "mdp_verify.csv"),
            SEED_OPT,  # unread: MDP i is drawn from seed i; benchmarks/workloads.py passes it
        ], _cmd_mdp_verify),
}

_ANALYZE = {name.removeprefix("analyze-"): name
            for name in COMMANDS if name.startswith("analyze-")}


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage errors as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    parser.add_argument("--config", default=None,
                        help="configuration file (flags override file values)")
    for opt in options:
        # kept as text; config.resolve parses and checks flags and file values alike
        parser.add_argument(f"--{opt.name}",
                            help="; ".join(filter(None, (opt.help, opt.valid and opt.valid[1]))))


def _named_command(argv) -> str | None:
    """The COMMANDS key that ``argv`` starts with, as ``train`` or
    ``analyze kl-position``, or None."""
    words = list(argv[:2])
    if words[:1] == ["analyze"]:
        return _ANALYZE.get(words[1]) if len(words) == 2 else None
    if words and words[0] in COMMANDS and words[0] not in _ANALYZE.values():
        return words[0]
    return None


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the command it names, as building every
    command's options costs several times more than parsing them; the whole
    tree when it names none, so top-level help and errors list every command."""
    named = _named_command(argv)
    parser = _Parser(prog="decaypo",
                     description="Preference-optimization laboratory with "
                                 "temporally decayed token weighting")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (options, _) in COMMANDS.items():
        if name not in _ANALYZE.values() and named in (None, name):
            _add_options(sub.add_parser(name, prog=f"decaypo {name}"), options)
    if named is None or named in _ANALYZE.values():
        analyze = sub.add_parser("analyze")
        asub = analyze.add_subparsers(dest="analysis", required=True)
        for short, full in _ANALYZE.items():
            if named in (None, full):
                _add_options(asub.add_parser(short, prog=f"decaypo analyze {short}"),
                             COMMANDS[full][0])
    return parser


def _glue_values(argv) -> list[str]:
    """Every option takes exactly one value, so write each ``--flag value``
    as ``--flag=value``; argparse then reads a value that starts with "-",
    such as ``--gap-bins -8,0,8``, as the value, not as a flag."""
    glued, tokens = [], iter(argv)
    for token in tokens:
        if token.startswith("--") and "=" not in token and token not in ("--", "--help"):
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        glued.append(token)
    return glued


def run_command(argv) -> int:
    argv = _glue_values(argv)
    args = build_parser(argv).parse_args(argv)
    command = args.command
    if command == "analyze":
        command = _ANALYZE[args.analysis]
    options, runner = COMMANDS[command]
    cli_values = {o.name: getattr(args, o.name.replace("-", "_")) for o in options}
    resolved = resolve(command, options, cli_values, args.config, COMMANDS)
    code = runner(resolved)
    if resolved.get("out"):
        write_resolved_snapshot(f"{resolved['out']}.resolved.cfg", command, resolved)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run_command(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
