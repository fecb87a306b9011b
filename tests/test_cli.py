import inspect
import json
import math
import shlex
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from conftest import (BAD_MANIFEST_FIELDS, BAD_MANIFESTS, MISFITS, misfit_params, read_csv,
                      write_raw_checkpoint)
from decaypo import cli, config, data, mdp, model as model_module, training
from decaypo.cli import COMMANDS, main
from decaypo.config import atomic_write, parse_value, seed_substream
from decaypo.data import load_pairs
from decaypo.losses import METHODS, LossConfig
from decaypo.model import PolicyModel, sample_many
from decaypo.schedules import KINDS as SCHEDULE_KINDS, ORIGINS, DecaySchedule
from decaypo.training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint


SMALL_ARCH = ["--dim", "16", "--context", "48", "--blocks", "2"]
SMALL_CORPUS = ["--n-prompts", "6", "--min-target-len", "3", "--max-target-len", "6"]
MDP_HEADER = ("seed", "gamma", "delta1", "delta2", "delta3", "subopt", "term1", "term2",
              "bound", "tv", "holds")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    m = PolicyModel(dim=16, context=48, blocks=2, seed=0)
    r = np.random.default_rng(7)
    m.params["w_out"] = r.normal(0, 0.08, size=m.params["w_out"].shape)
    save_checkpoint(Checkpoint(m), d / "model.ckpt")
    rc = main(["build-pairs", *SMALL_ARCH, *SMALL_CORPUS,
               "--model", str(d / "model.ckpt"), "--k", "4",
               "--temperature", "1.0", "--max-len", "8",
               "--out", str(d / "pairs.jsonl"), "--seed", "0"])
    assert rc == 0
    return d


class TestErrors:
    def test_unknown_flag_exit_1(self, capsys):
        assert main(["mdp-verify", "--bogus-flag", "3"]) == 1
        assert "--bogus-flag" in capsys.readouterr().err

    def test_unknown_method_exit_1(self, workdir, capsys):
        rc = main(["train", *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                   "--method", "nope", "--out", str(workdir / "x.ckpt"),
                   "--metrics", str(workdir / "x.jsonl")])
        assert rc == 1
        assert "method" in capsys.readouterr().err

    def test_missing_required_exit_1(self, capsys):
        assert main(["sample", "--prompt", "hi"]) == 1
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--out", ""], ["train", "--metrics="], ["build-pairs", "--out="],
        ["sample", "--model", "m", "--prompt", "hi", "--out", ""],
        ["analyze", "ref-margin", "--reference", "r", "--pairs", "p", "--out", ""]],
        ids=["train-out", "train-metrics", "build-pairs-out", "sample-out", "ref-margin-out"])
    def test_empty_output_path_exit_1_before_the_run(self, workdir, tmp_path, monkeypatch,
                                                     capsys, argv):
        """An empty name for a file to write is one line naming the key,
        before the command reads or writes anything."""
        monkeypatch.chdir(tmp_path)
        if argv[0] == "train":
            argv = [*argv, *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                    "--max-steps", "1"]
        key = "metrics" if "--metrics=" in argv else "out"
        assert argv_outcome(capsys, argv) == (1, "", f"error: key {key!r}: must name a file, "
                                                     "got ''\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["sample", "--model", str(tmp_path / "absent.ckpt"),
                   "--prompt", "hi"])
        assert rc == 2

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mdp-verify]\nnot-a-key = 3\n")
        assert main(["mdp-verify", "--config", str(cfg)]) == 1
        assert "not-a-key" in capsys.readouterr().err

    def test_removed_train_key_in_old_snapshot_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "old.resolved.cfg"
        cfg.write_text("[train]\nbase-lr = 5e-07\nbatch-size = 32\n")
        assert main(["train", "--pairs", "absent", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown key 'base-lr' in section [train]\n"

    @pytest.mark.parametrize("damage", ["empty", "two_bytes", "list_manifest",
                                        "short_payload", "trailing_bytes", *sorted(BAD_MANIFESTS)])
    def test_malformed_checkpoint_exit_2_one_line(self, workdir, tmp_path, capsys, damage):
        blob = (workdir / "model.ckpt").read_bytes()
        bad, message = {"empty": (b"", "truncated checkpoint header"),
                        "two_bytes": (blob[:2], "truncated checkpoint header"),
                        "list_manifest": (b"\x02\x00\x00\x00[]", "not a checkpoint file"),
                        "short_payload": (blob[:-4], "payload of"),
                        "trailing_bytes": (blob + b"\x00", "payload of"),
                        **BAD_MANIFESTS}[damage]
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(bad)
        assert main(["sample", "--model", str(path), "--prompt", "hi"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and str(path) in err[0] and message in err[0]

    def test_pair_record_that_is_not_an_object_exit_2_one_line(self, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        path.write_text("[1]\n")
        assert argv_outcome(capsys, ["train", *SMALL_ARCH, "--pairs", str(path),
                                     "--out", str(tmp_path / "x.ckpt"),
                                     "--metrics", str(tmp_path / "x.jsonl")]) == \
            (2, "", "runtime error: line 1: record is not a JSON object\n")
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]

    @pytest.mark.parametrize("key", ["prompt", "chosen", "rejected"])
    def test_non_string_pair_field_exit_2_one_line(self, tmp_path, capsys, key):
        record = {"id": "a", "prompt": "q", "chosen": "x", "rejected": "y", key: 5}
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        rc = main(["train", *SMALL_ARCH, "--pairs", str(path),
                   "--out", str(tmp_path / "x.ckpt"), "--metrics", str(tmp_path / "x.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 1" in err[0] and repr(key) in err[0]

    @pytest.mark.parametrize("key", ["prompt", "rejected"])
    def test_bad_base64_pair_field_exit_2_one_line(self, tmp_path, capsys, key):
        record = {"id": "a", "prompt": "q", "chosen": "x", "rejected": "y", key: "b64:abc"}
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        rc = main(["train", *SMALL_ARCH, "--pairs", str(path),
                   "--out", str(tmp_path / "x.ckpt"), "--metrics", str(tmp_path / "x.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 1" in err[0] and repr(key) in err[0]

    @pytest.mark.parametrize("line", [b'{"id":"a","prompt":"q\xff","chosen":"x","rejected":"y"}',
                                      b'{"id":"a","prompt":"\\ud800","chosen":"x","rejected":"y"}'],
                             ids=["not-utf8", "lone-surrogate"])
    def test_undecodable_pair_line_exit_2_one_line(self, tmp_path, capsys, line):
        path = tmp_path / "pairs.jsonl"
        path.write_bytes(b'{"id":"b","prompt":"q","chosen":"x","rejected":"y"}\n' + line + b"\n")
        rc = main(["train", *SMALL_ARCH, "--pairs", str(path),
                   "--out", str(tmp_path / "x.ckpt"), "--metrics", str(tmp_path / "x.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2" in err[0]

    @pytest.mark.parametrize("case", sorted(MISFITS))
    def test_misfit_checkpoint_exit_2_one_line(self, tmp_path, capsys, case):
        params, blocks = misfit_params(case)
        path = tmp_path / "misfit.ckpt"
        write_raw_checkpoint(path, params, blocks=blocks)
        assert main(["sample", "--model", str(path), "--prompt", "hi"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and repr(MISFITS[case]) in err[0]

    @pytest.mark.parametrize("case", sorted(BAD_MANIFEST_FIELDS))
    def test_bad_manifest_field_exit_2_one_line(self, workdir, tmp_path, capsys, case):
        key, value = BAD_MANIFEST_FIELDS[case]
        path = tmp_path / "bad.ckpt"
        write_raw_checkpoint(path, dict(PolicyModel(dim=16, context=48, seed=0).params),
                             **{key: value})
        out = tmp_path / "x.ckpt"
        rc = main(["train", *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                   "--init", str(path), "--out", str(out),
                   "--metrics", str(tmp_path / "x.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and repr(key) in err[0]
        assert not out.exists()

    def test_checkpoint_of_negative_seed_loads_again(self, workdir, tmp_path):
        ckpt = tmp_path / "neg.ckpt"
        assert main(["train", *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                     "--max-steps", "1", "--seed", "-1", "--out", str(ckpt),
                     "--metrics", str(tmp_path / "x.jsonl")]) == 0
        assert training.load_checkpoint(ckpt).seed == -1
        assert main(["train", *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                     "--max-steps", "1", "--init", str(ckpt), "--out", str(tmp_path / "y.ckpt"),
                     "--metrics", str(tmp_path / "y.jsonl")]) == 0

    @pytest.mark.parametrize("command", ["build-pairs", "eval"])
    def test_more_prompts_than_exist_exit_2_one_line(self, workdir, tmp_path, capsys, command):
        ckpt = str(workdir / "model.ckpt")
        models = {"build-pairs": ["--model", ckpt],
                  "eval": ["--candidate", ckpt, "--baseline", ckpt]}[command]
        rc = main([command, *models, "--n-prompts", "4097", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "4096" in err[0]

    @pytest.mark.parametrize("command", ["train", "build-pairs"])
    def test_dim_beyond_int64_exit_2_one_line(self, workdir, tmp_path, capsys, command):
        """A width too large for an array is refused by numpy's draw, not
        by the scale computed before it."""
        out = tmp_path / "out"
        out.mkdir()
        pairs = ["--pairs", str(workdir / "pairs.jsonl"), "--metrics", str(out / "m.jsonl")]
        assert main([command, *(pairs if command == "train" else []),
                     "--dim", "99999999999999999999", "--out", str(out / "o")]) == 2
        assert capsys.readouterr().err == "runtime error: Maximum allowed dimension exceeded\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,flags,key", [
        ("build-pairs", ["--k", "1"], "k"),
        ("build-pairs", ["--max-len", "0"], "max-len"),
        ("sample", ["--max-len", "0"], "max-len"),
        ("eval", ["--max-len", "0"], "max-len"),
        ("sample", ["--temperature", "-0.5"], "temperature"),
        ("build-pairs", ["--min-target-len", "9", "--max-target-len", "3"], "max-target-len"),
        ("eval", ["--min-target-len", "-1"], "min-target-len"),
        ("build-pairs", ["--dim", "0"], "dim"),
        ("build-pairs", ["--context", "0"], "context"),
        ("build-pairs", ["--blocks", "0"], "blocks"),
    ])
    def test_malformed_sampling_flag_exit_1_names_key(self, workdir, tmp_path, capsys,
                                                       command, flags, key):
        model = str(workdir / "model.ckpt")
        needs = {"build-pairs": [],
                 "sample": ["--model", model, "--prompt", "hi"],
                 "eval": ["--candidate", model, "--baseline", model]}[command]
        out = tmp_path / "out.txt"
        assert main([command, *needs, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(key) in err[0], err
        assert not out.exists()


# (command, key, text) with a value outside the key's domain; the gamma rows
# break the rule that ties gamma to the schedule kind
OUT_OF_DOMAIN = [
    ("train", "dim", "0"), ("train", "context", "0"), ("train", "blocks", "-1"),
    ("train", "method", "foo"), ("train", "schedule", "foo"), ("train", "origin", "foo"),
    ("train", "schedule", "uniform"),  # no decay is exponential at gamma 1
    ("train", "beta", "0"), ("train", "tau", "0"), ("train", "lr-multiplier", "-1"),
    ("train", "batch-size", "0"), ("train", "batch-size", "-1"), ("train", "epochs", "-1"),
    ("train", "max-steps", "-3"), ("train", "gamma", "0"),
    ("build-pairs", "n-prompts", "-1"),
    ("build-pairs", "min-target-len", "-1"),
    ("build-pairs", "k", "1"), ("build-pairs", "temperature", "-0.5"),
    ("build-pairs", "max-len", "0"),
    ("sample", "temperature", "-1"), ("sample", "max-len", "0"),
    ("eval", "n-prompts", "-1"), ("eval", "max-len", "0"),
    ("analyze-kl-position", "max-pos", "-1"), ("analyze-prob-position", "max-pos", "-1"),
    ("analyze-ref-margin", "bins", "1"),
    ("analyze-length-bias", "gap-bins", "5"), ("analyze-length-bias", "gap-bins", "4,0"),
    ("analyze-length-bias", "method", "foo"), ("analyze-length-bias", "tau", "0"),
    ("analyze-length-bias", "gamma", "-1"),
    ("mdp-verify", "seeds", "-1"), ("mdp-verify", "gammas", "0.5,1.5"),
    ("mdp-verify", "gammas", ","),
    ("mdp-verify", "states", "0"), ("mdp-verify", "actions", "0"),
    ("mdp-verify", "horizon", "0"), ("mdp-verify", "reward-bound", "0"),
    ("mdp-verify", "beta", "0"),
    # an empty name for a file the command writes
    ("train", "metrics", ""),
    *((command, "out", "") for command in sorted(COMMANDS)),
]


def command_argv(command: str) -> list[str]:
    """The words that run a COMMANDS entry: "analyze-ref-margin" is
    ``decaypo analyze ref-margin``."""
    return command.split("-", 1) if command.startswith("analyze-") else [command]


def test_out_of_domain_table_covers_every_declared_domain():
    declared = {o.name for options, _ in COMMANDS.values() for o in options if o.valid}
    assert {key for _, key, _ in OUT_OF_DOMAIN} == declared | {"gamma"}


@pytest.mark.parametrize("command,key,text", OUT_OF_DOMAIN,
                         ids=[f"{c}-{k}={t}" for c, k, t in OUT_OF_DOMAIN])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_out_of_domain_value_exit_1_names_key(tmp_path, capsys, command, key, text, source):
    options = COMMANDS[command][0]
    # the checks run before any input file is read, so these need not exist
    argv = [*command_argv(command),
            *(arg for o in options if o.required for arg in (f"--{o.name}", "absent")),
            *(["--out", str(tmp_path / "out")] if key != "out" else [])]
    if source == "flag":
        argv.append(f"--{key}={text}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{command}]\n{key} = {text}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"key {key!r}:" in err[0], err
    assert not (tmp_path / "out").exists()


# (command, key, path) of every file a command writes, at a path it cannot
# write: in a missing directory, a directory itself, or (--out) a path whose
# resolved config would be a directory
UNWRITABLE = [(c, o.name, path) for c, (options, _) in sorted(COMMANDS.items())
              for o in options if o.valid is cli.OUTPUT
              for path in ("nodir/y.out", "adir", "adir/", "snapdir")
              if path != "snapdir" or o.name == "out"]


@pytest.mark.parametrize("command,key,path", UNWRITABLE,
                         ids=[f"{c}-{k}={p}" for c, k, p in UNWRITABLE])
def test_unwritable_output_exit_1_before_the_run(tmp_path, monkeypatch, capsys, command,
                                                 key, path):
    """An unwritable output is one line naming the key before any input is
    read, not a runtime error once the work is done. The inputs are absent,
    so reading one would exit 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "snapdir.resolved.cfg").mkdir()
    options = COMMANDS[command][0]
    argv = [*command_argv(command),
            *(arg for o in options if o.required for arg in (f"--{o.name}", "absent")),
            f"--{key}", path]
    shown = "snapdir.resolved.cfg" if path == "snapdir" else path
    assert argv_outcome(capsys, argv) == (
        1, "", f"error: key {key!r}: {shown} is not a file in an existing directory\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "snapdir.resolved.cfg"]


@pytest.mark.parametrize("metrics,line", [
    ("o/x.ckpt", "key 'metrics': o/x.ckpt is also the output of key 'out'"),
    ("./o/../o/x.ckpt", "key 'metrics': ./o/../o/x.ckpt is also the output of key 'out'"),
    ("o/x.ckpt.resolved.cfg",
     "key 'out': o/x.ckpt.resolved.cfg is also the output of key 'metrics'")])
def test_two_outputs_naming_one_file_exit_1_before_the_run(workdir, tmp_path, monkeypatch,
                                                           capsys, metrics, line):
    """train's metrics, checkpoint and resolved config are three files; one
    named twice would be overwritten in silence."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o").mkdir()
    assert argv_outcome(capsys, ["train", *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                                 "--max-steps", "1", "--out", "o/x.ckpt",
                                 "--metrics", metrics]) == (1, "", f"error: {line}\n")
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_shows_each_domain(capsys, command):
    assert main([*command_argv(command), "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    for opt in COMMANDS[command][0]:
        if opt.valid:
            assert opt.valid[1] in shown, opt.name


def argv_outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


TOP_LEVEL_CASES = {
    "bare": ([], 1, "missing command: one of train, build-pairs, sample, eval, analyze, "
                    "mdp-verify"),
    "help": (["--help"], 0, None),
    "unknown command": (["bogus"], 1, "unknown command 'bogus': one of train, build-pairs, "
                                      "sample, eval, analyze, mdp-verify"),
    "bare analyze": (["analyze"], 1, "analyze needs an analysis: one of kl-position, "
                                     "prob-position, ref-margin, length-bias"),
    "unknown analysis": (["analyze", "bogus"], 1, "unknown analysis 'bogus': one of "
                                                  "kl-position, prob-position, ref-margin, "
                                                  "length-bias"),
    "stray word": (["mdp-verify", "--seeds", "3", "extra"], 1, "unexpected word 'extra'"),
    "unknown flag": (["mdp-verify", "--bogus-flag", "3"], 1, "unknown flag --bogus-flag"),
    "unknown analysis flag": (["analyze", "ref-margin", "--bogus", "3"], 1,
                              "unknown flag --bogus"),
    "missing value": (["sample", "--seed"], 1, "flag --seed needs a value"),
    **{f"{name} seed": (["analyze", name, "--seed", "1"], 1, "unknown flag --seed")
       for name in ("kl-position", "prob-position", "ref-margin")},
    # train fixes these at the one value every caller used
    **{f"train {key}": (["train", f"--{key}", value], 1, f"unknown flag --{key}")
       for key, value in (("base-lr", "1"), ("warmup-fraction", "0.1"),
                          ("max-response-len", "9"), ("weight-decay", "0.1"),
                          ("grad-clip", "1"))},
}


@pytest.mark.parametrize("case", sorted(TOP_LEVEL_CASES))
def test_top_level_and_usage_errors_unchanged(capsys, case):
    argv, code, err = TOP_LEVEL_CASES[case]
    got = argv_outcome(capsys, argv)
    if code:
        assert got == (code, "", f"error: {err}\n")
    else:
        assert got[0] == 0 and got[2] == ""
        for command in COMMANDS:
            assert f"  {' '.join(command_argv(command))}\n" in got[1] + "\n", command


def other_text(opt) -> str:
    """Text for ``opt`` that its domain accepts and that is not its default;
    one that starts with "-" where the domain allows it."""
    texts = {"int": ["-3", "7"], "float": ["-0.25", "0.5"], "ints": ["-8,0,8"],
             "floats": ["0.5,1.0"]}.get(opt.typ, ["-x", *METHODS, *SCHEDULE_KINDS, *ORIGINS])
    return next(t for t in texts if parse_value(opt, t) != opt.default
                and (opt.valid is None or opt.valid[0](parse_value(opt, t))))


def spellings(command, key, text):
    """(argv, config file) pairs that set ``key`` to ``text`` in three ways;
    every other required option is set by flag."""
    argv = [*command_argv(command), *(arg for o in COMMANDS[command][0]
                                      if o.required and o.name != key
                                      for arg in (f"--{o.name}", "given"))]
    return [([*argv, f"--{key}", text], None), ([*argv, f"--{key}={text}"], None),
            ([*argv, "--config", "run.cfg"], f"[{command}]\n{key} = {text}\n")]


LENGTH_BIAS = ["analyze", "length-bias", "--policy", "p", "--pairs", "q"]
SAMPLE = ["sample", "--model", "m", "--prompt", "hi"]

# (argv and config file text of each spelling, expect): expect is the values
# the command resolves, or (exit code, text of its one stderr line) on an
# error, or (0, text its help shows)
READER_CASES = {
    **{f"{command} {opt.name}": (
        spellings(command, opt.name, other_text(opt)),
        {opt.name: parse_value(opt, other_text(opt))})
       for command, (options, _) in COMMANDS.items() for opt in options},
    "dash values": ([([*LENGTH_BIAS, "--gap-bins", "-8,0,8", "--seed", "-1"], None)],
                    {"gap-bins": [-8, 0, 8], "seed": -1}),
    "last wins": ([([*SAMPLE, "--seed", "1", "--seed=2", "--prompt", "-h"], None)],
                  {"seed": 2, "prompt": "-h"}),
    "last wins over both spellings": ([(["mdp-verify", "--gammas=0.5", "--gammas", "0.9,1"],
                                        None)], {"gammas": [0.9, 1.0]}),
    "no prefixes": ([(["mdp-verify", "--gam", "0.5"], None)], (1, "unknown flag --gam")),
    "analyze as one word": ([(["analyze-kl-position"], None)], (1, "'analyze-kl-position'")),
    "help": ([(["-h"], None), (["--help"], None), (["analyze", "--help"], None)],
             (0, "analyze length-bias")),
    "command help": ([([*SAMPLE, "-h"], None), ([*SAMPLE, "--help"], None),
                      (["sample", "--help", "--bogus"], None)], (0, "--prompt")),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_reader(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    resolved = {}
    for command, (options, _) in list(COMMANDS.items()):
        monkeypatch.setitem(COMMANDS, command, (options, lambda r: resolved.update(r) or 0))
    forms, expect = READER_CASES[case]
    for argv, config in forms:
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
        resolved.clear()
        code, out, err = argv_outcome(capsys, argv)
        if isinstance(expect, dict):
            assert (code, err) == (0, ""), (argv, err)
            assert {key: resolved[key] for key in expect} == expect, argv
        elif expect[0]:
            assert code == expect[0] and not resolved, argv
            assert len(err.splitlines()) == 1 and expect[1] in err, (argv, err)
        else:
            assert (code, err) == (0, "") and expect[1] in out, argv


def test_readme_cli_lines_name_known_commands_and_flags():
    """Each ``decaypo`` line of README's CLI block reads as a command whose
    flags that command declares; nothing runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    read = [cli.read_argv(shlex.split(line)[1:])
            for line in block.splitlines() if line.startswith("decaypo ")]
    assert {command for command, _ in read} == set(COMMANDS)
    for command, flags in read:
        assert set(flags) <= {o.name for o in COMMANDS[command][0]} | {"config"}, command


# CLI option -> the (library owner, parameter) pairs whose defaults the option mirrors
LIBRARY_DEFAULTS = {
    "dim": [(PolicyModel, "dim")], "context": [(PolicyModel, "context")],
    "blocks": [(PolicyModel, "blocks")],
    "method": [(LossConfig, "method")], "beta": [(LossConfig, "beta")],
    "tau": [(LossConfig, "tau")],
    "lambda-w": [(LossConfig, "lambda_w")], "lambda-l": [(LossConfig, "lambda_l")],
    "lambda-orpo": [(LossConfig, "lambda_orpo")],
    "target-margin": [(LossConfig, "target_margin")],
    "schedule": [(DecaySchedule, "kind")], "gamma": [(DecaySchedule, "gamma")],
    "origin": [(DecaySchedule, "origin")],
    "lr-multiplier": [(TrainConfig, "lr_multiplier")],
    "batch-size": [(TrainConfig, "batch_size")],
    "epochs": [(TrainConfig, "epochs")], "max-steps": [(TrainConfig, "max_steps")],
    "seed": [(TrainConfig, "seed")],
    "brevity-coefficient": [(data.RewardOracle, "brevity_coefficient")],
    "min-target-len": [(data.synthetic_corpus, "min_target_len")],
    "max-target-len": [(data.synthetic_corpus, "max_target_len")],
    "k": [(data.build_onpolicy_pairs, "K")],
    "temperature": [(data.build_onpolicy_pairs, "temperature")],
    "max-len": [(data.build_onpolicy_pairs, "max_len"), (training.evaluate_winrate, "max_len")],
}
NO_LIBRARY_TWIN = {("mdp-verify", "beta")}   # the MDP's soft-value temperature
# library parameters spelled like an option that the CLI sets from another value
NOT_A_TWIN = {
    (PolicyModel, "seed"),                  # seed_substream(seed, "init")
    (data.build_onpolicy_pairs, "seed"),    # seed_substream(seed, "sampling")
    (LossConfig, "schedule"),               # a DecaySchedule, whose kind is --schedule
}


def library_defaults(owner) -> dict:
    return {name: p.default for name, p in inspect.signature(owner).parameters.items()
            if p.default is not inspect.Parameter.empty}


@pytest.mark.parametrize("name", sorted(LIBRARY_DEFAULTS))
def test_cli_default_equals_the_library_default(name):
    """Every command declaring the option defaults it as each of its
    library twins does."""
    declared = [(command, o.default) for command, (options, _) in COMMANDS.items()
                for o in options if o.name == name and (command, name) not in NO_LIBRARY_TWIN]
    assert declared
    for owner, param in LIBRARY_DEFAULTS[name]:
        want = library_defaults(owner)[param]
        assert [(command, want) for command, _ in declared] == declared, (owner, param)


def test_every_library_twin_of_an_option_is_compared():
    """Each defaulted parameter of the owners above that an option names
    (underscores as dashes, any case) is in the table or in NOT_A_TWIN, so
    no default declared twice goes unchecked."""
    twins = {pair for pairs in LIBRARY_DEFAULTS.values() for pair in pairs}
    options = {o.name for options, _ in COMMANDS.values() for o in options}
    for owner in {owner for owner, _ in twins}:
        for param in library_defaults(owner):
            if param.lower().replace("_", "-") in options:
                assert (owner, param) in twins | NOT_A_TWIN, (owner, param)


# options a command declares and its runner never reads, with the reason each stays
UNREAD = {"mdp-verify": {"seed"}}  # MDP i is drawn from seed i; benchmarks/workloads.py passes it


def runs_of(command, workdir, tmp_path):
    """Argument lists that, together, take every path of ``command`` that
    reads options: train and build-pairs read dim, context and blocks only
    for a fresh model, so they run with and without a checkpoint."""
    model, pairs = str(workdir / "model.ckpt"), str(workdir / "pairs.jsonl")
    out = str(tmp_path / "o")
    train = ["train", *SMALL_ARCH, "--pairs", pairs, "--max-steps", "1",
             "--out", out, "--metrics", str(tmp_path / "m.jsonl")]
    build = ["build-pairs", *SMALL_ARCH, *SMALL_CORPUS, "--k", "2", "--max-len", "4", "--out", out]
    return {
        "train": [train, train + ["--init", model]],
        "build-pairs": [build, build + ["--model", model]],
        "sample": [["sample", "--model", model, "--prompt", "hi", "--max-len", "4"]],
        "eval": [["eval", *SMALL_CORPUS, "--candidate", model, "--baseline", model,
                  "--max-len", "4"]],
        "analyze-kl-position": [["analyze", "kl-position", "--policy", model,
                                 "--reference", model, "--pairs", pairs, "--out", out]],
        "analyze-prob-position": [["analyze", "prob-position", "--model", model,
                                   "--pairs", pairs, "--out", out]],
        "analyze-ref-margin": [["analyze", "ref-margin", "--reference", model,
                                "--pairs", pairs, "--out", out]],
        "analyze-length-bias": [["analyze", "length-bias", "--policy", model,
                                 "--reference", model, "--pairs", pairs, "--out", out]],
        "mdp-verify": [["mdp-verify", "--seeds", "1", "--seed", "5", "--out", out]],
    }[command]


class ReadRecorder(dict):
    """A resolved config that notes every key read from it."""

    def __init__(self, resolved, read: set):
        super().__init__(resolved)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_declared_option_is_read(workdir, tmp_path, monkeypatch, command):
    options, runner = COMMANDS[command]
    read = set()
    monkeypatch.setitem(COMMANDS, command, (options, lambda r: runner(ReadRecorder(r, read))))
    for argv in runs_of(command, workdir, tmp_path):
        assert main(argv) == 0, argv
    assert {o.name for o in options} - read == UNREAD.get(command, set())


def trained_like(seed):
    """A checkpoint model of the workdir's architecture with a random output head."""
    m = PolicyModel(dim=16, context=48, blocks=2, seed=seed)
    m.params["w_out"] = np.random.default_rng(seed).normal(0, 0.08, size=m.params["w_out"].shape)
    return Checkpoint(m)


def replay_argv(command, workdir, other):
    """One run of ``command`` that writes --out (and train's --metrics) in
    the working directory, reading its inputs from absolute paths."""
    model, pairs = str(workdir / "model.ckpt"), str(workdir / "pairs.jsonl")
    return {
        "train": ["train", "--pairs", pairs, "--init", model, "--reference", other,
                  "--batch-size", "4", "--max-steps", "2", "--gamma", "0.9",
                  "--out", "o.ckpt", "--metrics", "m.jsonl"],
        "build-pairs": ["build-pairs", *SMALL_CORPUS, "--model", model, "--k", "3",
                        "--temperature", "1.0", "--max-len", "6", "--seed", "4",
                        "--out", "o.jsonl"],
        "sample": ["sample", "--model", model, "--prompt", "ab", "--temperature", "1.0",
                   "--max-len", "6", "--seed", "2", "--out", "o.txt"],
        "eval": ["eval", *SMALL_CORPUS, "--candidate", model, "--baseline", other,
                 "--temperature", "1.0", "--max-len", "6", "--seed", "3", "--out", "o.json"],
        "analyze-kl-position": ["analyze", "kl-position", "--policy", other,
                                "--reference", model, "--pairs", pairs, "--max-pos", "6",
                                "--out", "o.csv"],
        "analyze-prob-position": ["analyze", "prob-position", "--model", model,
                                  "--pairs", pairs, "--max-pos", "6", "--out", "o.csv"],
        "analyze-ref-margin": ["analyze", "ref-margin", "--reference", model, "--pairs", pairs,
                               "--bins", "6", "--out", "o.csv"],
        "analyze-length-bias": ["analyze", "length-bias", "--policy", other, "--reference", model,
                                "--pairs", pairs, "--gap-bins=-4,0,4", "--method", "ipo",
                                "--out", "o.csv"],
        "mdp-verify": ["mdp-verify", "--seeds", "3", "--gammas", "0.5,1.0", "--states", "3",
                       "--actions", "2", "--horizon", "4", "--out", "o.csv"],
    }[command]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_snapshot_replays_the_run(workdir, tmp_path, monkeypatch, capsys, command):
    """A command, then ``decaypo <command> --config <out>.resolved.cfg`` in a
    fresh directory: the same files, snapshot included, byte for byte, and
    the same stdout and stderr."""
    save_checkpoint(trained_like(1), tmp_path / "other.ckpt")
    argv = replay_argv(command, workdir, str(tmp_path / "other.ckpt"))
    snapshot = tmp_path / "first" / f"{argv[argv.index('--out') + 1]}.resolved.cfg"
    runs = []
    for name, args in (("first", argv),
                       ("replay", [*argv[:2 if command.startswith("analyze-") else 1],
                                   "--config", str(snapshot)])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(args) == 0, args
        runs.append(({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()},
                     capsys.readouterr()))
    assert snapshot.name in runs[0][0]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["train", "build-pairs"])
def test_snapshot_records_the_checkpoints_architecture(workdir, tmp_path, command):
    """A checkpoint's architecture wins over --dim, --context and --blocks,
    and the snapshot names the model that ran."""
    model = str(workdir / "model.ckpt")
    out = tmp_path / "o"
    argv = {"train": ["train", "--pairs", str(workdir / "pairs.jsonl"), "--init", model,
                      "--max-steps", "1", "--metrics", str(tmp_path / "m.jsonl")],
            "build-pairs": ["build-pairs", *SMALL_CORPUS, "--model", model, "--k", "2",
                            "--max-len", "4"]}[command]
    assert main([*argv, "--dim", "8", "--context", "1024", "--blocks", "1",
                 "--out", str(out)]) == 0
    assert {"dim = 16", "context = 48", "blocks = 2"} <= set(read_snapshot(out))


def overflowing_pairs(path, n=3):
    """``n`` pairs whose chosen and rejected sequences both overflow context 48."""
    data.save_pairs([data.PreferencePair(id=str(i), prompt=b"q?", chosen=b"c" * 60,
                                         rejected=b"r" * (50 + i)) for i in range(n)], path)
    return str(path)


class TestAtomicWrite:
    def test_failed_writer_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.csv"

        def writer(tmp):
            with open(tmp, "w") as f:
                f.write("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            atomic_write(target, writer)
        assert list(tmp_path.iterdir()) == []


def run_train(workdir, metrics, out, *extra):
    return main(["train", *SMALL_ARCH, "--pairs", str(workdir / "pairs.jsonl"),
                 "--init", str(workdir / "model.ckpt"),
                 "--batch-size", "4", "--epochs", "3", "--max-steps", "3",
                 "--lr-multiplier", "1000",
                 "--metrics", str(metrics), "--out", str(out), *extra])


def read_snapshot(out):
    return (out.parent / f"{out.name}.resolved.cfg").read_text().splitlines()


class TestTrainCommand:
    def test_gamma_one_matches_uniform(self, tmp_path, workdir):
        """d2po at exponential gamma 1 is dpo, d2po under UNIFORM, to the byte."""
        assert run_train(workdir, tmp_path / "dpo.jsonl", tmp_path / "dpo.ckpt",
                         "--method", "dpo") == 0
        assert run_train(workdir, tmp_path / "exp1.jsonl", tmp_path / "exp1.ckpt",
                         "--schedule", "exponential", "--gamma", "1.0") == 0
        for suffix in (".jsonl", ".ckpt"):
            assert (tmp_path / f"dpo{suffix}").read_bytes() == \
                (tmp_path / f"exp1{suffix}").read_bytes()

    def test_repeat_runs_byte_identical(self, workdir):
        a = workdir / "r1.jsonl"
        b = workdir / "r2.jsonl"
        assert run_train(workdir, a, workdir / "r1.ckpt") == 0
        assert run_train(workdir, b, workdir / "r2.ckpt") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (workdir / "r1.ckpt").read_bytes() == (workdir / "r2.ckpt").read_bytes()

    def test_gamma_above_one_warns_once_and_runs(self, workdir, tmp_path, capsys):
        assert run_train(workdir, tmp_path / "m.jsonl", tmp_path / "m.ckpt",
                         "--gamma", "1.5") == 0
        assert capsys.readouterr().err == (
            "warning: key 'gamma': gamma > 1 emphasizes late tokens and is known "
            "to hurt preference optimization, got 1.5\n")

    def test_metrics_lines_have_exact_keys(self, workdir):
        path = workdir / "r1.jsonl"
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"step", "loss", "margin", "grad_norm", "lr"}

    def test_snapshot_reproduces_run(self, workdir):
        out = workdir / "snap.ckpt"
        metrics = workdir / "snap.jsonl"
        assert run_train(workdir, metrics, out, "--gamma", "0.9") == 0
        snapshot = f"{out}.resolved.cfg"
        first = metrics.read_bytes()
        assert main(["train", "--config", snapshot]) == 0
        assert metrics.read_bytes() == first

    def test_reference_named_as_init_is_loaded_once(self, workdir, tmp_path, monkeypatch):
        """The loaded init serves as the reference too, with the same output
        as a reference read from a copy of the file."""
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes((workdir / "model.ckpt").read_bytes())
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loads.append(path) or load_checkpoint(path))
        outputs = []
        for name, reference in (("same", workdir / "model.ckpt"), ("copy", copy)):
            loads.clear()
            metrics, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.ckpt"
            assert run_train(workdir, metrics, out, "--reference", str(reference)) == 0
            outputs.append((len(loads), metrics.read_bytes(), out.read_bytes()))
        assert [n for n, *_ in outputs] == [1, 2]
        assert outputs[0][1:] == outputs[1][1:]

    def test_reference_free_method_opens_no_reference(self, workdir, tmp_path, capsys):
        """A reference-free method reads no reference, so a --reference that
        names no file changes no output byte."""
        outputs = []
        for name, extra in (("none", ()), ("missing", ("--reference", str(tmp_path / "no.ckpt")))):
            metrics, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.ckpt"
            assert run_train(workdir, metrics, out, "--method", "simpo", *extra) == 0
            outputs.append((metrics.read_bytes(), out.read_bytes()))
        assert capsys.readouterr().err == ""
        assert outputs[0] == outputs[1]

    def test_no_pair_that_fits_exit_2_one_line_no_files(self, workdir, tmp_path, capsys):
        """As an analysis does, train with no pair that fits warns, then
        exits 2 with one line and writes nothing."""
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--pairs", overflowing_pairs(tmp_path / "long.jsonl"),
                     "--init", str(workdir / "model.ckpt"), "--metrics", str(out / "m.jsonl"),
                     "--out", str(out / "o.ckpt")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: skipped 3 context-overflow examples", "runtime error: train requires pairs"]
        assert list(out.iterdir()) == []

    def test_decaypo_seed_env_changes_nothing(self, workdir, tmp_path, monkeypatch):
        """The root seed comes from the flag or the config file only."""
        outputs = []
        for env in (None, "5"):
            if env is not None:
                monkeypatch.setenv("DECAYPO_SEED", env)
            metrics, out = tmp_path / f"{env}.jsonl", tmp_path / f"{env}.ckpt"
            assert run_train(workdir, metrics, out) == 0
            assert "seed = 0" in read_snapshot(out)
            outputs.append((metrics.read_bytes(), out.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("args, error", [
        (("--method", "ipo", "--tau", "1e-320"), "step 0 is not finite: loss inf, "),
        (("--beta", "1e308"), "step 0 is not finite: loss 0.69"),
        # each side's scaled sum overflows to -inf, so the margin is not finite
        (("--method", "simpo", "--beta", "1e308"), "step 0 is not finite: loss nan, "),
        # the schedule's weights overflow to inf, so the margin is not finite
        (("--gamma", "1e300"), "step 0 is not finite: loss nan, ")],
        ids=["tau", "beta", "simpo-beta", "gamma"])
    def test_non_finite_step_exit_2_one_line_no_files(self, workdir, tmp_path, capsys, args,
                                                      error):
        metrics, out = tmp_path / "m.jsonl", tmp_path / "o.ckpt"
        assert run_train(workdir, metrics, out, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        if args[0] == "--gamma":   # gamma > 1 warns before the run
            assert lines.pop(0).startswith("warning: key 'gamma': gamma > 1 ")
        assert len(lines) == 1 and captured.err.endswith("\n")
        assert lines[0].startswith("runtime error: " + error)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epochs, max_steps", [(1, None), (3, None), (0, 7)])
    def test_overflowing_pairs_train_as_if_absent(self, workdir, tmp_path, capsys, epochs,
                                                  max_steps):
        """A file with two pairs that overflow trains as that file without
        them, with one warning that counts them once: the same full batches,
        so the same metrics and checkpoint bytes, however many epochs run."""
        pairs = load_pairs(workdir / "pairs.jsonl")
        long = load_pairs(overflowing_pairs(tmp_path / "long.jsonl", n=2))
        data.save_pairs([long[0], *pairs[:3], long[1], *pairs[3:]], tmp_path / "mixed.jsonl")
        limit = [] if max_steps is None else ["--max-steps", str(max_steps)]
        runs = []
        for path in (tmp_path / "mixed.jsonl", workdir / "pairs.jsonl"):
            metrics, out = tmp_path / f"{path.stem}.m.jsonl", tmp_path / f"{path.stem}.ckpt"
            assert main(["train", "--pairs", str(path), "--init", str(workdir / "model.ckpt"),
                         "--method", "sampo", "--batch-size", "2", "--epochs", str(epochs),
                         *limit, "--metrics", str(metrics), "--out", str(out)]) == 0
            runs.append((capsys.readouterr().err, metrics.read_bytes(), out.read_bytes()))
        assert [err for err, *_ in runs] == ["warning: skipped 2 context-overflow examples\n", ""]
        assert runs[0][1:] == runs[1][1:]
        steps = max_steps or epochs * math.ceil(len(pairs) / 2)
        assert len(runs[0][1].splitlines()) == steps and b"null" not in runs[0][1]


class TestBuildPairsCommand:
    def test_deterministic_output(self, workdir, capsys):
        out1 = workdir / "p1.jsonl"
        out2 = workdir / "p2.jsonl"
        args = ["build-pairs", *SMALL_ARCH, *SMALL_CORPUS,
                "--model", str(workdir / "model.ckpt"), "--k", "3",
                "--temperature", "1.0", "--max-len", "8", "--seed", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(report) == {"pairs", "skipped"}

    def test_brevity_coefficient_changes_the_pairs(self, workdir, tmp_path):
        """A nonzero --brevity-coefficient selects the length-penalized oracle."""
        args = ["build-pairs", *SMALL_ARCH, *SMALL_CORPUS,
                "--model", str(workdir / "model.ckpt"), "--k", "4",
                "--temperature", "1.0", "--max-len", "8", "--seed", "0"]
        outs = [tmp_path / f"b{c}.jsonl" for c in ("0", "-1")]
        for coefficient, out in zip(("0", "-1"), outs):
            assert main(args + ["--brevity-coefficient", coefficient, "--out", str(out)]) == 0
        assert outs[0].read_bytes() != outs[1].read_bytes()

    def test_every_written_pair_fits_the_context(self, tmp_path, capsys):
        """A response stops one token short of the context, so that it fits
        with the EOS that scoring appends, and nothing goes to stderr."""
        argv = ["build-pairs", "--dim", "16", "--context", "32", *SMALL_CORPUS, "--k", "3",
                "--seed", "0", "--max-len", "40", "--out", str(tmp_path / "long.jsonl")]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        pairs = load_pairs(tmp_path / "long.jsonl")
        assert err == "" and json.loads(out)["pairs"] == len(pairs) > 0
        scored = [(p.prompt, r) for p in pairs for r in (p.chosen, p.rejected)]
        assert all(model_module.make_sequence(prompt, r).fits(32) for prompt, r in scored)
        assert 32 - 6 - 1 in [len(r) for _, r in scored], "some response reaches the cap"

    @pytest.mark.parametrize("context, code", [(7, 2), (8, 0)])
    def test_prompt_needs_room_for_a_response_and_its_eos(self, tmp_path, capsys,
                                                           context, code):
        """The synthetic prompts are 6 tokens with BOS."""
        assert main(["build-pairs", "--dim", "8", "--context", str(context), *SMALL_CORPUS,
                     "--k", "2", "--out", str(tmp_path / "p.jsonl")]) == code
        err = capsys.readouterr().err
        assert err == ("runtime error: prompt leaves no room for a response and its EOS\n"
                       if code else "")

    def test_pairs_parse_and_validate(self, workdir):
        pairs = load_pairs(workdir / "pairs.jsonl")
        assert pairs
        for p in pairs:
            assert p.chosen != p.rejected


class TestSampleEval:
    def test_sample_deterministic(self, workdir, capsys):
        args = ["sample", "--model", str(workdir / "model.ckpt"),
                "--prompt", "ab", "--temperature", "1.0",
                "--max-len", "6", "--seed", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_eval_self_play_is_half(self, workdir, capsys):
        rc = main(["eval", *SMALL_CORPUS,
                   "--candidate", str(workdir / "model.ckpt"),
                   "--baseline", str(workdir / "model.ckpt"),
                   "--temperature", "1.0", "--max-len", "6", "--seed", "3"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out.strip())
        assert result["win"] == result["lose"] == 0
        assert result["winrate"] == 0.5

    def test_eval_draws_no_build_pairs_seed(self, workdir, monkeypatch):
        """Each command samples all of its rows from one seed per call, and
        under one --seed eval's differs from build-pairs', so an eval
        baseline never replays a training sample. Both eval models get the
        same seed, so their draws stay paired."""
        seeds = []

        def spy(model, prompts, temperature, max_len, seed, eos_room=False):
            seeds.append(seed)
            return sample_many(model, prompts, temperature, max_len, seed, eos_room)

        for module in (cli, data, model_module, training):
            for name, obj in list(vars(module).items()):
                if obj is sample_many:
                    monkeypatch.setattr(module, name, spy)
        model = str(workdir / "model.ckpt")
        assert main(["build-pairs", *SMALL_ARCH, *SMALL_CORPUS, "--model", model,
                     "--k", "4", "--temperature", "1.0", "--max-len", "4",
                     "--seed", "0", "--out", str(workdir / "seeds.jsonl")]) == 0
        built = list(seeds)
        seeds.clear()
        assert main(["eval", *SMALL_CORPUS, "--candidate", model, "--baseline", model,
                     "--temperature", "1.0", "--max-len", "4", "--seed", "0"]) == 0
        assert len(built) == 1 and len(seeds) == 2
        assert seeds[0] == seeds[1] != built[0]

    def test_sample_draws_build_pairs_row_0(self, workdir, monkeypatch):
        """sample and build-pairs both sample from the sampling substream,
        so under one --seed sample draws what build-pairs' row 0 draws."""
        rows = []

        def spy(*args):
            seqs = sample_many(*args)
            rows.append(seqs[0].response_tokens)
            return seqs

        monkeypatch.setattr(model_module, "sample_many", spy)
        monkeypatch.setattr(data, "sample_many", spy)
        model = str(workdir / "model.ckpt")
        flags = ["--model", model, "--temperature", "1.0", "--max-len", "6", "--seed", "3"]
        assert main(["build-pairs", *SMALL_CORPUS, *flags, "--k", "3",
                     "--out", str(workdir / "row0.jsonl")]) == 0
        first = next(iter(data.synthetic_corpus(6, seed_substream(3, "data"), 3, 6)))
        assert main(["sample", *flags, "--prompt", first.decode()]) == 0
        assert len(rows) == 2 and len(rows[0]) > 1
        assert rows[0] == rows[1]

    def test_one_sampling_generator_per_call(self, workdir, monkeypatch):
        """build-pairs builds one generator for all of its rows, and eval one
        per model; the seed hashes of a build-pairs call do not grow with K."""
        built, hashes = [], []
        make_rng, seed_sequence = model_module.rng, config._seed_sequence
        monkeypatch.setattr(model_module, "rng",
                            lambda *keys: built.append(keys) or make_rng(*keys))
        monkeypatch.setattr(config, "_seed_sequence",
                            lambda keys: hashes.append(keys) or seed_sequence(keys))
        model = str(workdir / "model.ckpt")
        counts = []
        for k in ("2", "4"):
            built.clear()
            hashes.clear()
            assert main(["build-pairs", *SMALL_ARCH, *SMALL_CORPUS, "--model", model,
                         "--k", k, "--temperature", "1.0", "--max-len", "4",
                         "--seed", "0", "--out", str(workdir / "gens.jsonl")]) == 0
            counts.append((len(built), len(hashes)))
        assert counts[0] == counts[1]
        assert counts[0][0] == 1
        built.clear()
        assert main(["eval", *SMALL_CORPUS, "--candidate", model, "--baseline", model,
                     "--temperature", "1.0", "--max-len", "4", "--seed", "0"]) == 0
        assert len(built) == 2 and built[0] == built[1]


def csv_columns(path, header):
    """The columns of a CSV file that analysis.write_csv wrote, as float arrays."""
    return np.array(read_csv(path, header), dtype=np.float64).T


class TestAnalyzeCommands:
    def test_kl_position_csv(self, workdir, tmp_path):
        assert run_train(workdir, tmp_path / "m.jsonl", tmp_path / "policy.ckpt",
                         "--gamma", "1.0") == 0
        out = tmp_path / "kl.csv"
        rc = main(["analyze", "kl-position", "--policy", str(tmp_path / "policy.ckpt"),
                   "--reference", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"),
                   "--max-pos", "6", "--out", str(out)])
        assert rc == 0
        _, values = csv_columns(out, ("position", "value"))
        assert np.all(values >= 0)

    def test_prob_position_csv(self, workdir):
        out = workdir / "prob.csv"
        rc = main(["analyze", "prob-position", "--model", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"),
                   "--max-pos", "6", "--out", str(out)])
        assert rc == 0
        _, values = csv_columns(out, ("position", "value"))
        assert np.all((0 < values) & (values <= 1))

    def test_ref_margin_csv(self, workdir):
        out = workdir / "margin.csv"
        rc = main(["analyze", "ref-margin", "--reference", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"),
                   "--bins", "6", "--out", str(out)])
        assert rc == 0
        centers, density = csv_columns(out, ("value", "density"))
        assert np.sum(density) * (centers[1] - centers[0]) == pytest.approx(1.0, abs=1e-6)

    def test_length_bias_csv(self, workdir):
        out = workdir / "bias.csv"
        rc = main(["analyze", "length-bias", "--policy", str(workdir / "model.ckpt"),
                   "--reference", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"),
                   "--gap-bins=-100,0,100", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gap_lo,gap_hi,mean_loss,count"
        assert len(lines) > 1
        for line in lines[1:]:
            float(line.split(",")[2])

    def test_length_bias_gamma_above_one_warns_once(self, workdir, tmp_path, capsys):
        rc = main(["analyze", "length-bias", "--policy", str(workdir / "model.ckpt"),
                   "--reference", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"), "--gamma", "1.5",
                   "--out", str(tmp_path / "bias.csv")])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "warning: key 'gamma': gamma > 1 emphasizes late tokens"), err

    @pytest.mark.parametrize("args, error", [
        (("--method", "ipo", "--tau", "1e-320"), "a pair is not finite: loss inf"),
        (("--method", "simpo", "--beta", "1e308"), "a pair is not finite: loss nan"),
        (("--gamma", "1e300"), "a pair is not finite: loss nan")],
        ids=["tau", "simpo-beta", "gamma"])
    def test_length_bias_non_finite_exit_2_one_line_no_file(self, workdir, tmp_path, capsys,
                                                            args, error):
        """As train rejects a step, a loss that is not finite is one
        runtime error line, with no numpy warning before it and no file."""
        rc = main(["analyze", "length-bias", "--policy", str(workdir / "model.ckpt"),
                   "--reference", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"), *args,
                   "--out", str(tmp_path / "bias.csv")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        if args[0] == "--gamma":   # gamma > 1 warns before the run
            assert lines.pop(0).startswith("warning: key 'gamma': gamma > 1 ")
        assert lines == ["runtime error: " + error]
        assert list(tmp_path.iterdir()) == []

    def test_length_bias_needs_reference(self, workdir, tmp_path, capsys):
        out = tmp_path / "bias.csv"
        rc = main(["analyze", "length-bias", "--policy", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"), "--method", "d2po",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--reference" in err[0]
        assert not out.exists()

    def test_length_bias_reference_free_needs_none(self, workdir, tmp_path):
        out = tmp_path / "bias.csv"
        rc = main(["analyze", "length-bias", "--policy", str(workdir / "model.ckpt"),
                   "--pairs", str(workdir / "pairs.jsonl"), "--method", "simpo",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("gap_lo,gap_hi,mean_loss,count\n")

    @pytest.mark.parametrize("name", ["kl-position", "prob-position", "ref-margin",
                                      "length-bias"])
    def test_context_overflow_pair_skipped_with_trains_warning(self, workdir, tmp_path,
                                                               capsys, name):
        """Every analysis drops a pair whose chosen or rejected sequence
        overflows, under train's rule and with train's warning, and writes
        the bytes it writes for the file without that pair. length-bias runs
        sampo, whose subsample each pair's position among the kept pairs seeds."""
        save_checkpoint(trained_like(1), tmp_path / "other.ckpt")
        model = str(workdir / "model.ckpt")
        models = {"kl-position": ["--policy", str(tmp_path / "other.ckpt"), "--reference", model],
                  "prob-position": ["--model", model], "ref-margin": ["--reference", model],
                  "length-bias": ["--policy", str(tmp_path / "other.ckpt"), "--reference", model,
                                  "--method", "sampo"]}
        pairs = load_pairs(workdir / "pairs.jsonl")
        long_chosen = data.PreferencePair(id="c", prompt=b"q?", chosen=b"c" * 300, rejected=b"r")
        long_rejected = data.PreferencePair(id="r", prompt=b"q?", chosen=b"c", rejected=b"r" * 45)
        # first, and three copies of the file, so that the packs of 16 pairs
        # that score the pairs would hold others if they were scored in place
        data.save_pairs([long_chosen, long_rejected, *pairs * 3], tmp_path / "with_long.jsonl")
        data.save_pairs(pairs * 3, tmp_path / "fit.jsonl")
        runs = []
        for path in (tmp_path / "fit.jsonl", tmp_path / "with_long.jsonl"):
            out = tmp_path / f"{path.stem}.csv"
            assert main(["analyze", name, *models[name], "--pairs", str(path),
                         "--out", str(out)]) == 0
            runs.append((capsys.readouterr().err, out.read_bytes()))
        assert [err for err, _ in runs] == ["", "warning: skipped 2 context-overflow examples\n"]
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("name,flags", [
        ("kl-position", ["--policy", "--reference"]), ("prob-position", ["--model"]),
        ("ref-margin", ["--reference"]), ("length-bias", ["--policy", "--reference"])])
    def test_every_pair_overflowing_exit_2_one_runtime_error(self, workdir, tmp_path, capsys,
                                                             name, flags):
        """With nothing left to analyse, each analysis warns as train does,
        then exits 2 with one line and writes nothing."""
        out = tmp_path / "o.csv"
        models = [word for flag in flags for word in (flag, str(workdir / "model.ckpt"))]
        assert main(["analyze", name, *models, "--pairs",
                     overflowing_pairs(tmp_path / "long.jsonl"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == "warning: skipped 3 context-overflow examples"
        assert err[1].startswith("runtime error: ") and "requires" in err[1]
        assert not out.exists()


class TestReferenceContext:
    """A reference whose context is smaller than the policy's binds the one
    overflow rule: a pair that fits the policy but not the reference is
    dropped, and the warning names the reference file."""

    LONG = data.PreferencePair(id="long", prompt=b"abcd", chosen=b"e" * 21,
                               rejected=b"f" * 21)  # BOS, 4 prompt bytes, 21 + EOS: 27 tokens
    SHORT = data.PreferencePair(id="short", prompt=b"ab", chosen=b"eee", rejected=b"ffff")

    @pytest.fixture
    def files(self, tmp_path):
        save_checkpoint(Checkpoint(PolicyModel(dim=8, context=48, blocks=1, seed=1)),
                        tmp_path / "init.ckpt")
        save_checkpoint(Checkpoint(PolicyModel(dim=8, context=16, blocks=1, seed=2)),
                        tmp_path / "ref.ckpt")
        for name, pairs in (("long", [self.LONG]), ("mixed", [self.LONG, self.SHORT]),
                            ("short", [self.SHORT])):
            data.save_pairs(pairs, tmp_path / f"{name}.jsonl")
        return tmp_path

    def argv(self, command, files, pairs, *extra):
        models = ["--reference", str(files / "ref.ckpt"), *extra]
        if command == "train":
            return ["train", "--init", str(files / "init.ckpt"), *models, "--pairs",
                    str(files / pairs), "--metrics", str(files / f"{pairs}.m"),
                    "--out", str(files / f"{pairs}.ckpt")]
        return ["analyze", command, "--policy", str(files / "init.ckpt"), *models,
                "--pairs", str(files / pairs), "--out", str(files / f"{pairs}.csv")]

    def warning(self, files):
        return (f"warning: skipped 1 context-overflow examples: reference "
                f"{files / 'ref.ckpt'} has context 16, the policy 48")

    @pytest.mark.parametrize("command", ["train", "length-bias", "kl-position"])
    def test_no_pair_that_fits_the_reference_names_it_then_exit_2(self, files, capsys,
                                                                    command):
        assert main(self.argv(command, files, "long.jsonl")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == self.warning(files)
        assert err[1].startswith("runtime error: ") and "requires" in err[1]
        assert sorted(p.name for p in files.iterdir()) == [
            "init.ckpt", "long.jsonl", "mixed.jsonl", "ref.ckpt", "short.jsonl"]

    @pytest.mark.parametrize("command", ["train", "length-bias", "kl-position"])
    def test_pair_that_fits_only_the_policy_is_dropped(self, files, capsys, command):
        runs = []
        for pairs in ("mixed.jsonl", "short.jsonl"):
            assert main(self.argv(command, files, pairs)) == 0
            written = sorted(p for p in files.iterdir() if p.name.startswith(pairs + "."))
            runs.append((capsys.readouterr().err, [p.read_bytes() for p in written
                                                   if not p.name.endswith(".cfg")]))
        assert [err for err, _ in runs] == [self.warning(files) + "\n", ""]
        assert runs[0][1] == runs[1][1] and runs[0][1]

    @pytest.mark.parametrize("command", ["train", "length-bias"])
    def test_reference_free_method_counts_only_the_policy(self, files, capsys, command):
        assert main(self.argv(command, files, "long.jsonl", "--method", "simpo")) == 0
        assert capsys.readouterr().err == ""


class TestNonFiniteWeight:
    """A checkpoint with a weight that is not finite does not load: every
    command that reads it exits 2 with one line naming the file and the
    weight, and writes nothing. Finite weights that overflow once the model
    runs reach the commands that score pairs or sample, and each of those
    exits 2 with one line of its own and writes nothing."""

    LINES = {"train": "runtime error: step 0 is not finite: loss nan, gradient norm nan",
             "kl-position": "runtime error: curve values must be finite",
             "prob-position": "runtime error: curve values must be finite",
             "ref-margin": "runtime error: a pair is not finite: margin nan",
             "length-bias": "runtime error: a pair is not finite: loss nan",
             "sample": "runtime error: sampling is not finite: the model's logits overflow",
             "eval": "runtime error: sampling is not finite: the model's logits overflow"}

    @staticmethod
    def run(workdir, tmp_path, command, ckpt, capsys):
        """(exit code, stdout, stderr, files written) of ``command`` with the
        checkpoint ``ckpt`` in the model's place."""
        bad, model = str(tmp_path / "bad.ckpt"), str(workdir / "model.ckpt")
        save_checkpoint(ckpt, bad)
        out = tmp_path / "out" / "o"
        out.parent.mkdir()
        pairs = ["--pairs", str(workdir / "pairs.jsonl")]
        models = {"train": ["--init", bad, "--metrics", str(out.parent / "m.jsonl"), *pairs],
                  "kl-position": ["--policy", bad, "--reference", model, *pairs],
                  "prob-position": ["--model", bad, *pairs],
                  "ref-margin": ["--reference", bad, *pairs],
                  "length-bias": ["--policy", bad, "--reference", model, *pairs],
                  "sample": ["--model", bad, "--prompt", "ab", "--max-len", "8"],
                  "eval": ["--candidate", bad, "--baseline", model, *SMALL_CORPUS]}[command]
        argv = [command] if command in ("train", "sample", "eval") else ["analyze", command]
        rc = main([*argv, *models, "--out", str(out)])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err, list(out.parent.iterdir())

    @pytest.mark.parametrize("weight, value", [("w1_0", np.inf), ("w3_1", -np.inf),
                                               ("w_out", np.nan)])
    @pytest.mark.parametrize("command", sorted(LINES))
    def test_exit_2_one_line_no_files(self, workdir, tmp_path, capsys, command, weight,
                                      value):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        ckpt.model.params[weight][0, 3] = value
        line = f"runtime error: {tmp_path / 'bad.ckpt'}: parameter {weight} is not finite\n"
        assert self.run(workdir, tmp_path, command, ckpt, capsys) == (2, "", line, [])

    @pytest.mark.parametrize("command", sorted(LINES))
    def test_finite_weights_that_overflow_exit_2_one_line_no_files(self, workdir, tmp_path,
                                                                    capsys, command):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        for name in ("embed", "w3_0", "w3_1", "w_out"):  # each weight at 3e38, its sign kept
            ckpt.model.params[name][:] = 3e38 * np.sign(ckpt.model.params[name])
        line = self.LINES[command] + "\n"
        assert self.run(workdir, tmp_path, command, ckpt, capsys) == (2, "", line, [])


class TestMdpVerify:
    def test_rows_and_zero_violations(self, workdir, capsys):
        out = workdir / "mdp.csv"
        rc = main(["mdp-verify", "--seeds", "4", "--gammas", "0.5,0.9,1.0",
                   "--states", "3", "--actions", "2", "--horizon", "5",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report == {"rows": 12, "violations": 0}
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("seed,gamma,delta1")
        assert len(lines) == 13
        assert all(line.endswith(",1") for line in lines[1:])

    def test_zero_seeds_write_the_header_only(self, tmp_path, capsys):
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "0", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"rows": 0, "violations": 0}
        assert out.read_text() == ",".join(MDP_HEADER) + "\n"

    def test_rows_do_not_depend_on_the_stack(self, tmp_path, monkeypatch, capsys):
        sizes, verify_bounds = [], mdp.verify_bounds

        def counted(stack, *args):
            sizes.append(len(stack.P))
            return verify_bounds(stack, *args)

        monkeypatch.setattr(mdp, "verify_bounds", counted)
        args = ["mdp-verify", "--seeds", "100", "--states", "4", "--actions", "3",
                "--horizon", "8"]
        assert main([*args, "--out", str(tmp_path / "stacked.csv")]) == 0
        assert sizes == [100]  # 576 policy elements per MDP
        monkeypatch.setattr(mdp, "STACK_ELEMENTS", 1)
        assert main([*args, "--out", str(tmp_path / "single.csv")]) == 0
        assert sizes == [100] + [1] * 100
        capsys.readouterr()
        stacked, single = (np.array(read_csv(tmp_path / name, MDP_HEADER), dtype=float)
                           for name in ("stacked.csv", "single.csv"))
        worst = float(np.max(np.abs(stacked - single)))
        print(f"max deviation between a stack of 100 and stacks of one: {worst:.2e}")
        assert stacked.shape == (500, 11) and worst <= 1e-12

    def test_one_mdp_per_stack_matches_per_seed_verify_bounds(self, tmp_path, capsys):
        # 6 * 128 * 16 * 8 policy elements exceed STACK_ELEMENTS: one MDP per stack
        S, A, H, gammas = 16, 8, 128, [0.5, 0.9, 0.95, 0.98, 1.0]
        assert (1 + len(gammas)) * H * S * A > mdp.STACK_ELEMENTS
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "2", "--states", str(S), "--actions", str(A),
                     "--horizon", str(H), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out, MDP_HEADER)
        expected = []
        for seed in range(2):
            stack = mdp.random_stack(S, A, H, 1.0, [seed])
            [reports] = mdp.verify_bounds(stack, mdp.uniform_policy(stack), 0.3, gammas)
            expected += [[str(seed), repr(gamma), *map(repr, fields)]
                         for gamma, fields in zip(gammas, reports.tolist())]
        assert [row[:-1] for row in rows] == expected  # bit for bit

    def test_holds_compares_subopt_with_the_bound_total(self, tmp_path, monkeypatch, capsys):
        reports = np.zeros((1, 3, 8))
        reports[0, :, 3] = [2.0, 1.0 + 5e-10, 0.5]  # subopt: above, within 1e-9 of, below
        reports[0, :, 6] = 1.0                      # bound_total
        reports[0, :, 5] = 0.1                      # term2, below every subopt
        monkeypatch.setattr(mdp, "verify_bounds", lambda *args: reports)
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "1", "--gammas", "0.5,0.9,1.0",
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"rows": 3, "violations": 1}
        assert [row[-1] for row in read_csv(out, MDP_HEADER)] == ["0", "1", "1"]

    def test_csv_text_is_repr_of_each_seed_s_reports(self, tmp_path, capsys):
        gammas = [0.5, 0.9, 0.95, 0.98, 1.0]
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "10", "--states", "4", "--actions", "3",
                     "--horizon", "8", "--out", str(out)]) == 0
        capsys.readouterr()
        lines, worst = [",".join(MDP_HEADER)], 0.0
        for seed in range(10):
            m = mdp.random_mdp(4, 3, 8, 1.0, seed)
            ref = mdp.uniform_policy(m)
            [reports] = mdp.verify_bounds(mdp.random_stack(4, 3, 8, 1.0, [seed]), ref, 0.3, gammas)
            _, pi_star = mdp.soft_value_iteration(m, ref, 0.3, 1.0)
            for gamma, fields in zip(gammas, reports.tolist()):
                rep = mdp.suboptimality_bound(
                    m, pi_star, mdp.soft_value_iteration(m, ref, 0.3, gamma)[1], gamma)
                worst = max(worst, float(np.max(np.abs(np.subtract(astuple(rep)[1:], fields)))))
                holds = int(rep.subopt <= rep.bound_total + 1e-9)
                lines.append(",".join([str(seed), repr(gamma), *map(repr, fields), str(holds)]))
        # one discount at a time rounds differently from a stacked backup and
        # evaluation of all of them, in the last bits only (observed: 7.3e-15)
        print(f"max deviation from per-gamma reports: {worst:.2e}")
        assert worst <= 1e-12
        assert out.read_text() == "\n".join(lines) + "\n"  # byte for byte


    @pytest.mark.parametrize("key,text", [("beta", "0"), ("beta", "-0.3"),
                                          ("reward-bound", "0"), ("states", "0"),
                                          ("actions", "0"), ("horizon", "0"), ("horizon", "-2")])
    def test_out_of_range_exit_1_names_key(self, tmp_path, capsys, key, text):
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "1", f"--{key}={text}", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(key) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("args,horizon", [(["--seeds", "1", "--reward-bound", "1e308"], 8),
                                              (["--seeds", "2", "--reward-bound", "1e307",
                                                "--horizon", "64"], 64)])
    def test_reward_bound_that_can_overflow_exit_2(self, tmp_path, capsys, args, horizon):
        # overflow used to end in a traceback, or in all-nan rows counted as violations
        out = tmp_path / "mdp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mdp-verify", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and "reward bound R" in err[0] and f"H = {horizon}" in err[0]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_tiny_beta_runs_without_warnings(self, tmp_path, capsys):
        # (q - max) / beta overflows to -inf, which exps to an exact 0; the
        # backup used to warn of it, a traceback under -W error
        out = tmp_path / "mdp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mdp-verify", "--seeds", "2", "--beta", "1e-310",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text() == TINY_BETA_CSV  # the rows it wrote with warnings ignored

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 179. GiB for an array"),
         "runtime error: Unable to allocate 179. GiB for an array"),
        (MemoryError(), "runtime error: MemoryError")])
    def test_out_of_memory_exit_2_one_line(self, tmp_path, monkeypatch, capsys, error, line):
        def draw(*args):
            raise error

        monkeypatch.setattr(mdp, "random_stack", draw)
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line] and captured.out == ""
        assert list(tmp_path.iterdir()) == []


# mdp-verify --seeds 2 --beta 1e-310 at the default S4 A3 H8
TINY_BETA_CSV = (
    "seed,gamma,delta1,delta2,delta3,subopt,term1,term2,bound,tv,holds\n"
    "0,0.5,1.682257974346612,0.0,-1.682257974346612,0.0,12.015625,0.0,12.015625,0.0,1\n"
    "0,0.9,0.6528204926958145,0.0,-0.6528204926958145,0.0,"
    "4.609344199999999,0.0,4.609344199999999,0.0,1\n"
    "0,0.95,0.35966170627266925,0.0,-0.35966170627266925,0.0,"
    "2.5368172515625016,0.0,2.5368172515625016,0.0,1\n"
    "0,0.98,0.15268318494913258,0.0,-0.15268318494913258,0.0,"
    "1.0763022581785613,0.0,1.0763022581785613,0.0,1\n"
    "0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1\n"
    "1,0.5,3.242111462665885,-0.13974942934166956,-2.992918484942713,0.10944354838150261,"
    "12.015625,2.090387281071741,14.106012281071742,0.26335182785912653,1\n"
    "1,0.9,1.2383606461204142,-0.0007200149171091574,-1.227899008112153,0.009741623091152007,"
    "4.609344199999999,2.492453444704647,7.1017976447046465,0.03842019753623568,1\n"
    "1,0.95,0.681232039643751,0.0,-0.681232039643751,0.0,"
    "2.5368172515625016,0.0,2.5368172515625016,0.0,1\n"
    "1,0.98,0.2889483557992527,0.0,-0.2889483557992527,0.0,"
    "1.0763022581785613,0.0,1.0763022581785613,0.0,1\n"
    "1,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1\n")


class TestDashValues:
    """Every option takes one value, even one that starts with "-"."""

    def test_length_bias_bins_both_spellings(self, workdir, tmp_path):
        common = ["analyze", "length-bias", "--policy", str(workdir / "model.ckpt"),
                  "--reference", str(workdir / "model.ckpt"),
                  "--pairs", str(workdir / "pairs.jsonl")]
        spaced, glued = tmp_path / "spaced.csv", tmp_path / "glued.csv"
        assert main(common + ["--gap-bins", "-8,0,8", "--out", str(spaced)]) == 0
        assert main(common + ["--gap-bins=-8,0,8", "--out", str(glued)]) == 0
        assert spaced.read_bytes() == glued.read_bytes()
        assert spaced.read_text().splitlines()[1].startswith("-8,0,")

    @pytest.mark.parametrize("args", [["--gammas", "-0.5,1"], ["--gammas=-0.5,1"],
                                      ["--gammas", "0,1"]])
    def test_gamma_out_of_range_exit_1_names_key(self, tmp_path, capsys, args):
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "1", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'gammas'" in err[0]
        assert not out.exists()

    def test_missing_value_still_exit_1(self, capsys):
        assert main(["mdp-verify", "--seeds"]) == 1
        assert "--seeds" in capsys.readouterr().err
