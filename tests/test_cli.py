import json

import numpy as np
import pytest

from conftest import BAD_MANIFEST_FIELDS, MISFITS, misfit_params, write_raw_checkpoint
from decaypo import analysis, cli, data, model as model_module, training
from decaypo.cli import COMMANDS, main
from decaypo.config import atomic_write
from decaypo.data import load_pairs
from decaypo.model import PolicyModel, sample_many
from decaypo.training import Checkpoint, save_checkpoint


SMALL_ARCH = ["--dim", "16", "--context", "48", "--blocks", "2"]
SMALL_CORPUS = ["--n-prompts", "6", "--min-target-len", "3", "--max-target-len", "6"]


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

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["sample", "--model", str(tmp_path / "absent.ckpt"),
                   "--prompt", "hi"])
        assert rc == 2

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mdp-verify]\nnot-a-key = 3\n")
        assert main(["mdp-verify", "--config", str(cfg)]) == 1
        assert "not-a-key" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["empty", "two_bytes", "list_manifest",
                                        "short_payload", "trailing_bytes"])
    def test_malformed_checkpoint_exit_2_one_line(self, workdir, tmp_path, capsys, damage):
        blob = (workdir / "model.ckpt").read_bytes()
        bad = {"empty": b"", "two_bytes": blob[:2],
               "list_manifest": b"\x02\x00\x00\x00[]",
               "short_payload": blob[:-4], "trailing_bytes": blob + b"\x00"}[damage]
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(bad)
        assert main(["sample", "--model", str(path), "--prompt", "hi"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0]

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
    ("train", "beta", "0"), ("train", "tau", "0"), ("train", "base-lr", "0"),
    ("train", "lr-multiplier", "-1"), ("train", "grad-clip", "-1"), ("train", "grad-clip", "0"),
    ("train", "batch-size", "0"), ("train", "batch-size", "-1"),
    ("train", "max-response-len", "0"), ("train", "epochs", "-1"),
    ("train", "max-steps", "-3"), ("train", "weight-decay", "-1"),
    ("train", "warmup-fraction", "1"), ("train", "warmup-fraction", "-0.5"),
    ("train", "gamma", "0"),
    ("build-pairs", "oracle-kind", "foo"), ("build-pairs", "n-prompts", "-1"),
    ("build-pairs", "min-target-len", "-1"),
    ("build-pairs", "k", "1"), ("build-pairs", "temperature", "-0.5"),
    ("build-pairs", "max-len", "0"),
    ("sample", "temperature", "-1"), ("sample", "max-len", "0"),
    ("eval", "oracle-kind", "foo"), ("eval", "n-prompts", "-1"), ("eval", "max-len", "0"),
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
            "--out", str(tmp_path / "out")]
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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_shows_each_domain(capsys, command):
    with pytest.raises(SystemExit):
        main([*command_argv(command), "--help"])
    shown = " ".join(capsys.readouterr().out.split())
    for opt in COMMANDS[command][0]:
        if opt.valid:
            assert opt.valid[1] in shown, opt.name


def argv_outcome(capsys, run, argv):
    """(exit code, stdout, stderr) of ``run(argv)``; argparse's help and
    usage exits count as exit codes."""
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def full_parser_main(monkeypatch):
    """``main`` as it runs when every call builds the whole parser tree."""
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): build(()))
    return main


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_same_from_one_command_and_full_parser(capsys, command):
    argv = [*command_argv(command), "--help"]
    one = argv_outcome(capsys, lambda a: cli.build_parser(a).parse_args(a), argv)
    full = argv_outcome(capsys, lambda a: cli.build_parser(()).parse_args(a), argv)
    assert one == full
    assert one[0] == 0 and f"usage: decaypo {' '.join(command_argv(command))}" in one[1]


TOP_LEVEL_CASES = {
    "bare": ([], 1, "the following arguments are required: command"),
    "help": (["--help"], 0, None),
    "unknown command": (["bogus"], 1,
                        "argument command: invalid choice: 'bogus' (choose from 'train', "
                        "'build-pairs', 'sample', 'eval', 'mdp-verify', 'analyze')"),
    "bare analyze": (["analyze"], 1, "the following arguments are required: analysis"),
    "unknown analysis": (["analyze", "bogus"], 1,
                         "argument analysis: invalid choice: 'bogus' (choose from "
                         "'kl-position', 'prob-position', 'ref-margin', 'length-bias')"),
    "unknown flag": (["mdp-verify", "--bogus-flag", "3"], 1,
                     "unrecognized arguments: --bogus-flag=3"),
    "unknown analysis flag": (["analyze", "ref-margin", "--bogus", "3"], 1,
                              "unrecognized arguments: --bogus=3"),
    "missing value": (["sample", "--seed"], 1, "argument --seed: expected one argument"),
    **{f"{name} seed": (["analyze", name, "--seed", "1"], 1, "unrecognized arguments: --seed=1")
       for name in ("kl-position", "prob-position", "ref-margin")},
}


@pytest.mark.parametrize("case", sorted(TOP_LEVEL_CASES))
def test_top_level_and_usage_errors_unchanged(capsys, monkeypatch, case):
    argv, code, err = TOP_LEVEL_CASES[case]
    got = argv_outcome(capsys, main, argv)
    if code:
        assert got == (code, "", f"error: {err}\n")
    else:
        assert got[0] == 0 and got[2] == ""
        assert "{train,build-pairs,sample,eval,mdp-verify,analyze}" in got[1]
    assert got == argv_outcome(capsys, full_parser_main(monkeypatch), argv)


@pytest.mark.parametrize("argv,built", [
    (["sample", "--model", "m", "--prompt", "hi"], ["sample"]),
    (["analyze", "length-bias", "--policy", "p"], ["analyze-length-bias"]),
    (["mdp-verify"], ["mdp-verify"]),
    (["analyze"], list(COMMANDS)),
    (["--help"], list(COMMANDS)),
    (["analyze-kl-position"], list(COMMANDS)),
])
def test_parser_builds_only_the_named_command(monkeypatch, argv, built):
    seen = []
    add = cli._add_options
    monkeypatch.setattr(cli, "_add_options",
                        lambda parser, options: (seen.append(options), add(parser, options)))
    cli.build_parser(argv)
    by_id = {id(options): name for name, (options, _) in COMMANDS.items()}
    assert sorted(by_id[id(options)] for options in seen) == sorted(built)


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
    def test_gamma_one_matches_uniform(self, workdir):
        a = workdir / "uni.jsonl"
        b = workdir / "exp1.jsonl"
        assert run_train(workdir, a, workdir / "uni.ckpt",
                         "--schedule", "uniform") == 0
        assert run_train(workdir, b, workdir / "exp1.ckpt",
                         "--schedule", "exponential", "--gamma", "1.0") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (workdir / "uni.ckpt").read_bytes() == \
            (workdir / "exp1.ckpt").read_bytes()

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

    def test_env_seed_overrides_default(self, workdir, monkeypatch):
        by_flag = workdir / "seed5.jsonl"
        assert run_train(workdir, by_flag, workdir / "seed5.ckpt",
                         "--seed", "5") == 0
        monkeypatch.setenv("DECAYPO_SEED", "5")
        by_env = workdir / "env5.jsonl"
        assert run_train(workdir, by_env, workdir / "env5.ckpt") == 0
        assert by_env.read_bytes() == by_flag.read_bytes()

    def test_flag_seed_beats_env(self, workdir, monkeypatch):
        monkeypatch.setenv("DECAYPO_SEED", "5")
        out = workdir / "flag3.ckpt"
        assert run_train(workdir, workdir / "flag3.jsonl", out, "--seed", "3") == 0
        assert "seed = 3" in read_snapshot(out)

    def test_file_seed_beats_env(self, workdir, monkeypatch):
        cfg = workdir / "seed4.cfg"
        cfg.write_text("[train]\nseed = 4\n")
        monkeypatch.setenv("DECAYPO_SEED", "5")
        out = workdir / "file4.ckpt"
        assert run_train(workdir, workdir / "file4.jsonl", out, "--config", str(cfg)) == 0
        assert "seed = 4" in read_snapshot(out)


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
        """Under one --seed, eval's sampling seeds are disjoint from
        build-pairs', so an eval baseline never replays a training sample."""
        seeds = []

        def spy(model, rows, temperature, max_len):
            seeds.extend(seed for _, seed in rows)
            return sample_many(model, rows, temperature, max_len)

        for module in (cli, data, model_module, training):
            for name, obj in list(vars(module).items()):
                if obj is sample_many:
                    monkeypatch.setattr(module, name, spy)
        model = str(workdir / "model.ckpt")
        assert main(["build-pairs", *SMALL_ARCH, *SMALL_CORPUS, "--model", model,
                     "--k", "4", "--temperature", "1.0", "--max-len", "4",
                     "--seed", "0", "--out", str(workdir / "seeds.jsonl")]) == 0
        built = set(seeds)
        seeds.clear()
        assert main(["eval", *SMALL_CORPUS, "--candidate", model, "--baseline", model,
                     "--temperature", "1.0", "--max-len", "4", "--seed", "0"]) == 0
        assert len(built) == 6 * 4 and len(set(seeds)) == 6
        assert built.isdisjoint(seeds)


def csv_columns(path, header):
    """The columns of a CSV file that analysis.write_csv wrote, as float arrays."""
    return np.array(analysis.read_csv(path, header), dtype=np.float64).T


class TestAnalyzeCommands:
    def test_kl_position_csv(self, workdir):
        out = workdir / "kl.csv"
        rc = main(["analyze", "kl-position", "--policy", str(workdir / "uni.ckpt"),
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


    @pytest.mark.parametrize("key,text", [("beta", "0"), ("beta", "-0.3"),
                                          ("reward-bound", "0"), ("states", "0"),
                                          ("actions", "0"), ("horizon", "0"), ("horizon", "-2")])
    def test_out_of_range_exit_1_names_key(self, tmp_path, capsys, key, text):
        out = tmp_path / "mdp.csv"
        assert main(["mdp-verify", "--seeds", "1", f"--{key}={text}", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(key) in err[0]
        assert not out.exists()


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
