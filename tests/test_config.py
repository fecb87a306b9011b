from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from decaypo.cli import COMMANDS, main
from decaypo.config import (SEED_TAGS, ConfigError, Option, above, at_least,
                            load_config_file, one_of, resolve)
from decaypo.data import synthetic_corpus
from decaypo.mdp import random_mdp
from decaypo.model import init_params

OPTIONS = [
    Option("count", "int", 1),
    Option("rate", "float", 0.5),
    Option("name", "str", "a"),
    Option("gammas", "floats", [1.0]),
    Option("bins", "ints", [0, 1]),
]

TEXTS = [
    ("count", "-7", -7),
    ("rate", "1e-3", 1e-3),
    ("name", "run two.csv", "run two.csv"),
    ("gammas", "0.5, 0.9,1.0", [0.5, 0.9, 1.0]),
    ("bins", "-64,-4,0,4,64", [-64, -4, 0, 4, 64]),
]


@pytest.mark.parametrize("key,text,value", TEXTS, ids=[t[0] for t in TEXTS])
def test_flag_and_file_text_parse_alike(tmp_path, key, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[cmd]\n{key} = {text}\n")
    by_file = resolve("cmd", OPTIONS, {}, str(cfg), ["cmd"])
    by_flag = resolve("cmd", OPTIONS, {key: text}, None, ["cmd"])
    assert by_flag == by_file
    assert by_flag[key] == value and type(by_flag[key]) is type(value)


@pytest.mark.parametrize("key", ["count", "rate", "gammas", "bins"])
def test_bad_text_names_key(tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[cmd]\n{key} = 1,x\n")
    with pytest.raises(ConfigError, match=repr(key)):
        resolve("cmd", OPTIONS, {key: "1,x"}, None, ["cmd"])
    with pytest.raises(ConfigError, match=repr(key)):
        resolve("cmd", OPTIONS, {}, str(cfg), ["cmd"])


def test_cli_flags_and_file_give_one_snapshot(tmp_path):
    settings = {"seeds": "2", "gammas": "0.5,1.0", "reward-bound": "0.75",
                "states": "3", "actions": "2", "horizon": "4"}
    flags = [arg for key, text in settings.items() for arg in (f"--{key}", text)]
    out_flag, out_file = tmp_path / "flag.csv", tmp_path / "file.csv"
    assert main(["mdp-verify", *flags, "--out", str(out_flag)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[mdp-verify]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["mdp-verify", "--config", str(cfg), "--out", str(out_file)]) == 0
    assert out_flag.read_bytes() == out_file.read_bytes()
    snap_flag = (tmp_path / "flag.csv.resolved.cfg").read_text()
    snap_file = (tmp_path / "file.csv.resolved.cfg").read_text()
    assert snap_flag.replace("flag.csv", "file.csv") == snap_file


BAD_VALUES = [
    (["mdp-verify"], "seeds", "abc"),
    (["mdp-verify"], "beta", "x"),
    (["mdp-verify"], "gammas", "0.5,x"),
    (["analyze", "length-bias"], "gap-bins", "1,x"),
]


@pytest.mark.parametrize("command,key,text", BAD_VALUES, ids=[b[1] for b in BAD_VALUES])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_bad_value_exit_1_one_line(tmp_path, capsys, command, key, text, source):
    if source == "flag":
        argv = [*command, f"--{key}={text}"]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{'-'.join(command)}]\n{key} = {text}\n")
        argv = [*command, "--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(key) in err[0]


BOUNDED = [
    Option("count", "int", 1, valid=at_least(1)),
    Option("cap", "float", valid=above(0)),
    Option("kind", "str", "a", valid=one_of(("a", "b"))),
    Option("bins", "ints", [0, 1], valid=(lambda v: v == sorted(v), "must be sorted")),
]


@pytest.mark.parametrize("key,text,message", [
    ("count", "0", "key 'count': must be >= 1, got 0"),
    ("cap", "-1", "key 'cap': must be > 0, got -1.0"),
    ("kind", "c", "key 'kind': must be one of a, b, got c"),
    ("bins", "4,0", "key 'bins': must be sorted, got 4,0"),
], ids=["at_least", "above", "one_of", "inline"])
def test_domain_checked_for_flag_and_file_alike(tmp_path, key, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[cmd]\n{key} = {text}\n")
    for flags, path in (({key: text}, None), ({}, str(cfg))):
        with pytest.raises(ConfigError) as err:
            resolve("cmd", BOUNDED, flags, path, ["cmd"])
        assert str(err.value) == message


def test_domain_skips_unset_and_passes_valid_values():
    resolved = resolve("cmd", BOUNDED, {"count": "3", "kind": "b"}, None, ["cmd"])
    assert resolved == {"count": 3, "cap": None, "kind": "b", "bins": [0, 1]}


# number options that take any finite value, or whose bound is a cross-key
# rule checked by their command
UNBOUNDED = {"seed", "gamma", "lambda-w", "lambda-l", "lambda-orpo", "target-margin",
             "brevity-coefficient", "max-target-len"}


def test_every_number_option_declares_a_domain_its_default_meets():
    for command, (options, _) in COMMANDS.items():
        for opt in options:
            if opt.typ != "str":
                assert (opt.valid is None) == (opt.name in UNBOUNDED), (command, opt.name)
            if opt.valid is not None and opt.default is not None:
                assert opt.valid[0](opt.default), (command, opt.name)


@pytest.mark.parametrize("key,text", [("rate", "nan"), ("rate", "inf"), ("rate", " -Infinity"),
                                      ("gammas", "0.5,nan"), ("gammas", "inf,1.0")])
def test_non_finite_float_names_key(key, text):
    with pytest.raises(ConfigError, match=f"key {key!r}: not a finite number"):
        resolve("cmd", OPTIONS, {key: text}, None, ["cmd"])


NON_FINITE = [
    (["mdp-verify"], "beta", "nan"),
    (["mdp-verify"], "reward-bound", "inf"),
    (["mdp-verify"], "gammas", "0.5,nan"),
    (["build-pairs"], "temperature", "nan"),
    (["build-pairs"], "brevity-coefficient", "nan"),
    (["eval"], "temperature", "inf"),
]


@pytest.mark.parametrize("command,key,text", NON_FINITE,
                         ids=["-".join(n[1:]) for n in NON_FINITE])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_non_finite_exit_1_one_line(tmp_path, capsys, command, key, text, source):
    if source == "flag":
        argv = [*command, f"--{key}={text}"]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{command[0]}]\n{key} = {text}\n")
        argv = [*command, "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(key) in err[0] and "finite" in err[0]
    assert not (tmp_path / "out").exists()


def test_other_commands_sections_accepted(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("[train]\nmethod = dpo\n\n[analyze-length-bias]\ngap-bins = 0,4\n\n"
                   "[mdp-verify]\nseeds = 1\nstates = 2\nactions = 2\nhorizon = 3\n")
    assert main(["mdp-verify", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 0
    assert "seeds = 1" in (tmp_path / "m.csv.resolved.cfg").read_text().splitlines()


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[mdp-verify]\nseeds = 1\n\n[mdp-verfy]\nseeds = 2\n")
    assert main(["mdp-verify", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'mdp-verfy'" in err[0]
    assert not (tmp_path / "m.csv").exists()


def test_readme_substreams_match_seed_tags():
    """README's "Seeding" table lists exactly the substreams of SEED_TAGS."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Seeding", 1)[1].split("\n## ", 1)[0]
    names = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
             if line.startswith("| `")]
    assert sorted(names) == sorted(SEED_TAGS)


# seed -> something that compares by value, drawn from the generator the seed names
SEEDED = {"init_params": lambda seed: init_params(4, 8, 1, seed)["embed"].tolist(),
          "random_mdp": lambda seed: random_mdp(3, 2, 4, 1.0, seed).P.tolist(),
          "synthetic_corpus": lambda seed: synthetic_corpus(5, seed)}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_any_int_seed_names_the_stream_of_its_63_bit_residue(name):
    draw = SEEDED[name]
    assert draw(-1) == draw(2**63 - 1)
    assert draw(-1) != draw(1)


def test_missing_config_file_named(tmp_path):
    with pytest.raises(ConfigError, match="^cannot read config file .*missing.cfg: "):
        load_config_file(tmp_path / "missing.cfg")


def test_missing_config_file_exit_1_one_line(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert main(["mdp-verify", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot read config file {cfg}: ")
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_config_file_exit_1_naming_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("[mdp-verify]\n# réglage\nseeds = 1\n".encode("latin-1"))
    assert main(["mdp-verify", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(cfg) in err[0]
    assert not (tmp_path / "m.csv").exists()


# every option of every command, for the fuzz tests below
EVERY_OPTION = [(command, opt) for command, (options, _) in COMMANDS.items() for opt in options]
PARSED_TYPES = {"int": int, "float": float, "str": str, "ints": list, "floats": list}


def resolve_one(command: str, name: str, text: str | None, config_path=None) -> dict:
    """resolve() for ``command`` with ``text`` as the flag ``name`` (no flag
    when None) and placeholders for the required options."""
    options = COMMANDS[command][0]
    flags = {o.name: "x" for o in options if o.required}
    if text is not None:
        flags[name] = text
    return resolve(command, options, flags, config_path, COMMANDS)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_flag_text_gives_a_value_or_config_error(data):
    command, opt = data.draw(st.sampled_from(EVERY_OPTION), label="option")
    text = data.draw(st.text(st.characters(blacklist_categories=())), label="text")
    try:
        value = resolve_one(command, opt.name, text)[opt.name]
    except ConfigError:
        return
    assert type(value) is PARSED_TYPES[opt.typ]
    if opt.typ in ("float", "floats"):
        assert np.all(np.isfinite(value))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_file_text_gives_a_value_or_config_error(tmp_path, data):
    command, opt = data.draw(st.sampled_from(EVERY_OPTION), label="option")
    text = data.draw(st.text(), label="text")
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(f"[{command}]\n{opt.name} = {text}\n", encoding="utf-8")
    try:
        value = resolve_one(command, opt.name, None, str(cfg))[opt.name]
    except ConfigError:
        return
    assert type(value) is PARSED_TYPES[opt.typ]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.binary(max_size=200))
def test_any_config_file_bytes_give_a_config_or_config_error(tmp_path, blob):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_bytes(b"[mdp-verify]\n" + blob)
    try:
        resolve_one("mdp-verify", "seeds", None, str(cfg))
    except ConfigError:
        pass
