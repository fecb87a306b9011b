"""Every name of the package that README.md quotes still exists, and
every command line of its CLI block still reads.

A backticked span that starts with a module of decaypo and an attribute,
such as `losses.PairScore` or `training.score_pairs(policy, ...)`, or with
`decaypo.`, must resolve by import and getattr; a file name such as
`mdp.py` is not a name. A quoted call written out in full, such as
`losses.segment_sums(x, lens, w=None)`, must bind the signature of what it
calls. Fenced code blocks hold commands, not names.
"""

import importlib
import inspect
import os
import pkgutil
import re
import shlex

import decaypo
from decaypo import cli, config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
MODULES = {m.name for m in pkgutil.iter_modules(decaypo.__path__)}
FILE_NAME = re.compile(r"[\w.-]+\.(py|md|toml|ckpt|jsonl|json|csv|cfg)")


def readme_spans() -> list[str]:
    """The backticked spans of README outside its fenced code blocks."""
    with open(README, encoding="utf-8") as f:
        text = re.sub(r"```.*?```", "", f.read(), flags=re.S)
    return re.findall(r"`([^`]+)`", text)


def readme_names() -> list[str]:
    """The dotted names of the package quoted in README, without decaypo."""
    names = []
    for span in readme_spans():
        m = re.match(r"(decaypo\.)?(\w+(?:\.\w+)*)", span)
        if not m or FILE_NAME.fullmatch(span):
            continue
        if m[1] or (m[2].split(".")[0] in MODULES and "." in m[2]):
            names.append(m[2])
    return names


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    try:
        obj = importlib.import_module(f"decaypo.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    names = readme_names()
    assert len(names) > 40  # the parser finds the API section's names
    assert [name for name in names if not resolves(name)] == []


def readme_calls() -> list[tuple[str, list[str]]]:
    """(dotted name, arguments) of each call of a module's attribute that
    README quotes in full: no ``...`` or ``…`` among its arguments."""
    calls = []
    for span in readme_spans():
        m = re.fullmatch(r"(?:decaypo\.)?(\w+(?:\.\w+)+)\((.*)\)", span, flags=re.S)
        if m and m[1].split(".")[0] in MODULES and "..." not in m[2] and "…" not in m[2]:
            calls.append((m[1], [a.strip() for a in m[2].split(",") if a.strip()]))
    return calls


def binds(name: str, args: list[str]) -> bool:
    """Whether the quoted arguments fit the signature of ``name``: a
    ``*args`` argument stands for any number of positional ones."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"decaypo.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    positional = [a for a in args if "=" not in a and not a.startswith("*")]
    keywords = {a.split("=")[0].strip(): None for a in args if "=" in a}
    try:
        inspect.signature(obj).bind_partial(*positional, **keywords)
    except TypeError:
        return False
    return True


def test_readme_calls_bind_their_signatures():
    calls = readme_calls()
    assert len(calls) > 15 and ("config.rng", ["*keys"]) in calls
    assert [(name, args) for name, args in calls if not binds(name, args)] == []


def test_drifted_calls_are_caught():
    assert not binds("mdp.random_mdp", ["S", "A", "H", "R", "seed", "deterministic", "x"])
    assert not binds("losses.segment_sums", ["x", "lens", "weights=None"])
    assert binds("config.rng", ["*keys"]) and binds("mdp.random_mdp", ["S", "A"])


def test_stale_names_are_caught():
    assert not resolves("losses.margin_loss") and not resolves("mdp.validate_policy")
    assert not resolves("nomodule.x") and resolves("losses.PairScore.__post_init__")


def cli_block_lines() -> list[str]:
    """The ``decaypo ...`` lines of the fenced block under README's "## CLI"."""
    with open(README, encoding="utf-8") as f:
        section = f.read().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S)[1]
    return [line for line in block.splitlines() if line.startswith("decaypo ")]


def test_cli_block_lines_read_and_resolve():
    """Each example reads as argv and resolves against its command's options
    (no file is opened: resolving checks names and values only)."""
    lines = cli_block_lines()
    assert len(lines) == len(cli.COMMANDS)
    for line in lines:
        command, flags = cli.read_argv(shlex.split(line)[1:])
        assert flags is not None, line
        options, _ = cli.COMMANDS[command]
        config.resolve(command, options, flags, None, cli.COMMANDS)
