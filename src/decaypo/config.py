"""Run configuration: a flat "key = value" file format with one section per
subcommand, strict unknown-key rejection, flag-over-file precedence, one
declared domain per option, named seed substreams, resolved-config snapshots
that reproduce a run, and the atomic writer every output file goes through."""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np

# named substreams off the root seed; components never share raw seeds
SEED_TAGS = {"data": 0, "sampling": 1, "sampo": 2, "init": 3, "eval": 4}


def _seed_sequence(keys) -> np.random.SeedSequence:
    # any int is a key: taken modulo 2**63, so -1 names the same stream as 2**63 - 1
    return np.random.SeedSequence([int(k) & (2**63 - 1) for k in keys])


def rng(*keys) -> np.random.Generator:
    """The generator that a tuple of integer keys names: the one seed recipe
    of every random draw."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(keys)))


def seed_substream(root_seed: int, tag: str) -> int:
    """The 63-bit seed of the substream ``tag`` of ``root_seed``."""
    if tag not in SEED_TAGS:
        raise ValueError(f"unknown seed substream {tag!r}")
    state = _seed_sequence((root_seed, SEED_TAGS[tag])).generate_state(1, np.uint64)[0]
    return int(state & (2**63 - 1))


class ConfigError(ValueError):
    """Validation failure; the message names the offending key or flag."""


@dataclass(frozen=True)
class Option:
    name: str                 # dashed, mirrors the CLI flag without "--"
    typ: str = "str"          # str | int | float | floats | ints
    default: object = None
    required: bool = False
    help: str = ""
    valid: tuple | None = None  # (test, text): the values resolve accepts


def at_least(n) -> tuple:
    return (lambda v: v >= n, f"must be >= {n}")


def above(n) -> tuple:
    return (lambda v: v > n, f"must be > {n}")


def one_of(choices) -> tuple:
    return (lambda v: v in choices, f"must be one of {', '.join(choices)}")


def parse_value(opt: Option, text: str):
    """The one parser of option text, for flags and config-file keys alike."""
    try:
        if opt.typ == "int":
            return int(text)
        if opt.typ == "ints":
            return [int(v) for v in text.split(",") if v.strip()]
        if opt.typ == "float":
            values = [float(text)]
        elif opt.typ == "floats":
            values = [float(v) for v in text.split(",") if v.strip()]
        else:
            return text
        if not np.all(np.isfinite(values)):
            raise ValueError(f"not a finite number: {text.strip()!r}")
        return values[0] if opt.typ == "float" else values
    except ValueError as e:
        raise ConfigError(f"key {opt.name!r}: {e}") from e


def format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config_file(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from e
    return {section: dict(parser.items(section)) for section in parser.sections()}


def resolve(command: str, options, cli_values: dict,
            config_path: str | None, commands) -> dict:
    """Merge defaults, config-file section and CLI flags.

    Precedence (lowest to highest): registry defaults, config file,
    explicit CLI flags. Flag values arrive as text, like file values, and
    both go through parse_value; every value that is not None must then
    pass its option's ``valid`` test. A config file may hold a section
    for any of ``commands``; unknown sections and unknown keys in the
    ``command`` section are rejected with the name.
    """
    by_name = {o.name: o for o in options}
    resolved = {o.name: o.default for o in options}
    if config_path is not None:
        sections = load_config_file(config_path)
        for key, text in sections.get(command, {}).items():
            if key not in by_name:
                raise ConfigError(f"unknown key {key!r} in section [{command}]")
            resolved[key] = parse_value(by_name[key], text)
        # other commands' sections are allowed so one file can drive a
        # whole pipeline; anything else is a typo
        bad = set(sections) - set(commands)
        if bad:
            raise ConfigError(f"unknown section {sorted(bad)[0]!r}")
    for key, text in cli_values.items():
        if text is None:
            continue
        if key not in by_name:
            raise ConfigError(f"unknown flag --{key}")
        resolved[key] = parse_value(by_name[key], text)
    for opt in options:
        value = resolved[opt.name]
        if value is None:
            if opt.required:
                raise ConfigError(f"missing required key {opt.name!r} (flag --{opt.name})")
        elif opt.valid is not None and not opt.valid[0](value):
            shown = format_value(value) or repr(value)  # an empty value as '' or []
            raise ConfigError(f"key {opt.name!r}: {opt.valid[1]}, got {shown}")
    return resolved


def write_resolved_snapshot(path, command: str, resolved: dict) -> None:
    """A config file that, fed back via --config, reproduces the run."""
    lines = [f"[{command}]"] + [f"{key} = {format_value(value)}"
                                for key, value in sorted(resolved.items()) if value is not None]
    atomic_write(path, "\n".join(lines) + "\n")


def atomic_write(path, content) -> None:
    """Write ``path`` through a temp file renamed into place.

    ``content`` is the text to write, or a function that writes the file at
    the path it is given. On any failure the temp file is removed, so
    ``path`` is either untouched or complete.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        if callable(content):
            content(tmp)
        else:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
