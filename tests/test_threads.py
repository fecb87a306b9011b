"""cli.main holds numpy's bundled OpenBLAS to one thread, so that a
command's outputs do not depend on how many threads BLAS would start."""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decaypo import cli
from decaypo.cli import main
from decaypo.data import PreferencePair, save_pairs
from decaypo.model import PolicyModel
from decaypo.training import Checkpoint, save_checkpoint

SRC = str(Path(__file__).resolve().parents[1] / "src")


def blas_threads():
    """The thread count of numpy's OpenBLAS, or None without one."""
    try:
        getter = ctypes.CDLL(np._core._multiarray_umath.__file__) \
            .scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter()


@pytest.fixture
def first_call():
    """Each test starts as the first main call of a process, and leaves the
    next one to set the real value again."""
    cli._one_blas_thread.cache_clear()
    yield
    cli._one_blas_thread.cache_clear()
    cli._one_blas_thread()


def test_main_sets_one_thread(first_call):
    if blas_threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    assert main(["--help"]) == 0
    assert blas_threads() == 1


@pytest.mark.parametrize("library", [object(), OSError("no library")])
def test_no_setter_changes_nothing_and_prints_nothing(first_call, monkeypatch, capsys, library):
    def cdll(name):
        if isinstance(library, Exception):
            raise library
        return library
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["--help"]) == 0
    assert main(["mdp-verify", "--help"]) == 0
    assert capsys.readouterr().err == ""


def run_at(threads: int, work: Path) -> dict:
    """sha256 of the files that a batch-8 train and an analyze kl-position
    write when the child process starts with ``threads`` BLAS threads."""
    # the working directory, and outputs named relative to it, so that the
    # snapshots, which record the output paths, can compare equal
    out = work / f"threads{threads}"
    out.mkdir()
    arch = ["--dim", "16", "--context", "256", "--blocks", "2"]
    pairs, init = str(work / "pairs.jsonl"), str(work / "init.ckpt")
    commands = [
        ["train", *arch, "--pairs", pairs, "--init", init, "--batch-size", "8", "--epochs", "2",
         "--metrics", "metrics.jsonl", "--out", "policy.ckpt"],
        ["analyze", "kl-position", "--policy", "policy.ckpt", "--reference", init,
         "--pairs", pairs, "--out", "kl.csv"],
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for argv in commands:
        subprocess.run([sys.executable, "-m", "decaypo.cli", *argv], cwd=out, env=env,
                       check=True, capture_output=True, timeout=120)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """16 pairs of 20 to 120 bytes: the packed passes are large enough for
    a two-thread OpenBLAS to split its products, which changed the metrics
    and the KL curve while the pool followed OPENBLAS_NUM_THREADS."""
    m = PolicyModel(dim=16, context=256, blocks=2, seed=0)
    r = np.random.default_rng(1)
    m.params["w_out"] = r.normal(0, 0.1, size=m.params["w_out"].shape)
    save_checkpoint(Checkpoint(m), tmp_path / "init.ckpt")

    def text(n):
        return bytes(r.integers(97, 123, size=n).tolist())
    save_pairs([PreferencePair(f"p{i}", text(8), text(r.integers(20, 120)),
                               text(r.integers(20, 120))) for i in range(16)],
               tmp_path / "pairs.jsonl")
    one = run_at(1, tmp_path)
    assert len(one) == 5  # metrics, policy, kl curve and two snapshots
    assert run_at(2, tmp_path) == one
