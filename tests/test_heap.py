"""cli.main's allocator setting: glibc keeps a training step's freed memory
in the heap, and the setting changes no output."""

import ctypes
import gc
import platform
import resource
import statistics

import numpy as np
import pytest

from decaypo import cli, data
from decaypo.cli import main
from decaypo.model import PolicyModel
from decaypo.training import Checkpoint, save_checkpoint

MiB = 1 << 20


class FakeLibc:
    """A C library whose mallopt records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result
        self.mallopt = mallopt


@pytest.fixture
def first_call():
    """Each test starts as the first main call of a process, and leaves the
    next one to set the real values again."""
    cli._keep_heap.cache_clear()
    yield
    cli._keep_heap.cache_clear()


def stub_libc(monkeypatch, libc):
    opened = []

    def cdll(name):
        opened.append(name)
        if isinstance(libc, Exception):
            raise libc
        return libc
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return opened


def test_main_sets_both_thresholds_once(first_call, monkeypatch, capsys):
    libc = FakeLibc()
    opened = stub_libc(monkeypatch, libc)
    assert main(["--help"]) == 0
    assert main(["mdp-verify", "--help"]) == 0
    assert opened == [None]
    assert libc.calls == [(cli.M_MMAP_THRESHOLD, 32 * MiB), (cli.M_TRIM_THRESHOLD, 256 * MiB)]
    assert (cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD) == (-3, -1)


def run_mdp_verify(directory, monkeypatch, capsys):
    monkeypatch.chdir(directory)
    assert main(["mdp-verify", "--seeds", "3", "--out", "m.csv"]) == 0
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return capsys.readouterr(), files


@pytest.mark.parametrize("libc", [OSError("no C library"), object(), FakeLibc(result=0)],
                         ids=["no-cdll", "no-mallopt", "refused"])
def test_without_the_setting_output_is_unchanged(first_call, tmp_path, monkeypatch, capsys,
                                                 libc):
    (tmp_path / "real").mkdir()
    (tmp_path / "stub").mkdir()
    want = run_mdp_verify(tmp_path / "real", monkeypatch, capsys)
    cli._keep_heap.cache_clear()
    stub_libc(monkeypatch, libc)
    assert run_mdp_verify(tmp_path / "stub", monkeypatch, capsys) == want
    if isinstance(libc, FakeLibc):  # the trim threshold alone would pin the mmap one
        assert libc.calls == [(cli.M_MMAP_THRESHOLD, 32 * MiB)]


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the setting acts on glibc's allocator only")
def test_repeated_train_calls_fault_no_heap_back_in(tmp_path):
    """After a warm-up call, a train call takes next to no minor faults;
    without the setting each took 35k-60k. The heap may still grow once by
    about 1 MB, at a call that varies from run to run (seen from the second
    to the sixth), so the median call is bounded and the calls together
    allow 4 MiB."""
    r = np.random.default_rng(0)

    def response():
        return bytes(r.choice(list(data.ALPHABET), size=int(r.integers(8, 200))).tolist())
    pairs = [data.PreferencePair(f"p{i}", b"abcd?", response(), response()) for i in range(64)]
    data.save_pairs(pairs, tmp_path / "pairs.jsonl")
    init = tmp_path / "init.ckpt"
    save_checkpoint(Checkpoint(PolicyModel(dim=64, context=256, blocks=2, seed=0)), init)
    argv = ["train", "--pairs", str(tmp_path / "pairs.jsonl"), "--init", str(init),
            "--reference", str(init), "--batch-size", "8",
            "--out", str(tmp_path / "out.ckpt"), "--metrics", str(tmp_path / "m.jsonl")]
    faults = []
    for _ in range(5):
        gc.collect()  # cyclic garbage would free whole object arenas mid-call
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    repeats = faults[1:]
    assert statistics.median(repeats) <= 64, f"minor faults per call: {faults}"
    assert sum(repeats) <= 4 * MiB // resource.getpagesize(), f"minor faults per call: {faults}"
