"""Layer tracing for the benchmark.

The tracer wraps the public functions of each decaypo module (a "layer")
and records one span per call: name, start, end and the span that caused
it. Spans stay in memory until the pass ends; ``layer_metrics`` then turns
them into the per-layer metrics that ``run.py --trace 1`` reports.

A function is wrapped at every module attribute of the package that binds
it, so calls made through ``from .model import token_logprobs`` style
imports are seen as well. ``Tracer.unwrap`` puts every original object back.
Nothing inside the package changes: tracing only times calls into it.

``Stopwatch`` hooks in the same way into a few functions only, and records
just a name and a timestamp at their entry and exit; the harness uses it to
time stretches of work and to run its speed probes between them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "decaypo"
LAYERS = ("cli", "config", "training", "model", "autodiff", "losses",
          "schedules", "data", "analysis", "mdp")

clock = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str                  # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int = -1           # index of the causing span, -1 at the root
    attrs: dict | None = None  # counts taken from the call's arguments and result

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _forward_attrs(args, kwargs, result):
    grad = _arg(args, kwargs, 3, "param_tensors") is not None
    # a gradient-free pass on its own tape records nodes no backward pass uses
    own_tape = _arg(args, kwargs, 2, "tape") is None
    return {"n": len(_arg(args, kwargs, 1, "tokens")), "grad": grad,
            "nodes": 0 if grad or not own_tape else len(result.tape.nodes)}


def _file_bytes(index, name):
    def probe(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return probe


# Counts recorded with a span, by span name: (args, kwargs, result) -> attrs.
PROBES = {
    "cli.main": lambda a, k, r: {"failed": int(r != 0)},
    "model.forward_logits": _forward_attrs,
    "model.token_logprobs": lambda a, k, r: {
        "grad": _arg(a, k, 3, "param_tensors") is not None},
    "model.sample": lambda a, k, r: {"tokens": len(r.response_tokens)},
    "autodiff.gradients": lambda a, k, r: {"nodes": len(a[0].tape.nodes)},
    "training.train": lambda a, k, r: {
        "steps": len(r[1]), "skipped": sum(m.get("skipped", 0) for m in r[1])},
    "training.pretrain_nll": lambda a, k, r: {"steps": _arg(a, k, 2, "steps")},
    "training.save_checkpoint": _file_bytes(1, "path"),
    "training.load_checkpoint": _file_bytes(0, "path"),
    "data.edit_distance": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b"))},
    "mdp.suboptimality_bound": lambda a, k, r: {
        "violation": int(r.subopt > r.bound_total + 1e-9)},  # as mdp-verify counts it
    "data.build_onpolicy_pairs": lambda a, k, r: {
        "pairs": len(r[0]), "prompts": len(_arg(a, k, 2, "prompts"))},
}


def traced_functions():
    """(span name, function) for the public functions of every layer."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported from another layer, traced there
            if layer == "autodiff" and attr != "gradients":
                # The other public functions of autodiff each record one tape
                # node. Tracing them would cost more than the work they do, so
                # the benchmark counts tape nodes instead.
                continue
            found.append((f"{layer}.{attr}", obj))
    return found


class Tracer:
    """Records spans around calls into the package while wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced

    def wrap(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already wrapped")
        self._patches = bind({id(fn): self._wrapper(name, fn) for name, fn in traced_functions()})
        # AdamW.step is a method, traced as if it were a function of training
        adamw = sys.modules[f"{PACKAGE}.training"].AdamW
        step = adamw.__dict__["step"]
        self._patches.append((adamw, "step", step))
        adamw.step = self._wrapper("training.adamw", step)

    def unwrap(self) -> None:
        restore(self._patches)

    def __enter__(self):
        self.wrap()
        return self

    def __exit__(self, *exc):
        self.unwrap()


def bind(wrappers: dict) -> list[tuple[object, str, object]]:
    """Replace every module attribute of the package that binds a function
    in ``wrappers`` (keyed by ``id``) with its wrapper; returns the patches
    for ``restore``."""
    patches = []
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patches.append((module, attr, value))
                setattr(module, attr, wrapper)
    return patches


def restore(patches: list) -> None:
    """Put every patched attribute back, and empty ``patches``."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


# ---------------------------------------------------------------------------
# stopwatch of the untraced passes

# Functions at whose entry and exit an untraced pass takes a timestamp. They
# cut the pass into stretches of a few milliseconds of work or less.
BOUNDARIES = ("cli.main", "training.pretrain_nll", "model.forward_logits",
              "model.sample", "autodiff.gradients", "mdp.soft_value_iteration",
              "mdp.policy_value")


class Stopwatch:
    """Named timestamps of one pass or set-up: the marks a workload sets
    around its stages and, while hooked, the entry and exit of every
    BOUNDARIES call; costs a clock read and a few list appends per event.

    Given a ``probe`` (a function that times a fixed piece of work and
    returns its seconds), an event at least ``every`` seconds after the last
    probe runs one first, and so do marks made with ``probe=True``. Event i
    then has two times: ``ends[i]``, taken before its probe, ends the
    stretch that leads up to it, and ``starts[i]``, taken after the probe,
    starts the next one. Without a probe the two are the same. Probe times
    are in ``probe_s``, at event indices ``probe_at``.
    """

    def __init__(self, probe=None, every: float = 0.0):
        self.names: list[str] = []
        self.ends: list[float] = []
        self.starts: list[float] = []
        self.probe_at: list[int] = []
        self.probe_s: list[float] = []
        self._probe, self._every = probe, every
        self._probed = clock()
        self._patches: list[tuple[object, str, object]] = []

    def mark(self, name: str, probe: bool = False) -> None:
        end = start = clock()
        if self._probe is not None and (probe or end - self._probed >= self._every):
            self.probe_at.append(len(self.names))
            self.probe_s.append(self._probe())
            start = self._probed = clock()
        self.names.append(name)
        self.ends.append(end)
        self.starts.append(start)

    @contextmanager
    def stage(self, name: str, probe: bool = False):
        """Marks ``<name>`` before the block and ``</name>`` after it."""
        self.mark(f"<{name}>", probe)
        try:
            yield
        finally:
            self.mark(f"</{name}>", probe)

    def stretches(self) -> np.ndarray:
        """Time of each stretch between two consecutive events, probes left
        out."""
        return np.array(self.ends[1:]) - np.array(self.starts[:-1])

    def _wrapper(self, name, fn):
        mark = self.mark

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            mark(name)
            try:
                return fn(*args, **kwargs)
            finally:
                mark(name)

        return timed

    def __enter__(self):
        functions = dict(traced_functions())
        self._patches = bind({id(functions[name]): self._wrapper(name, functions[name])
                              for name in BOUNDARIES if name in functions})
        return self

    def __exit__(self, *exc):
        restore(self._patches)


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted((spans[k] for k in kids), key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(span.duration - covered)
    return out


def outermost_in_layer(spans) -> list[bool]:
    """True for spans with no ancestor in their own layer; their durations
    sum to the time the layer was busy."""
    out = []
    for span in spans:
        p, top = span.parent, True
        while p >= 0:
            if spans[p].layer == span.layer:
                top = False
                break
            p = spans[p].parent
        out.append(top)
    return out


def within(spans, name: str) -> list[bool]:
    """True for spans that have an ancestor called ``name``."""
    out: list[bool] = []
    for span in spans:
        p = span.parent
        out.append(p >= 0 and (spans[p].name == name or out[p]))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.busy_s": "s",
                      f"{_layer}.self_s": "s"})
PER_LAYER.update({
    "cli.failed": "count",
    "config.resolve_s": "s",
    "training.train_s": "s",
    "training.pretrain_s": "s",
    "training.steps": "count",
    "training.adamw_s": "s",
    "training.adamw_calls": "count",
    "training.ref_logprob_calls_per_step": "count",
    "training.policy_logprob_calls_per_step": "count",
    "training.skipped_examples": "count",
    "training.ckpt_save_s": "s",
    "training.ckpt_load_s": "s",
    "training.ckpt_calls": "count",
    "training.ckpt_bytes": "bytes",
    "training.winrate_s": "s",
    "model.forward_calls": "count",
    "model.forward_s": "s",
    "model.forward_tokens": "count",
    "model.forward_tokens_sq": "count",
    "model.forward_us_per_token.len16": "us",
    "model.forward_us_per_token.len64": "us",
    "model.forward_us_per_token.len256": "us",
    "model.token_logprobs_calls": "count",
    "model.token_logprobs_s": "s",
    "model.sample_calls": "count",
    "model.sample_s": "s",
    "model.sampled_tokens": "count",
    "model.sample_us_per_token": "us",
    "model.sample_ms.p50": "ms",
    "model.sample_ms.p90": "ms",
    "model.prefix_tokens_per_sampled_token": "count",
    "autodiff.gradients_calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.inference_tape_nodes": "count",
    "losses.batch_loss_calls": "count",
    "losses.batch_loss_s": "s",
    "losses.pair_loss_calls": "count",
    "losses.pair_loss_s": "s",
    "schedules.weights_calls": "count",
    "schedules.weights_s": "s",
    "data.build_pairs_s": "s",
    "data.pairs_built": "count",
    "data.pair_yield": "ratio",
    "data.oracle_calls": "count",
    "data.oracle_s": "s",
    "data.edit_distance_calls": "count",
    "data.edit_distance_s": "s",
    "data.edit_distance_cells": "count",
    "data.edit_distance_ns_per_cell": "ns",
    "data.save_pairs_s": "s",
    "data.load_pairs_s": "s",
    "analysis.kl_per_position_s": "s",
    "analysis.prob_per_position_s": "s",
    "analysis.ref_margin_density_s": "s",
    "analysis.loss_by_length_gap_s": "s",
    "mdp.random_mdp_calls": "count",
    "mdp.random_mdp_s": "s",
    "mdp.soft_value_iteration_calls": "count",
    "mdp.soft_value_iteration_s": "s",
    "mdp.suboptimality_bound_s": "s",
    "mdp.policy_value_calls": "count",
    "mdp.policy_value_s": "s",
    "mdp.policy_value_calls_per_row": "count",
    "mdp.occupancy_tv_s": "s",
    "mdp.violations": "count",
    "trace.overhead_s": "s",
})

# buckets of forward_us_per_token: suffix -> largest context length in it
FORWARD_BUCKETS = {"len16": 16, "len64": 64, "len256": 256}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass: every name in PER_LAYER except
    trace.overhead_s, which needs an untraced pass too."""
    selfs = self_times(spans)
    top = outermost_in_layer(spans)
    in_train = within(spans, "training.train")
    in_sample = within(spans, "model.sample")
    m = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.busy_s"] = sum(spans[i].duration for i in mine if top[i])
        m[f"{layer}.self_s"] = sum(selfs[i] for i in mine)

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def attr(name, key, where=None):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ())
                   if spans[i].attrs is not None and (where is None or where(i)))

    m["cli.failed"] = attr("cli.main", "failed")
    m["config.resolve_s"] = total_s("config.resolve")

    steps = attr("training.train", "steps")
    logprob_calls = [i for i in by_name.get("model.token_logprobs", ()) if in_train[i]]
    m["training.train_s"] = total_s("training.train")
    m["training.pretrain_s"] = total_s("training.pretrain_nll")
    m["training.steps"] = steps
    m["training.adamw_s"] = total_s("training.adamw")
    m["training.adamw_calls"] = calls("training.adamw")
    m["training.ref_logprob_calls_per_step"] = _ratio(
        sum(not spans[i].attrs["grad"] for i in logprob_calls), steps)
    m["training.policy_logprob_calls_per_step"] = _ratio(
        sum(spans[i].attrs["grad"] for i in logprob_calls), steps)
    m["training.skipped_examples"] = attr("training.train", "skipped")
    m["training.ckpt_save_s"] = total_s("training.save_checkpoint")
    m["training.ckpt_load_s"] = total_s("training.load_checkpoint")
    m["training.ckpt_calls"] = calls("training.save_checkpoint") + calls("training.load_checkpoint")
    m["training.ckpt_bytes"] = (attr("training.save_checkpoint", "bytes")
                                + attr("training.load_checkpoint", "bytes"))
    m["training.winrate_s"] = total_s("training.evaluate_winrate")

    forward = by_name.get("model.forward_logits", [])
    lengths = [spans[i].attrs["n"] for i in forward]
    m["model.forward_calls"] = len(forward)
    m["model.forward_s"] = total_s("model.forward_logits")
    m["model.forward_tokens"] = sum(lengths)
    m["model.forward_tokens_sq"] = sum(n * n for n in lengths)
    lo = 0
    for suffix, hi in FORWARD_BUCKETS.items():
        chosen = [(i, n) for i, n in zip(forward, lengths) if lo < n <= hi]
        m[f"model.forward_us_per_token.{suffix}"] = 1e6 * _ratio(
            sum(spans[i].duration for i, _ in chosen), sum(n for _, n in chosen))
        lo = hi
    m["model.token_logprobs_calls"] = calls("model.token_logprobs")
    m["model.token_logprobs_s"] = total_s("model.token_logprobs")
    sample_ms = [1e3 * spans[i].duration for i in by_name.get("model.sample", ())]
    sampled = attr("model.sample", "tokens")
    m["model.sample_calls"] = len(sample_ms)
    m["model.sample_s"] = sum(sample_ms) / 1e3
    m["model.sampled_tokens"] = sampled
    m["model.sample_us_per_token"] = 1e3 * _ratio(sum(sample_ms), sampled)
    m["model.sample_ms.p50"] = float(np.percentile(sample_ms, 50)) if sample_ms else 0.0
    m["model.sample_ms.p90"] = float(np.percentile(sample_ms, 90)) if sample_ms else 0.0
    m["model.prefix_tokens_per_sampled_token"] = _ratio(
        sum(n for i, n in zip(forward, lengths) if in_sample[i]), sampled)

    m["autodiff.gradients_calls"] = calls("autodiff.gradients")
    m["autodiff.backward_s"] = total_s("autodiff.gradients")
    m["autodiff.tape_nodes_per_step"] = _ratio(
        attr("autodiff.gradients", "nodes", where=in_train.__getitem__), steps)
    m["autodiff.inference_tape_nodes"] = attr("model.forward_logits", "nodes")

    for name in ("losses.batch_loss", "losses.pair_loss", "schedules.weights"):
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_s"] = total_s(name)

    m["data.build_pairs_s"] = total_s("data.build_onpolicy_pairs")
    m["data.pairs_built"] = attr("data.build_onpolicy_pairs", "pairs")
    m["data.pair_yield"] = _ratio(m["data.pairs_built"],
                                  attr("data.build_onpolicy_pairs", "prompts"))
    m["data.oracle_calls"] = calls("data.oracle_score")
    m["data.oracle_s"] = total_s("data.oracle_score")
    cells = attr("data.edit_distance", "cells")
    m["data.edit_distance_calls"] = calls("data.edit_distance")
    m["data.edit_distance_s"] = total_s("data.edit_distance")
    m["data.edit_distance_cells"] = cells
    m["data.edit_distance_ns_per_cell"] = 1e9 * _ratio(m["data.edit_distance_s"], cells)
    m["data.save_pairs_s"] = total_s("data.save_pairs")
    m["data.load_pairs_s"] = total_s("data.load_pairs")

    for name in ("kl_per_position", "prob_per_position", "ref_margin_density",
                 "loss_by_length_gap"):
        m[f"analysis.{name}_s"] = total_s(f"analysis.{name}")

    rows = calls("mdp.suboptimality_bound")
    for name in ("random_mdp", "soft_value_iteration", "policy_value"):
        m[f"mdp.{name}_calls"] = calls(f"mdp.{name}")
        m[f"mdp.{name}_s"] = total_s(f"mdp.{name}")
    m["mdp.suboptimality_bound_s"] = total_s("mdp.suboptimality_bound")
    m["mdp.policy_value_calls_per_row"] = _ratio(calls("mdp.policy_value"), rows)
    m["mdp.occupancy_tv_s"] = total_s("mdp.occupancy_tv")
    m["mdp.violations"] = attr("mdp.suboptimality_bound", "violation")
    return m
