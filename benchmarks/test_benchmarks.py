"""Self-tests of the benchmark: span and stretch arithmetic, wrapping, and
that a broken artifact makes a run report a failure.

    python3 -m pytest benchmarks -q
"""

import json
import os
import sys

import pytest

import decaypo.analysis
import decaypo.cli
import decaypo.model
import decaypo.training
import harness
import tracing
import workloads
from tracing import Span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_times_subtract_the_time_children_cover():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("config.resolve", 1.0, 2.0, parent=0),
        Span("training.train", 3.0, 8.0, parent=0),
        Span("model.token_logprobs", 4.0, 6.0, parent=2),
        Span("model.forward_logits", 4.5, 5.5, parent=3),
        Span("autodiff.gradients", 6.0, 7.5, parent=2),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 1.5, 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("cli.main", 0.0, 10.0),
             Span("data.load_pairs", 2.0, 6.0, parent=0),
             Span("data.save_pairs", 4.0, 12.0, parent=0)]  # overlaps, ends late
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_metrics_from_a_hand_built_tree():
    spans = [
        Span("training.train", 0.0, 10.0, attrs={"steps": 2, "skipped": 1}),
        Span("model.token_logprobs", 1.0, 4.0, parent=0, attrs={"grad": True}),
        Span("model.forward_logits", 1.5, 3.5, parent=1,
             attrs={"n": 10, "grad": True, "nodes": 0}),
        Span("model.token_logprobs", 5.0, 6.0, parent=0, attrs={"grad": False}),
        Span("model.forward_logits", 5.0, 6.0, parent=3,
             attrs={"n": 40, "grad": False, "nodes": 7}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["model.calls"] == 4
    assert m["model.busy_s"] == pytest.approx(4.0)       # nested spans count once
    assert m["model.self_s"] == pytest.approx(1.0 + 2.0 + 0.0 + 1.0)
    assert m["training.self_s"] == pytest.approx(6.0)
    assert m["training.policy_logprob_calls_per_step"] == 0.5
    assert m["training.ref_logprob_calls_per_step"] == 0.5
    assert m["training.skipped_examples"] == 1
    assert m["model.forward_tokens_sq"] == 10 * 10 + 40 * 40
    assert m["model.forward_us_per_token.len16"] == pytest.approx(2.0 / 10 * 1e6)
    assert m["model.forward_us_per_token.len64"] == pytest.approx(1.0 / 40 * 1e6)
    assert m["model.forward_us_per_token.len256"] == 0.0
    assert m["autodiff.inference_tape_nodes"] == 7
    assert set(m) == set(tracing.PER_LAYER) - {"trace.overhead_s"}


def _package_bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "decaypo" or name.startswith("decaypo.")
            for attr, value in vars(module).items()}


def test_unwrap_restores_every_patched_attribute():
    before = _package_bindings()
    step = decaypo.training.AdamW.__dict__["step"]
    tracer = tracing.Tracer()
    tracer.wrap()
    try:
        # wrapped where it is defined and where other layers import it
        assert decaypo.analysis.token_logprobs is decaypo.model.token_logprobs
        assert decaypo.model.token_logprobs is not before[("decaypo.model", "token_logprobs")]
        assert decaypo.training.AdamW.__dict__["step"] is not step
        assert len(tracer._patches) > len(tracing.traced_functions())
    finally:
        tracer.unwrap()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert decaypo.training.AdamW.__dict__["step"] is step


def test_stopwatch_restores_every_patched_attribute():
    before = _package_bindings()
    with tracing.Stopwatch() as watch:
        assert decaypo.analysis.token_logprobs is before[("decaypo.model", "token_logprobs")]
        assert decaypo.mdp.policy_value is not before[("decaypo.mdp", "policy_value")]
        model = decaypo.model.PolicyModel(dim=4, context=16, seed=0)
        decaypo.analysis.prob_per_position(model, [decaypo.model.make_sequence(b"ab?", b"c")], 4)
    after = _package_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert watch.names == ["model.forward_logits"] * 2 and watch.ends == sorted(watch.ends)


def test_stopwatch_leaves_probes_out_of_its_stretches():
    watch = tracing.Stopwatch(probe=lambda: 0.0, every=3600.0)
    watch.mark("<pass>", probe=True)
    watch.mark("a")
    watch.mark("</pass>", probe=True)
    assert watch.probe_at == [0, 2] and watch.probe_s == [0.0, 0.0]
    assert watch.ends[0] <= watch.starts[0] <= watch.ends[1] == watch.starts[1]
    assert watch.stretches().tolist() == [watch.ends[1] - watch.starts[0],
                                          watch.ends[2] - watch.starts[1]]


def test_stretches_scale_by_the_probes_around_them():
    ref = harness.PROBE_REF_S
    watch = tracing.Stopwatch()
    watch.names = ["<pass>", "<train>", "</train>", "</pass>"]
    watch.ends, watch.starts = [0.0, 1.0, 3.0, 5.5], [0.0, 1.0, 3.5, 6.0]
    watch.probe_at, watch.probe_s = [0, 2, 3], [ref, 3 * ref, ref]
    scaled = harness.scaled_stretches(watch)
    # raw stretches 1, 2 and 2 s; mean slowdown 2 around each
    assert scaled.tolist() == pytest.approx([0.5, 1.0, 1.0])
    assert harness.stage_seconds(watch, scaled, "train") == pytest.approx(1.0)
    assert harness.stage_seconds(watch, scaled, "pass") == pytest.approx(2.5)


def test_traced_calls_nest_through_imported_names():
    model = decaypo.model.PolicyModel(dim=4, context=16, seed=0)
    seq = decaypo.model.make_sequence(b"ab?", b"cd")
    with tracing.Tracer() as tracer:
        decaypo.analysis.prob_per_position(model, [seq], 4)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names[:3] == [("analysis.prob_per_position", -1),
                         ("model.token_logprobs", 0), ("model.forward_logits", 1)]
    forward = tracer.spans[2].attrs
    assert forward["n"] == 7 and not forward["grad"] and forward["nodes"] > 0


def _tiny_mdp():
    w = workloads.MdpWorkload()
    w.shapes = (("small", 3, 2, 2, 3), ("large", 2, 3, 2, 4))
    return w


def test_traced_run_matches_untraced_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result, report = harness.run(_tiny_mdp(), seed=5, seconds=0, trace=True, import_s=0.0)
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    assert result["metrics"]["mdp.policy_value_calls_per_row"]["value"] == 4
    assert report["artifact_digests"].keys() == {
        "small.csv", "small.csv.resolved.cfg", "large.csv", "large.csv.resolved.cfg"}


def test_corrupted_input_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = _tiny_mdp()
    setup = w.setup

    def corrupt_setup(seed, inputs):
        setup(seed, inputs)
        path = os.path.join(inputs, "params.json")
        with open(path, encoding="utf-8") as f:
            params = json.load(f)
        params["gammas"][0] = 1.5      # outside [0, 1]: mdp-verify must refuse
        with open(path, "w", encoding="utf-8") as f:
            json.dump(params, f)

    monkeypatch.setattr(w, "setup", corrupt_setup)
    result, report = harness.run(w, seed=5, seconds=0, trace=False, import_s=0.0)
    assert not result["correct"] and result["failed"] > 0
    assert any("mdp-verify" in note for note in report["failures"])


def test_changed_artifact_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = _tiny_mdp()
    run_pass, calls = w.run_pass, []

    def flaky_pass(seed, inputs, out, checks, watch):
        rates = run_pass(seed, inputs, out, checks, watch)
        calls.append(1)
        if len(calls) == 2:
            with open(os.path.join(out, "large.csv"), "ab") as f:
                f.write(b"\n")
        return rates

    monkeypatch.setattr(w, "run_pass", flaky_pass)
    result, report = harness.run(w, seed=5, seconds=0, trace=False, import_s=0.0)
    assert result["failed"] == 1 and not result["correct"]
    assert "large.csv differs" in report["failures"][0]


def test_train_lengths_run_from_short_toward_long():
    lengths = workloads.TrainWorkload().lengths()
    assert lengths[0] == 8 and 190 <= lengths[-1] <= 200
    assert sorted(lengths)[len(lengths) // 2] < 32     # most of them short


def test_train_pass_checks_hold(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = workloads.TrainWorkload()
    w.n_pairs, w.pretrain_steps, w.batch_size, w.max_len = 4, 1, 2, 12
    assert w.lengths() == [8, 8, 9, 11]
    result, report = harness.run(w, seed=3, seconds=0, trace=False, import_s=0.0)
    assert result["correct"], report["failures"]
    assert result["metrics"]["primary_per_s"]["value"] > 0
    assert {"metrics.jsonl", "policy.ckpt", "sft.ckpt", "bias.csv"} <= report["artifact_digests"].keys()


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
