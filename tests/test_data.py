import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from decaypo.data import (PairError, PreferencePair, RewardOracle, UnknownPromptError,
                          build_onpolicy_pairs, edit_distance, load_pairs,
                          oracle_score, response_bytes, save_pairs,
                          synthetic_corpus)
from decaypo.model import BOS, EOS, PolicyModel, TokenSequence


def make_pairs(n):
    return [PreferencePair(id=f"p{i}", prompt=b"q?", chosen=bytes([65 + i % 20]),
                           rejected=b"zz", meta={"k": i}) for i in range(n)]


class TestPreferencePair:
    def test_invariants(self):
        """Outside a file the message names the id, if any, and no line."""
        with pytest.raises(PairError, match=r"^prompt must be nonempty \(id='x'\)$") as err:
            PreferencePair(id="x", prompt=b"", chosen=b"a", rejected=b"b")
        assert err.value.line_no is None
        with pytest.raises(PairError, match="^chosen and rejected must differ$"):
            PreferencePair(id="", prompt=b"q", chosen=b"a", rejected=b"a")


class TestPersistence:
    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        save_pairs([], path)
        assert path.read_bytes() == b""
        assert load_pairs(path) == []

    def test_single_pair_one_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        save_pairs(make_pairs(1), path)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        record = json.loads(text)
        assert list(record) == ["id", "prompt", "chosen", "rejected", "meta"]

    def test_large_roundtrip(self, tmp_path):
        pairs = make_pairs(1000)
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        loaded = load_pairs(path)
        assert loaded == pairs

    def test_non_utf8_bytes_roundtrip(self, tmp_path):
        pairs = [PreferencePair(id="b", prompt=bytes([0xff, 0xfe]),
                                chosen=bytes(range(128, 140)), rejected=b"ok")]
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    def test_b64_prefix_collision_roundtrip(self, tmp_path):
        pairs = [PreferencePair(id="c", prompt=b"b64:not-actually", chosen=b"a",
                                rejected=b"b")]
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"id":"a","prompt":"q","chosen":"x","rejected":"y","meta":{}}'
        path.write_text(good + "\n" + good + "\n{broken\n")
        with pytest.raises(PairError) as err:
            load_pairs(path)
        assert err.value.line_no == 3

    def test_record_that_is_not_an_object_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"id":"a","prompt":"q","chosen":"x","rejected":"y","meta":{}}'
        path.write_text(good + "\n[1]\n")
        with pytest.raises(PairError, match="^line 2: record is not a JSON object$") as err:
            load_pairs(path)
        assert err.value.line_no == 2

    def test_validation_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"id":"a","prompt":"q","chosen":"x","rejected":"y","meta":{}}'
        dup = '{"id":"dup","prompt":"q","chosen":"x","rejected":"x","meta":{}}'
        path.write_text(good + "\n" + good + "\n" + dup + "\n")
        with pytest.raises(PairError) as err:
            load_pairs(path)
        assert err.value.line_no == 3
        assert str(err.value) == "line 3: chosen and rejected must differ (id='dup')"

    @pytest.mark.parametrize("key", ["prompt", "chosen", "rejected"])
    @pytest.mark.parametrize("value", [5, None, ["q"], {"b64": "cQ=="}])
    def test_non_string_field_names_line_and_key(self, tmp_path, key, value):
        good = {"id": "a", "prompt": "q", "chosen": "x", "rejected": "y", "meta": {}}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n")
        with pytest.raises(PairError, match=repr(key)) as err:
            load_pairs(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("key", ["prompt", "chosen", "rejected"])
    @pytest.mark.parametrize("text", ["b64:abc", "b64:cQ=*", "b64:c Q==", "b64:c\u00e9Q="])
    def test_bad_base64_names_line_and_key(self, tmp_path, key, text):
        good = {"id": "a", "prompt": "q", "chosen": "x", "rejected": "y", "meta": {}}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: text}) + "\n")
        with pytest.raises(PairError, match=repr(key)) as err:
            load_pairs(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("key", ["prompt", "chosen", "rejected"])
    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb"], ids=["high", "low"])
    def test_lone_surrogate_names_line_and_key(self, tmp_path, key, text):
        good = {"id": "a", "prompt": "q", "chosen": "x", "rejected": "y", "meta": {}}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: text}) + "\n")
        with pytest.raises(PairError, match=repr(key)) as err:
            load_pairs(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("bad", [b'{"id":"a","prompt":"q\xff","chosen":"x","rejected":"y"}',
                                     b"\xef\xbb", b"\xed\xa0\x80"],
                             ids=["latin-1", "truncated", "encoded-surrogate"])
    def test_line_that_is_not_utf8_is_named(self, tmp_path, bad):
        good = b'{"id":"a","prompt":"q","chosen":"x","rejected":"y","meta":{}}'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(good + b"\n" + good + b"\n" + bad + b"\n")
        with pytest.raises(PairError, match="not UTF-8") as err:
            load_pairs(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings_split_records(self, tmp_path, end):
        good = b'{"id":"a","prompt":"q","chosen":"x","rejected":"y","meta":{}}'
        path = tmp_path / "pairs.jsonl"
        path.write_bytes(good + end + good + end)
        assert len(load_pairs(path)) == 2
        path.write_bytes(good + end + good + end + b"{broken" + end)
        with pytest.raises(PairError) as err:
            load_pairs(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"id": ' + "1" * 5000 + "}"],
                             ids=["deep", "long-integer"])
    def test_json_the_parser_refuses_is_named(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(PairError) as err:
            load_pairs(path)
        assert err.value.line_no == 1

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","prompt":"q","chosen":"x"}\n')
        with pytest.raises(PairError):
            load_pairs(path)


# Pairs-file lines for the fuzz test: raw bytes, and JSON records whose
# fields may be any JSON value, text with lone surrogates, or base64 text,
# written ASCII-escaped or raw (lone surrogates then become invalid UTF-8),
# with a few bytes spliced in anywhere.
_TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)
_FIELD = st.one_of(_TEXT, _TEXT.map("b64:".__add__),
                   st.text("AQcd09+/= ", max_size=12).map("b64:".__add__),
                   st.integers(), st.floats(), st.none(), st.lists(st.integers(), max_size=2))
_RECORD = st.one_of(
    st.fixed_dictionaries({k: _FIELD for k in ("id", "prompt", "chosen", "rejected")},
                          optional={"meta": _FIELD}),
    st.dictionaries(st.sampled_from(["id", "prompt", "chosen", "rejected", "meta"]), _FIELD))
_ENCODED = st.builds(lambda record, ascii: json.dumps(record, ensure_ascii=ascii)
                     .encode("utf-8", "surrogatepass"), _RECORD, st.booleans())
_LINES = st.one_of(
    st.binary(max_size=120), _ENCODED,
    st.tuples(_ENCODED, st.binary(min_size=1, max_size=4), st.integers(0, 200))
    .map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]))


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINES, min_size=1, max_size=3))
def test_any_pairs_line_gives_pairs_or_a_pair_error(tmp_path, lines):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        pairs = load_pairs(path)
    except PairError as e:
        assert e.line_no is not None
        return
    for p in pairs:
        assert all(type(x) is bytes for x in (p.prompt, p.chosen, p.rejected))


class TestEditDistance:
    def test_cases(self):
        assert edit_distance(b"", b"") == 0
        assert edit_distance(b"abc", b"") == 3
        assert edit_distance(b"", b"abcd") == 4
        assert edit_distance(b"kitten", b"sitting") == 3
        assert edit_distance(b"abc", b"abc") == 0
        assert edit_distance(b"abc", b"abd") == 1

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            a = bytes(rng.integers(97, 102, size=rng.integers(0, 8)).tolist())
            b = bytes(rng.integers(97, 102, size=rng.integers(0, 8)).tolist())
            c = bytes(rng.integers(97, 102, size=rng.integers(0, 8)).tolist())
            assert edit_distance(a, b) == edit_distance(b, a)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_matches_full_table_dp(self, rng):
        def full_table(a, b):
            d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)]
                 for i in range(len(a) + 1)]
            for i in range(1, len(a) + 1):
                for j in range(1, len(b) + 1):
                    d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                                  d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
            return d[-1][-1]

        for _ in range(300):
            a = bytes(rng.integers(97, 101, size=rng.integers(0, 30)).tolist())
            b = bytes(rng.integers(97, 101, size=rng.integers(0, 12)).tolist())
            assert edit_distance(a, b) == full_table(a, b)
        # past one 64-bit word and up to 300 bytes, either side the longer
        for _ in range(40):
            a = bytes(rng.integers(97, 101, size=rng.integers(60, 301)).tolist())
            b = bytes(rng.integers(97, 101, size=rng.integers(0, 80)).tolist())
            assert edit_distance(a, b) == edit_distance(b, a) == full_table(a, b)
        # every byte value, over alphabets from 2 to all 256 of them
        every = bytes(range(256))
        assert edit_distance(every, every[::-1]) == full_table(every, every[::-1])
        assert edit_distance(every, every[1:] + every[:1]) == 2
        for _ in range(40):
            high = int(rng.integers(2, 257))
            a = bytes(rng.integers(0, high, size=rng.integers(0, 120)).tolist())
            b = bytes(rng.integers(0, high, size=rng.integers(0, 120)).tolist())
            assert edit_distance(a, b) == full_table(a, b)
        # empty operands on either side
        for n in (0, 1, 63, 64, 65, 300):
            text = bytes(rng.integers(0, 256, size=n).tolist())
            assert edit_distance(text, b"") == edit_distance(b"", text) == n


class TestOracle:
    def setup_method(self):
        self.oracle = RewardOracle(kind="target_match", targets={b"q?": b"abcd"})

    def test_exact_match_is_zero(self):
        assert oracle_score(self.oracle, b"q?", b"abcd") == 0.0

    def test_off_by_one(self):
        assert oracle_score(self.oracle, b"q?", b"abce") == -1.0

    def test_zero_coefficient_equals_target_match(self):
        penalized = RewardOracle(kind="length_penalized_match",
                                 targets={b"q?": b"abcd"}, brevity_coefficient=0.0)
        for resp in (b"abcd", b"x", b"abcdefgh"):
            assert oracle_score(penalized, b"q?", resp) == \
                oracle_score(self.oracle, b"q?", resp)

    def test_unknown_prompt(self):
        with pytest.raises(UnknownPromptError):
            oracle_score(self.oracle, b"??", b"x")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RewardOracle(kind="mystery")


class TestSyntheticCorpus:
    def test_deterministic(self):
        assert synthetic_corpus(10, seed=4) == synthetic_corpus(10, seed=4)

    def test_lengths_controlled(self):
        corpus = synthetic_corpus(30, seed=2, min_target_len=3, max_target_len=6)
        assert len(corpus) == 30
        for prompt, target in corpus.items():
            assert prompt.endswith(b"?")
            assert 3 <= len(target) <= 6

    def test_more_prompts_than_exist_rejected(self):
        # 8 letters give 8**4 distinct 4-letter prompts
        with pytest.raises(ValueError, match="4096 distinct"):
            synthetic_corpus(4097, seed=1)


class TestResponseBytes:
    def test_strips_eos_and_specials(self):
        seq = TokenSequence([BOS, 97], [98, BOS, 99, EOS])
        assert response_bytes(seq) == b"bc"


class TestOnPolicyPairs:
    def setup_method(self):
        self.model = PolicyModel(dim=16, context=48, blocks=2, seed=1)
        r = np.random.default_rng(7)
        self.model.params["w_out"] = r.normal(
            0, 0.1, size=self.model.params["w_out"].shape)
        self.corpus = synthetic_corpus(6, seed=0, min_target_len=3, max_target_len=6)
        self.oracle = RewardOracle(kind="target_match", targets=self.corpus)

    def test_deterministic(self):
        a, _ = build_onpolicy_pairs(self.model, self.oracle, list(self.corpus),
                                    K=3, temperature=0.8, seed=5, max_len=12)
        b, _ = build_onpolicy_pairs(self.model, self.oracle, list(self.corpus),
                                    K=3, temperature=0.8, seed=5, max_len=12)
        assert a == b

    def test_chosen_strictly_better(self):
        pairs, _ = build_onpolicy_pairs(self.model, self.oracle, list(self.corpus),
                                        K=3, temperature=0.8, seed=5, max_len=12)
        for p in pairs:
            assert oracle_score(self.oracle, p.prompt, p.chosen) > \
                oracle_score(self.oracle, p.prompt, p.rejected)

    def test_temperature_zero_all_tie(self):
        pairs, skipped = build_onpolicy_pairs(
            self.model, self.oracle, list(self.corpus), K=2, temperature=0.0,
            seed=5, max_len=12)
        assert pairs == []
        assert skipped == len(self.corpus)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_onpolicy_pairs(self.model, self.oracle, [], K=1,
                                 temperature=0.8, seed=0)

    @pytest.mark.parametrize("coefficient", [float("nan"), float("inf")])
    def test_non_finite_oracle_score_rejected(self, coefficient):
        oracle = RewardOracle(kind="length_penalized_match", targets=self.corpus,
                              brevity_coefficient=coefficient)
        with pytest.raises(ValueError, match="non-finite oracle score"):
            build_onpolicy_pairs(self.model, oracle, list(self.corpus),
                                 K=3, temperature=0.8, seed=5, max_len=12)

    def test_length_preferring_oracle_builds_verbose_corpus(self):
        # negative brevity coefficient rewards length
        oracle = RewardOracle(kind="length_penalized_match", targets=self.corpus,
                              brevity_coefficient=-2.0)
        pairs, _ = build_onpolicy_pairs(self.model, oracle, list(self.corpus),
                                        K=4, temperature=1.0, seed=9, max_len=12)
        assert pairs
        mean_chosen = np.mean([len(p.chosen) for p in pairs])
        mean_rejected = np.mean([len(p.rejected) for p in pairs])
        assert mean_chosen > mean_rejected
