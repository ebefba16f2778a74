"""Tests for stages/llmdata.py (PII redaction, Gopher repetition
filters, sequence packing)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from opentelemetry_collector_contrib_ray.stages.llmdata import (
    c4_clean,
    gopher_stats,
    pack_sequences,
    redact_pii,
    resample_mixture,
)


class TestRedactPii:
    def test_all_kinds(self):
        t = pa.table(
            {
                "text": [
                    "mail a@b.com from 10.1.2.3 call 555-123-4567",
                    "clean text with no pii",
                    "two mails x@y.io and q.r+z@dom.co.uk",
                ]
            }
        )
        out = redact_pii(t).to_pylist()
        assert out[0]["redacted"] == "mail <EMAIL> from <IP> call <PHONE>"
        assert out[0]["n_email"] == 1 and out[0]["n_ip"] == 1 and out[0]["n_phone"] == 1
        assert out[1]["redacted"] == "clean text with no pii"
        assert out[1]["n_email"] == 0
        assert out[2]["n_email"] == 2 and "<EMAIL>" in out[2]["redacted"]

    def test_order_email_before_ip(self):
        # an address like 1.2.3.4@x.com must be eaten by the email rule
        t = pa.table({"text": ["ping 1.2.3.4@x.com"]})
        out = redact_pii(t).to_pylist()[0]
        assert out["redacted"] == "ping <EMAIL>"
        assert out["n_ip"] == 0


class TestGopherStats:
    def test_dup_and_alpha_fracs(self):
        t = pa.table(
            {
                "text": [
                    "spam spam spam spam",  # dup-heavy
                    "the quick brown fox jumps",  # clean
                    "1 2 3 4 5",  # numeric, no alpha
                ]
            }
        )
        out = gopher_stats(t).to_pylist()
        assert out[0]["dup_word_frac"] == pytest.approx(0.75)
        assert out[1]["dup_word_frac"] == 0.0
        assert out[1]["alpha_word_frac"] == 1.0
        assert out[2]["alpha_word_frac"] == 0.0
        assert not out[2]["passes_gopher"]

    def test_passes_gopher_on_normal_text(self):
        t = pa.table({"text": ["the quick brown fox jumps over a lazy dog today"]})
        assert gopher_stats(t).to_pylist()[0]["passes_gopher"]

    def test_symbol_ratio(self):
        t = pa.table({"text": ["# # # heading stuff ..."]})
        r = gopher_stats(t).to_pylist()[0]
        assert r["symbol_word_ratio"] == pytest.approx(4 / 6)
        assert not r["passes_gopher"]


class TestDecontamination:
    def test_flags_docs_sharing_ngrams(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            NgramDecontaminator,
            build_eval_grams,
        )

        eval_texts = ["the quick brown fox jumps over the lazy"]
        grams = build_eval_grams(eval_texts, n=8)
        t = pa.table(
            {
                "doc_id": [1, 2, 3],
                "text": [
                    "prefix words the quick brown fox jumps over the lazy dog suffix",
                    "completely different content with no overlap at all here",
                    "the quick brown fox jumps over the sleepy dog",  # 7-gram only
                ],
            }
        )
        out = NgramDecontaminator(grams, n=8)(t).to_pylist()
        assert [r["contaminated"] for r in out] == [True, False, False]

    def test_short_docs_never_flagged(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            NgramDecontaminator,
            build_eval_grams,
        )

        grams = build_eval_grams(["one two three four five six seven eight"], n=8)
        t = pa.table({"text": ["one two three"]})
        assert NgramDecontaminator(grams, n=8)(t).to_pylist()[0]["contaminated"] is False

    def test_empty_eval_set(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            NgramDecontaminator,
            build_eval_grams,
        )

        grams = build_eval_grams([], n=8)
        t = pa.table({"text": ["a b c d e f g h i"]})
        assert NgramDecontaminator(grams, n=8)(t).to_pylist()[0]["contaminated"] is False

    def test_planted_windows_flagged_over_dataset(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            NgramDecontaminator,
            build_eval_grams,
        )

        eval_texts = [" ".join(f"ev{i}w{j}" for j in range(12)) for i in range(5)]
        rows = []
        for i in range(50):
            words = [f"doc{i}w{j}" for j in range(20)]
            if i % 7 == 0:  # plant a contaminated window
                words[5:13] = eval_texts[i % 5].split(" ")[2:10]
            rows.append({"doc_id": i, "text": " ".join(words)})
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        grams = build_eval_grams(eval_texts, n=8)
        flags = (
            ds.map_batches(NgramDecontaminator(grams, n=8), batch_format="pyarrow")
            .to_pandas().set_index("doc_id")["contaminated"]
        )
        # planted docs really are contaminated, and only they are
        planted = [i for i in range(50) if i % 7 == 0]
        assert flags[planted].all()
        assert not flags.drop(planted).any()


class TestPackSequences:
    def _docs(self):
        rows = []
        for src, ndocs, wpd in (("a", 5, 7), ("b", 3, 4)):
            for i in range(ndocs):
                rows.append(
                    {
                        "source": src,
                        "doc_id": i,
                        "text": " ".join(f"{src}{i}w{j}" for j in range(wpd)),
                    }
                )
        return pd.DataFrame(rows)

    def test_pack_structure(self, ray_session):
        df = self._docs()
        ds = ray.data.from_pandas(df)
        out = pack_sequences(ds, seq_len=10).to_pandas()
        a = out[out["source"] == "a"].sort_values("chunk_id")
        # source a: 5 docs × 7 words = 35 tokens → chunks 10,10,10,5
        assert list(a["chunk_len"]) == [10, 10, 10, 5]
        assert a.iloc[0]["first_tok"] == "a0w0"
        assert a.iloc[-1]["last_tok"] == "a4w6"
        b = out[out["source"] == "b"].sort_values("chunk_id")
        # source b: 12 tokens → 10, 2
        assert list(b["chunk_len"]) == [10, 2]

    def test_token_conservation_and_order(self, ray_session):
        df = self._docs()
        ds = ray.data.from_pandas(df)
        out = pack_sequences(ds, seq_len=10, emit_tokens=True).to_pandas()
        a = out[out["source"] == "a"].sort_values("chunk_id")
        flat = [w for toks in a["tokens"] for w in toks]
        expect = [
            w
            for i in range(5)
            for w in df[(df.source == "a") & (df.doc_id == i)].iloc[0]["text"].split(" ")
        ]
        assert flat == expect

    def test_exact_multiple_no_tail(self, ray_session):
        df = pd.DataFrame(
            {"source": ["s"] * 2, "doc_id": [0, 1], "text": ["a b c d e", "f g h i j"]}
        )
        out = pack_sequences(ray.data.from_pandas(df), seq_len=5).to_pandas()
        assert list(out.sort_values("chunk_id")["chunk_len"]) == [5, 5]


class TestC4Clean:
    def _run(self, texts, **kw):
        t = pa.table({"text": pa.array(texts, pa.string())})
        return c4_clean(t, **kw)

    def test_line_rules(self):
        doc = "\n".join(
            [
                "Good first line here.",          # kept
                "two words.",                     # < 3 words
                "no terminal punctuation at all", # no terminal punct
                "Uses JavaScript for rendering.", # bad substring (ci)
                "Lorem Ipsum dolor sit amet.",    # bad substring (ci)
                "brace { inside this line.",      # raw brace
                'Quoted line ends with a quote."',  # kept (quote terminal)
                "Another good line right here!",  # kept
            ]
        )
        out = self._run([doc])
        assert out["clean_text"][0].as_py() == (
            'Good first line here.\nQuoted line ends with a quote."\n'
            "Another good line right here!"
        )
        assert out["n_lines_kept"][0].as_py() == 3
        assert out["kept"][0].as_py() is True

    def test_doc_gate_and_empty(self):
        out = self._run(["One good line is fine.", "", None], min_lines=2)
        assert out["n_lines_kept"].to_pylist() == [1, 0, 0]
        assert out["kept"].to_pylist() == [False, False, False]
        assert out["clean_text"].to_pylist() == ["One good line is fine.", "", ""]

    def test_multi_space_word_count(self):
        # runs of spaces must not inflate the word count
        out = self._run(["a  b."], min_lines=1)
        assert out["n_lines_kept"][0].as_py() == 0
        out = self._run(["a  b  c."], min_lines=1)
        assert out["n_lines_kept"][0].as_py() == 1

    def test_bad_substrings_follow_python_lower(self):
        # str.lower maps U+0130 to "i" + U+0307, so "JavaScr\u0130pt"
        # holds no "javascript" and its line stays
        lines = ["Uses JavaScrİpt for this.", "Uses JAVASCRIPT for this.", "Lorem İpsum dolor sit.", "Now Keep this line."]
        out = self._run(["\n".join(lines)], min_lines=1)
        want = [ln for ln in lines if not any(b in ln.lower() for b in ("javascript", "lorem ipsum"))]
        assert want == [lines[0], lines[2], lines[3]]
        assert out["clean_text"][0].as_py() == "\n".join(want)


class TestResampleMixture:
    def test_multiplicities(self, ray_session):
        df = pd.DataFrame(
            {
                "doc_id": np.arange(1000),
                "source": ["a" if i % 2 == 0 else "b" for i in range(1000)],
            }
        )
        ds = ray.data.from_pandas(df)
        out = resample_mixture(
            ds, {"a": 2.5, "b": 0.25}, mod=1000
        ).to_pandas()
        cnt = out.groupby("source")["doc_id"].agg(["count", "nunique"])
        # a: 500 docs × (2 + [id%1000 < 500]) → even ids 0..998; 250 ids
        # below 500 get 3 copies, 250 get 2 → 1250
        assert cnt.loc["a", "count"] == 1250
        assert cnt.loc["a", "nunique"] == 500
        # b: floor 0; only odd ids < 250 survive (125 of them), 1 copy
        assert cnt.loc["b", "count"] == 125
        assert cnt.loc["b", "nunique"] == 125

    def test_missing_source_defaults_to_one(self, ray_session):
        df = pd.DataFrame({"doc_id": [1, 2], "source": ["x", "x"]})
        out = resample_mixture(ray.data.from_pandas(df), {}).to_pandas()
        assert len(out) == 2


class TestDuplicatePassages:
    def test_injected_passage_found(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            duplicate_passages,
        )

        passage = " ".join(f"shared{j}" for j in range(10))
        rows = []
        for i in range(20):
            base = " ".join(f"w{i}x{j}" for j in range(30))
            text = base + " " + passage if i in (3, 7, 9) else base
            rows.append({"doc_id": i, "text": text})
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = duplicate_passages(
            ds, window=8, min_docs=2, num_buckets=4
        ).to_pandas()
        # the 10-word passage contributes 10-8+1 = 3 repeated windows;
        # nothing else repeats across docs
        assert len(out) == 3
        assert set(out["n_docs"]) == {3}
        assert set(out["min_doc_id"]) == {3}

    def test_no_repeats(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            duplicate_passages,
        )

        rows = [
            {"doc_id": i, "text": " ".join(f"u{i}v{j}" for j in range(40))}
            for i in range(10)
        ]
        out = duplicate_passages(
            ray.data.from_pandas(pd.DataFrame(rows)), window=8, num_buckets=4
        ).to_pandas()
        assert len(out) == 0


class TestUnigramLm:
    def test_vocab_and_scoring(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            UnigramScorer,
            corpus_word_counts,
            top_vocab,
        )

        rows = [
            {"doc_id": 0, "text": "a a a b c"},
            {"doc_id": 1, "text": "a b b zz"},
            {"doc_id": 2, "text": "c c qq rr"},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        counts = corpus_word_counts(ds)
        vocab = top_vocab(counts, 3)
        # counts: a=4 b=3 c=3 zz=1 qq=1 rr=1; top-3 by (count desc,
        # word asc) = a, b, c
        assert list(vocab["word"]) == ["a", "b", "c"]
        assert list(vocab["c"]) == [4, 3, 3]
        total = int(counts.to_pandas()["c"].sum())
        assert total == 13
        scorer = UnigramScorer(
            vocab["word"].to_numpy(), vocab["c"].to_numpy(), total
        )
        out = ds.map_batches(scorer, batch_format="pyarrow").to_pandas()
        out = out.set_index("doc_id").sort_index()
        assert list(out["n_in_vocab"]) == [5, 3, 2]
        assert list(out["n_oov"]) == [0, 1, 2]
        # doc0: 3*4 + 3 + 3 = 18; doc1: 4 + 3 + 3 = 10; doc2: 3+3=6
        assert list(out["sum_freq"]) == [18, 10, 6]
        # mean_logprob: doc0 = (3*log(5/17)+log(4/17)+log(4/17))/5
        exp0 = (3 * np.log(5 / 17) + 2 * np.log(4 / 17)) / 5
        assert abs(out["mean_logprob"].iloc[0] - exp0) < 1e-12

    def test_oov_scoring_smoothed(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import UnigramScorer

        scorer = UnigramScorer(np.array(["x"], object), np.array([5]), 5)
        t = pa.table({"doc_id": [0], "text": ["y y"]})
        out = scorer(t).to_pandas()
        assert out["n_oov"].iloc[0] == 2
        assert abs(out["mean_logprob"].iloc[0] - np.log(1 / 7)) < 1e-12


class TestDsir:
    def test_score_signs_and_exact_ints(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            DSIR_NUM_BUCKETS,
            DsirScorer,
            _dsir_bigram_buckets,
            dsir_bucket_counts,
        )

        # target docs use "aa bb" style bigrams, raw-only docs use
        # "cc dd" — distinct buckets, so the sign is predictable.
        rows = [
            {"doc_id": 0, "text": "aa bb aa bb aa", "is_target": True},
            {"doc_id": 1, "text": "aa bb aa", "is_target": True},
            {"doc_id": 2, "text": "cc dd cc dd", "is_target": False},
            {"doc_id": 3, "text": "cc dd", "is_target": False},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        cnt = dsir_bucket_counts(ds)
        assert len(cnt) == DSIR_NUM_BUCKETS
        assert cnt["raw_c"].sum() == 4 + 2 + 3 + 1
        assert cnt["tgt_c"].sum() == 4 + 2
        scorer = DsirScorer(cnt["raw_c"].to_numpy(), cnt["tgt_c"].to_numpy())
        out = (
            ds.map_batches(scorer, batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        # target-style docs lean positive, raw-only negative
        assert bool(out["dsir_keep"].loc[0]) and bool(out["dsir_keep"].loc[1])
        assert not bool(out["dsir_keep"].loc[2]) and not bool(out["dsir_keep"].loc[3])
        assert list(out["n_bigrams"]) == [4, 2, 3, 1]
        # exact integer: doc3's single "cc dd" bigram bucket b has
        # tgt_c=0, raw_c=4 → score = 0*10 - 4*6 = -24
        b, _ = _dsir_bigram_buckets(pd.Series(["cc dd"]))
        raw_b = int(cnt["raw_c"].iloc[int(b[0])])
        assert out["dsir_score"].loc[3] == -raw_b * 6
        # float weight agrees in sign with the integer score here
        assert out["dsir_weight"].loc[0] > 0 > out["dsir_weight"].loc[3]

    def test_empty_and_single_word_docs(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import DsirScorer

        scorer = DsirScorer(np.ones(64, np.int64), np.zeros(64, np.int64))
        t = pa.table({"doc_id": [0, 1], "text": ["", "solo"]})
        out = scorer(t).to_pandas()
        assert list(out["n_bigrams"]) == [0, 0]
        assert list(out["dsir_score"]) == [0, 0]
        assert not out["dsir_keep"].any()


class TestLineDedup:
    def test_owner_keeps_duplicates_removed_elsewhere(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            LineDeduper,
            duplicate_lines,
        )

        boiler = "Shared boilerplate line."
        rows = [
            {"doc_id": 5, "text": boiler + "\nunique five."},
            {"doc_id": 2, "text": boiler + "\nunique two.\n" + boiler},
            {"doc_id": 9, "text": "unique nine.\n" + boiler},
            {"doc_id": 7, "text": "all unique seven."},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        dup = duplicate_lines(ds, num_buckets=4).to_pandas()
        assert len(dup) == 1
        assert dup["n_docs"].iloc[0] == 3
        assert dup["min_doc_id"].iloc[0] == 2
        dd = LineDeduper(dup["line_hash"].to_numpy(), dup["min_doc_id"].to_numpy())
        out = (
            ds.map_batches(dd, batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
        )
        # doc 2 owns the boilerplate: keeps BOTH occurrences
        assert out.loc[2, "n_removed"] == 0
        assert out.loc[2, "clean_text"] == boiler + "\nunique two.\n" + boiler
        assert out.loc[5, "n_removed"] == 1
        assert out.loc[5, "clean_text"] == "unique five."
        assert out.loc[9, "n_removed"] == 1
        assert out.loc[9, "clean_text"] == "unique nine."
        assert out.loc[7, "n_removed"] == 0
        assert list(out["n_lines"].loc[[5, 2, 9, 7]]) == [2, 3, 2, 1]

    def test_no_duplicates_is_identity(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            LineDeduper,
            duplicate_lines,
        )

        rows = [{"doc_id": i, "text": f"only line {i}."} for i in range(6)]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        dup = duplicate_lines(ds, num_buckets=4).to_pandas()
        assert len(dup) == 0
        dd = LineDeduper(
            dup["line_hash"].to_numpy() if len(dup) else np.array([], np.uint64),
            dup["min_doc_id"].to_numpy() if len(dup) else np.array([], np.int64),
        )
        out = ds.map_batches(dd, batch_format="pyarrow").to_pandas()
        assert (out["n_removed"] == 0).all()
        assert (out["clean_text"] == out["text"]).all()


class TestPackTokenSequences:
    def test_token_conservation_and_order(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            pack_token_sequences,
        )

        rows = [
            {"doc_id": 2, "source": "a", "tokens": [5, 6, 7]},
            {"doc_id": 1, "source": "a", "tokens": [1, 2, 3, 4]},
            {"doc_id": 3, "source": "b", "tokens": [9]},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = (
            pack_token_sequences(ds, "source", "doc_id", "tokens", seq_len=3,
                                 emit_tokens=True, num_buckets=2)
            .to_pandas()
            .sort_values(["source", "chunk_id"])
            .reset_index(drop=True)
        )
        a = out[out["source"] == "a"]
        # doc order 1 then 2 → stream 1,2,3,4,5,6,7 → chunks [1,2,3][4,5,6][7]
        assert list(a["chunk_len"]) == [3, 3, 1]
        assert list(a["first_tok"]) == [1, 4, 7]
        assert list(a["last_tok"]) == [3, 6, 7]
        assert [t for ch in a["tokens"] for t in ch] == [1, 2, 3, 4, 5, 6, 7]
        b = out[out["source"] == "b"]
        assert list(b["chunk_len"]) == [1] and list(b["first_tok"]) == [9]

    def test_exact_multiple_no_tail(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            pack_token_sequences,
        )

        rows = [{"doc_id": i, "source": "s", "tokens": [i * 10 + j for j in range(4)]} for i in range(3)]
        out = pack_token_sequences(
            ray.data.from_pandas(pd.DataFrame(rows)), "source", "doc_id", "tokens",
            seq_len=4, num_buckets=2
        ).to_pandas()
        assert list(out["chunk_len"]) == [4, 4, 4]
        assert int(out["chunk_len"].sum()) == 12


class TestVocabEncoder:
    def test_encoding_ids_and_oov(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            VocabEncoder,
            corpus_word_counts,
            top_vocab,
        )

        rows = [
            {"doc_id": 0, "text": "a a a b c"},
            {"doc_id": 1, "text": "a b b zz"},
            {"doc_id": 2, "text": "c c qq"},
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        vocab = top_vocab(corpus_word_counts(ds), 3)
        # id = position in (count desc, word asc): a=0, b=1, c=2; OOV=3
        enc = VocabEncoder(vocab["word"].to_numpy())
        out = ds.map_batches(enc, batch_format="pyarrow").to_pandas().set_index("doc_id").sort_index()
        assert list(out.loc[0, "tokens"]) == [0, 0, 0, 1, 2]
        assert list(out.loc[1, "tokens"]) == [0, 1, 1, 3]
        assert list(out.loc[2, "tokens"]) == [2, 2, 3]
        assert list(out["n_tok"]) == [5, 4, 3]
        assert list(out["n_oov"]) == [0, 1, 1]

    def test_empty_text_and_empty_vocab(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import VocabEncoder

        enc = VocabEncoder(np.array([], dtype=object))
        t = pa.table({"doc_id": [0, 1], "text": ["x y", ""]})
        out = enc(t).to_pandas()
        assert list(out["tokens"].map(list)) == [[0, 0], []]
        assert list(out["n_oov"]) == [2, 0]


class TestAssignSplit:
    def test_fractions_and_determinism(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            assign_split,
            split_hash,
        )

        ids = np.arange(20_000, dtype=np.int64)
        t = pa.table({"doc_id": ids})
        out = assign_split(t, test_frac=0.1, valid_frac=0.05)
        lab = pd.Series(out["split"].to_numpy(zero_copy_only=False))
        frac = lab.value_counts(normalize=True)
        # multiplicative hash is near-uniform: ±1.5% absolute
        assert abs(frac.get("test", 0) - 0.10) < 0.015
        assert abs(frac.get("valid", 0) - 0.05) < 0.015
        assert abs(frac.get("train", 0) - 0.85) < 0.02
        # per-row determinism + closed form
        r = split_hash(ids) % 10_000
        expect = np.where(r < 1000, "test", np.where(r < 1500, "valid", "train"))
        assert (lab.to_numpy() == expect).all()
        # labels don't depend on batch composition
        out2 = assign_split(t.slice(500, 100), test_frac=0.1, valid_frac=0.05)
        assert out2["split"].to_pylist() == lab[500:600].tolist()

    def test_zero_fracs_all_train(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import assign_split

        t = pa.table({"doc_id": pa.array(np.arange(100, dtype=np.int64))})
        out = assign_split(t, test_frac=0.0, valid_frac=0.0)
        assert set(out["split"].to_pylist()) == {"train"}


class TestStratifiedSample:
    def test_matches_global_hash_rank(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            split_hash,
            stratified_sample,
        )

        rng_ids = np.arange(3_000, dtype=np.int64)
        df = pd.DataFrame(
            {"doc_id": rng_ids, "source": [f"src{i % 7}" for i in rng_ids]}
        )
        ds = ray.data.from_pandas(df).map_batches(
            lambda t: t, batch_format="pyarrow", batch_size=173
        )  # force many small batches so partial top-n actually runs
        got = stratified_sample(ds, 25, num_buckets=4).to_pandas()
        # pandas re-derivation: global top-25 per source by (hash, id)
        df["_h"] = split_hash(df["doc_id"].to_numpy())
        exp = (
            df.sort_values(["_h", "doc_id"], kind="mergesort")
            .groupby("source", sort=False)
            .head(25)
        )
        exp_ids = {
            s: sub["doc_id"].tolist() for s, sub in exp.groupby("source", sort=False)
        }
        got_sorted = got.sort_values(["source", "rank"])
        for s, sub in got_sorted.groupby("source", sort=False):
            assert sub["doc_id"].tolist() == exp_ids[s]
            assert sub["rank"].tolist() == list(range(len(sub)))
        assert len(got) == 25 * 7

    def test_small_group_kept_whole(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import stratified_sample

        df = pd.DataFrame(
            {
                "doc_id": np.arange(40, dtype=np.int64),
                "source": ["big"] * 35 + ["tiny"] * 5,
            }
        )
        got = stratified_sample(ray.data.from_pandas(df), 10).to_pandas()
        counts = got.groupby("source")["doc_id"].count()
        assert counts["big"] == 10
        assert counts["tiny"] == 5


class TestTokenCorpusStats:
    def test_matches_rederivation(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            token_corpus_stats,
        )

        rng = np.random.default_rng(7)
        toks, srcs = [], []
        for i in range(600):
            L = int(rng.integers(0, 12))  # includes empty docs
            toks.append(rng.integers(0, 40, L).astype(np.int32).tolist())
            srcs.append(f"s{i % 3}")
        tbl = pa.table(
            {
                "doc_id": pa.array(range(600), pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "tokens": pa.array(toks, pa.list_(pa.int32())),
            }
        )
        ds = ray.data.from_arrow(tbl).map_batches(
            lambda t: t, batch_format="pyarrow", batch_size=97
        )  # many small batches: exercise cross-batch distinct merging
        got = token_corpus_stats(ds, vocab_size=40).set_index("source")
        df = pd.DataFrame({"source": srcs, "tokens": toks})
        for s, sub in df.groupby("source"):
            tt = [np.asarray(x, int) for x in sub["tokens"]]
            flat = (
                np.concatenate([t for t in tt if len(t)])
                if any(len(t) for t in tt)
                else np.array([], int)
            )
            bigs = {
                int(a) * 40 + int(b) for t in tt for a, b in zip(t[:-1], t[1:])
            }
            row = got.loc[s]
            assert int(row["n_docs"]) == len(sub)
            assert int(row["n_tokens"]) == sum(len(t) for t in tt)
            assert int(row["max_tok"]) == (int(flat.max()) if len(flat) else -1)
            assert int(row["n_distinct_tokens"]) == len(np.unique(flat))
            assert int(row["n_distinct_bigrams"]) == len(bigs)


class TestBigramLm:
    def test_counts_and_scoring(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            BigramScorer,
            corpus_bigram_counts,
            top_bigrams,
        )

        texts = [
            "a b a b c",       # pairs: a|b, b|a, a|b, b|c
            "a b  x",          # empty token dropped: a|b, b|x
            "z",               # no pairs
            "",
        ]
        df = pd.DataFrame({"doc_id": range(4), "text": texts})
        ds = ray.data.from_pandas(df)
        bc = top_bigrams(corpus_bigram_counts(ds), 100).set_index("pair")["c"]
        assert bc["a\x1fb"] == 3 and bc["b\x1fa"] == 1 and bc["b\x1fc"] == 1
        assert bc["b\x1fx"] == 1 and len(bc) == 4

        # restrict the broadcast table to top-1 → only a|b hits
        top1 = top_bigrams(corpus_bigram_counts(ds), 1)
        assert top1["pair"].tolist() == ["a\x1fb"]
        scorer = BigramScorer(
            top1["pair"].to_numpy(), top1["c"].to_numpy(),
            np.array(["a", "b"], object), np.array([4, 4], np.int64), 12,
        )
        out = scorer(
            pa.table({"doc_id": pa.array(range(4), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        ).to_pandas().set_index("doc_id")
        assert out["n_pairs"].tolist() == [4, 2, 0, 0]
        assert out["n_big_hits"].tolist() == [2, 1, 0, 0]
        assert out["sum_big_freq"].tolist() == [6, 3, 0, 0]
        # interpolated prob: hit pair contributes lam*3/4 + (1-lam)*p_uni(b)
        lam, V, T = 0.7, 2, 12
        p_uni_b = (4 + 1) / (T + V + 1)
        p_hit = lam * 3 / 4 + (1 - lam) * p_uni_b
        import math
        p_uni_a = (4 + 1) / (T + V + 1)
        p_oovw = (0 + 1) / (T + V + 1)
        exp0 = (2 * math.log(p_hit) + math.log((1 - lam) * p_uni_a)
                + math.log((1 - lam) * p_oovw)) / 4
        assert abs(out.loc[0, "mean_bigram_logprob"] - exp0) < 1e-12


class TestQualityBuckets:
    """CCNet-style head/middle/tail bucketing (quality_buckets)."""

    def test_tercile_masses_monotone_and_labels(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            quality_buckets,
            split_hash,
        )

        n = 3000
        ids = np.arange(n, dtype=np.int64)
        score = split_hash(ids).astype(np.float64)  # tie-free pseudo-uniform
        ds = ray.data.from_arrow(
            pa.table({"doc_id": ids, "score": score})
        ).repartition(6)
        labeled, bounds = quality_buckets(
            ds, "score", n_buckets=3, labels=("head", "middle", "tail")
        )
        df = labeled.to_pandas()
        assert len(bounds) == 2 and bounds[0] < bounds[1]
        g = df.groupby("bucket").agg(
            cnt=("score", "count"),
            mn=("score", "min"),
            mx=("score", "max"),
            lbl=("bucket_label", "first"),
        )
        assert list(g.index) == [0, 1, 2]
        assert g["lbl"].tolist() == ["head", "middle", "tail"]
        # masses within the sketch rank-error band (±10% of corpus @k=256)
        assert (abs(g["cnt"] - n / 3) <= 0.10 * n).all()
        assert g["cnt"].sum() == n
        # bucket score ranges strictly ordered and consistent with bounds
        # (a value equal to a bound belongs to the LOWER bucket)
        assert g.loc[0, "mx"] <= bounds[0] < g.loc[1, "mn"]
        assert g.loc[1, "mx"] <= bounds[1] < g.loc[2, "mn"]
        # stateless labeling: rows keep their identity
        back = df.set_index("doc_id")["score"]
        assert np.allclose(back.loc[ids].to_numpy(), score)

    def test_exact_when_fits_one_block(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import quality_buckets

        vals = np.arange(1.0, 10.0)  # 1..9 → terciles at 3 and 6
        ds = ray.data.from_arrow(pa.table({"score": vals}))
        labeled, bounds = quality_buckets(ds, "score", n_buckets=3)
        df = labeled.to_pandas()
        assert bounds.tolist() == [3.0, 6.0]
        assert df.groupby("bucket")["score"].count().tolist() == [3, 3, 3]
        assert sorted(df["bucket_label"].unique()) == ["b0", "b1", "b2"]

    def test_label_count_validated(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import quality_buckets

        ds = ray.data.from_arrow(pa.table({"score": np.arange(10.0)}))
        with pytest.raises(ValueError):
            quality_buckets(ds, "score", n_buckets=3, labels=("only", "two"))


def _tok_table(lists):
    offs = np.zeros(len(lists) + 1, np.int32)
    np.cumsum([len(x) for x in lists], out=offs[1:])
    flat = np.concatenate([np.asarray(x, np.int32) for x in lists]) if any(
        len(x) for x in lists
    ) else np.array([], np.int32)
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(lists))], pa.string()),
            "tokens": pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, pa.int32())),
        }
    )


class TestTokenRepetitionStats:
    def test_counts_runs_and_boundaries(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            token_repetition_stats,
        )

        lists = [
            [1, 1, 1, 2, 2, 3],      # runs 3/2/1, bigrams 5, distinct big 4
            [7],                      # single token: no bigrams, run 1
            [],                       # empty doc
            [5, 5, 5, 5],             # one run of 4, bigram (5,5) x3 distinct 1
            [1, 2, 1, 2, 1],          # alternating: max_run 1, distinct big 2
        ]
        out = (
            token_repetition_stats(
                ray.data.from_arrow(_tok_table(lists)), vocab_size=100
            )
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc["d0"].tolist() == [6, 3, 5, 4, 3]
        assert out.loc["d1"].tolist() == [1, 1, 0, 0, 1]
        assert out.loc["d2"].tolist() == [0, 0, 0, 0, 0]
        assert out.loc["d3"].tolist() == [4, 1, 3, 1, 4]
        assert out.loc["d4"].tolist() == [5, 2, 4, 2, 1]

    def test_no_cross_doc_bigrams_or_runs(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            token_repetition_stats,
        )

        # d0 ends with 9, d1 starts with 9 — the 9|9 pair and the 9-run
        # must NOT leak across the boundary
        out = (
            token_repetition_stats(
                ray.data.from_arrow(_tok_table([[1, 9], [9, 9, 2]])), vocab_size=10
            )
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc["d0", "n_distinct_bigrams"] == 1  # 1|9 only
        assert out.loc["d0", "max_run"] == 1
        assert out.loc["d1", "max_run"] == 2


class TestTokenDecontamination:
    def test_flags_exact_token_windows(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            TokenDecontaminator,
            build_eval_token_grams,
        )

        ev = build_eval_token_grams([[10, 11, 12, 13]], n=4)
        lists = [
            [1, 2, 10, 11, 12, 13, 5],  # contains the span once
            [10, 11, 12, 14],           # near miss
            [10, 11, 12, 13, 10, 11, 12, 13],  # twice
            [10, 11],                   # shorter than n → never flagged
            [],
        ]
        out = (
            ray.data.from_arrow(_tok_table(lists))
            .map_batches(TokenDecontaminator(ev, n=4), batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
        )
        assert out["contaminated"].tolist() == [True, False, True, False, False]
        assert out["n_contam_windows"].tolist() == [1, 0, 2, 0, 0]
        assert out["n_windows"].tolist() == [4, 1, 5, 0, 0]

    def test_short_eval_sequences_dropped(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            build_eval_token_grams,
        )

        assert len(build_eval_token_grams([[1, 2], [3]], n=4)) == 0
        g = build_eval_token_grams([[1, 2, 3, 4], [1, 2, 3, 4]], n=4)
        assert len(g) == 1  # deduped


class TestShuffleShards:
    def test_deterministic_uniform_permutation(self, ray_session):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            shard_hash,
            shuffle_shards,
        )

        n = 4000
        ids = np.arange(n, dtype=np.int64)
        ds = ray.data.from_arrow(pa.table({"doc_id": ids})).repartition(5)
        df = shuffle_shards(ds, n_shards=16, seed=3).to_pandas()
        # closed-form rank and shard
        r = shard_hash(ids, 3)
        exp = pd.DataFrame({"doc_id": ids, "r": r, "shard": r % 16})
        got = df.set_index("doc_id")
        assert (got.loc[ids, "shuffle_rank"].to_numpy() == r).all()
        assert (got.loc[ids, "shard"].to_numpy() == r % 16).all()
        # balanced within a loose band
        cnt = df["shard"].value_counts()
        assert len(cnt) == 16 and cnt.min() > (n / 16) * 0.6
        # a different seed produces a different permutation
        df2 = shuffle_shards(ds, n_shards=16, seed=4).to_pandas()
        assert not (
            df2.set_index("doc_id")["shuffle_rank"].loc[ids].to_numpy() == r
        ).all()

    def test_writer_sorted_resumable(self, ray_session, tmp_path):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            write_training_shards,
        )

        ids = np.arange(500, dtype=np.int64)
        ds = ray.data.from_arrow(
            pa.table({"doc_id": ids, "payload": ids * 2})
        ).repartition(4)
        out = str(tmp_path / "shards")
        m1 = write_training_shards(ds, out, n_shards=8, seed=1).sort_values("shard")
        assert len(m1) == 8 and not m1["skipped"].any()
        assert m1["n_rows"].sum() == 500 and m1["id_sum"].sum() == ids.sum()
        # every shard file sorted by rank; union of files = input
        import pyarrow.parquet as pq

        seen = []
        for sh in m1["shard"]:
            t = pq.read_table(f"{out}/shard-{sh:05d}.parquet").to_pandas()
            assert t["shuffle_rank"].is_monotonic_increasing
            assert (t["payload"] == t["doc_id"] * 2).all()
            seen.append(t["doc_id"])
        assert sorted(pd.concat(seen)) == list(ids)
        # resume: second run skips every shard, identical manifest
        m2 = write_training_shards(ds, out, n_shards=8, seed=1).sort_values("shard")
        assert m2["skipped"].all()
        assert (m2["n_rows"].to_numpy() == m1["n_rows"].to_numpy()).all()
        assert (m2["first_id"].to_numpy() == m1["first_id"].to_numpy()).all()

    def test_string_ids_supported(self, ray_session, tmp_path):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            write_training_shards,
        )

        ds = ray.data.from_arrow(
            pa.table({"doc_id": [f"d{i}" for i in range(40)]})
        )
        m = write_training_shards(ds, str(tmp_path / "s"), n_shards=4, seed=0)
        assert m["n_rows"].sum() == 40 and (m["id_sum"] == 0).all()


class TestHashedQualityClassifier:
    def test_scores_match_hand_computation(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            QUALITY_CLF_BUCKETS,
            HashedQualityClassifier,
            default_clf_weights,
        )

        w = default_clf_weights()

        def bucket(word):
            return (ord(word[0]) * 31 + len(word) * 3 + ord(word[-1])) % QUALITY_CLF_BUCKETS

        texts = ["hello brave new world", "a  b", "", "héllo wörld"]
        out = HashedQualityClassifier(w)(
            pa.table({"text": pa.array(texts, pa.string())})
        ).to_pandas()
        for i, txt in enumerate(texts):
            words = [x for x in txt.split(" ") if x]
            exp = sum(int(w[bucket(x)]) for x in words)
            assert out.loc[i, "clf_score"] == exp
            assert out.loc[i, "n_words"] == len(words)
            assert out.loc[i, "clf_keep"] == (exp > 0)
        # prob is a sigmoid of the length-normalized score
        import math

        words0 = [x for x in texts[0].split(" ") if x]
        z = out.loc[0, "clf_score"] / len(words0)
        assert out.loc[0, "clf_prob"] == pytest.approx(1 / (1 + math.exp(-z)))

    def test_float_weights_and_validation(self):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            QUALITY_CLF_BUCKETS,
            HashedQualityClassifier,
        )

        wf = np.linspace(-1, 1, QUALITY_CLF_BUCKETS)
        out = HashedQualityClassifier(wf, bias=0.5)(
            pa.table({"text": ["x y z"]})
        ).to_pandas()
        assert out["clf_score"].dtype == np.float64
        with pytest.raises(ValueError):
            HashedQualityClassifier(np.ones(3))


class TestIterTrainingBatches:
    def test_epoch_order_and_world_partition(self, ray_session, tmp_path):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            iter_training_batches,
            write_training_shards,
        )

        ids = np.arange(700, dtype=np.int64)
        ds = ray.data.from_arrow(pa.table({"doc_id": ids})).repartition(4)
        out = str(tmp_path / "sh")
        write_training_shards(ds, out, n_shards=6, seed=9)

        batches = list(iter_training_batches(out, 64))
        assert all(len(b) == 64 for b in batches[:-1])
        got = pa.concat_tables(batches).to_pandas()
        assert len(got) == 700 and got["doc_id"].is_unique
        # epoch order = shard files in order, each rank-sorted inside
        ranks = got["shuffle_rank"].to_numpy()
        shard_of = got["doc_id"].to_numpy()  # recompute shard boundaries
        # within each contiguous shard span ranks are ascending
        import pyarrow.parquet as pq
        import os

        start = 0
        for f in sorted(f for f in os.listdir(out)
                        if f.startswith("shard-") and f.endswith(".parquet")):
            n = pq.read_table(os.path.join(out, f)).num_rows
            span = ranks[start:start + n]
            assert (np.diff(span) > 0).all()
            start += n

        # world partition: ranks cover all rows disjointly
        parts = [
            pa.concat_tables(list(iter_training_batches(out, 64, rank=r, world_size=3)))
            for r in range(3)
        ]
        allr = pd.concat([p.to_pandas() for p in parts])
        assert len(allr) == 700 and allr["doc_id"].is_unique

        # drop_last trims the tail remainder
        nb = list(iter_training_batches(out, 64, drop_last=True))
        assert all(len(b) == 64 for b in nb)
        assert sum(len(b) for b in nb) == 700 - 700 % 64 if 700 % 64 else 700

    def test_rank_validation(self, tmp_path):
        from opentelemetry_collector_contrib_ray.stages.llmdata import (
            iter_training_batches,
        )

        with pytest.raises(ValueError):
            list(iter_training_batches(str(tmp_path), 8, rank=3, world_size=2))


def test_write_training_shards_resume_stamp(ray_session, tmp_path):
    """ADVICE r3: a resume against a directory written with a different
    (seed, n_shards) config must raise instead of silently keeping
    stale shard files; skipped shards report on-disk row counts."""
    from opentelemetry_collector_contrib_ray.stages.llmdata import (
        write_training_shards,
    )

    ds = ray.data.from_arrow(pa.table({"doc_id": np.arange(100, dtype=np.int64)}))
    out = str(tmp_path / "sh")
    m1 = write_training_shards(ds, out, n_shards=4, seed=1)
    assert not m1["skipped"].any()
    assert (m1["on_disk_rows"] == m1["n_rows"]).all()
    # same config resumes: all shards skipped, counts verified on disk
    m2 = write_training_shards(ds, out, n_shards=4, seed=1)
    assert m2["skipped"].all()
    assert (m2["on_disk_rows"] == m2["n_rows"]).all()
    # different seed against the same directory: refuse
    import pytest as _pytest

    with _pytest.raises(ValueError, match="stale"):
        write_training_shards(ds, out, n_shards=4, seed=2)
    with _pytest.raises(ValueError, match="stale"):
        write_training_shards(ds, out, n_shards=8, seed=1)


@pytest.mark.parametrize("fn, counts", [("top_vocab", "corpus_word_counts"), ("top_bigrams", "corpus_bigram_counts")])
def test_top_k_driver_collect_raises_past_its_cap(fn, counts, ray_session, monkeypatch):
    """The driver merge of the per-block top-k partials goes through the
    capped collect: with the cap at 1 row, two partial rows raise."""
    from opentelemetry_collector_contrib_ray import _util
    from opentelemetry_collector_contrib_ray.stages import llmdata

    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [0, 1], "text": ["a b c", "b c d"]}))
    monkeypatch.setattr(_util, "COLLECT_MAX_ROWS", 1)
    with pytest.raises(RuntimeError, match=rf"{fn}: the driver collect reached [2-9]\d* rows"):
        getattr(llmdata, fn)(getattr(llmdata, counts)(ds), 10)
