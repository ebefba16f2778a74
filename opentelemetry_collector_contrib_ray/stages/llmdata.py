"""Training-data pipeline operators: PII redaction, Gopher-style
repetition/quality filters, sequence packing, C4-style line cleaning,
deterministic domain-mixture resampling, CCNet-style unigram LM
quality scoring, DSIR hashed-n-gram importance scoring, and
RefinedWeb-style corpus-wide exact line dedup.

These are engine additions beyond the reference's telemetry operators
(build mandate: "the operations a large-scale training-data pipeline
would need"). Public-knowledge semantics:

* PII redaction — the standard pre-training scrub (emails / IPv4s /
  phone numbers replaced by typed placeholder tokens), as popularized
  by public corpus pipelines (e.g. BigScience ROOTS, RefinedWeb).
  Arrow's RE2 kernels over the text column — the same regex engine as
  a SQL oracle's ``regexp_replace(..., 'g')``: ``count_substring_regex``
  counts each pattern on every row, and ``replace_substring_regex``
  rewrites only the rows it matched.
* Gopher repetition rules — the repetition/quality signals from the
  Gopher paper's data pipeline (Rae et al. 2021, table A1): duplicate
  word fraction, alphabetic-word fraction, symbol-to-word ratio, mean
  word length window, minimum word count. Computed per document from
  one flat word array (``_split_words``), dictionary-encoded once per
  batch: distinct ``(document, word index)`` codes give the distinct
  words, the letter regex and the symbol counts run once per distinct
  word, and segment sums turn per-word values into per-document ones —
  no per-row Python.
* Sequence packing — GPT-style "concatenate documents and cut into
  fixed-length training sequences": within each ``group_col``
  partition, documents are concatenated in ``order_col`` order and the
  flat token stream is sliced into chunks of ``seq_len`` (the final
  partial chunk is kept). Distributed as ONE keyed shuffle on the
  group key; each bucket sorts once by (group, order) and cuts every
  group's chunks from one flat token array. Partitioning assumption:
  one group's tokens fit one task (bound seq_len × chunks per group;
  a hot group lands in one bucket).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._util import collect

# RE2 patterns: Arrow's regex kernels and DuckDB's regexp_replace run
# the same engine, so an SQL oracle mirrors them exactly (``\d`` and
# ``\b`` are ASCII-only in RE2).
PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+?\d{3}[-.]\d{3}[-.]\d{4}", "<PHONE>"),
]
_PII_ANY = "|".join(f"(?:{pattern})" for _, pattern, _ in PII_PATTERNS)


def _text(col) -> pa.Array:
    """A text column as one ``string`` array with nulls filled to ``""``."""
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(col, pa.string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.type != pa.string():
        col = col.cast(pa.string())
    return pc.fill_null(col, "")


def _split(text, sep: str) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Split every document on ``sep`` in Arrow C++ — the
    ``str.split(sep)`` rule, null text read as ``""``. Returns ``(flat,
    doc_of, n_parts)``: the flat ``string`` part array, each part's
    document index (int64) and the part count per document (int64).
    ``sep`` is ``"\\n"`` for lines."""
    lists = pc.split_pattern(_text(text), sep)
    return (
        pc.list_flatten(lists),
        pc.list_parent_indices(lists).to_numpy().astype(np.int64),
        pc.list_value_length(lists).to_numpy().astype(np.int64),
    )


def _split_words(text, *, drop_empty: bool = False) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """``_split`` on single spaces: ``(flat, doc_of, n_words)``.
    ``drop_empty`` removes the empty words that leading, trailing and
    repeated spaces leave, and counts only the remaining words."""
    flat, doc_of, n_words = _split(text, " ")
    if not drop_empty:
        return flat, doc_of, n_words
    keep = pc.not_equal(flat, "")
    doc_of = doc_of[keep.to_numpy(zero_copy_only=False)]
    return flat.filter(keep), doc_of, np.bincount(doc_of, minlength=len(n_words)).astype(np.int64)


def _join_kept(parts: pa.Array, doc_of: np.ndarray, kept: np.ndarray, n: int, sep: str):
    """Rejoin each document's kept parts (``kept`` is a bool mask over
    the flat ``parts``, in document order) with ``sep``: one
    ``ListArray.from_arrays`` and one ``binary_join``. Returns the joined
    ``string`` array and the kept count per document (int64)."""
    kept_counts = np.bincount(doc_of[kept], minlength=n).astype(np.int64)
    offs = pa.array(np.concatenate([[0], np.cumsum(kept_counts)]).astype(np.int32))
    joined = pc.binary_join(pa.ListArray.from_arrays(offs, parts.filter(pa.array(kept))), sep)
    return joined, kept_counts


def redact_pii(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Replace PII spans with typed placeholders; adds ``n_<kind>``
    count columns and the ``redacted`` text. Matching is RE2 (Arrow's
    ``count_substring_regex`` / ``replace_substring_regex``), the
    engine behind DuckDB's ``regexp_replace``; patterns apply in
    PII_PATTERNS order (email before ip before phone) — an oracle must
    chain its ``regexp_replace(..., 'g')`` calls in the same order.
    One match of the patterns' alternation picks the rows with any PII;
    the ordered count-and-replace chain runs on those rows only and is
    written back with ``replace_with_mask``. A row no pattern matches
    is its own replacement, with zero counts."""
    s = _text(batch[text_col])
    hit = pc.match_substring_regex(s, _PII_ANY)
    zeros = pa.array(np.zeros(len(s), np.int64))
    sub = s.filter(hit)
    for kind, pattern, repl in PII_PATTERNS:
        n = pc.count_substring_regex(sub, pattern).cast(pa.int64())
        sub = pc.replace_substring_regex(sub, pattern, repl)
        batch = batch.append_column(f"n_{kind}", pc.replace_with_mask(zeros, hit, n))
    return batch.append_column("redacted", pc.replace_with_mask(s, hit, sub))


def gopher_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition/quality signals per document:
    ``dup_word_frac`` (1 - distinct/total words), ``alpha_word_frac``
    (words containing a latin letter), ``symbol_word_ratio``
    (#/ellipsis occurrences per word), plus ``passes_gopher``
    combining them with the mean-word-length window [3, 10] and a
    minimum word count.

    The batch's flat word array is dictionary-encoded once. A
    document's distinct words are its distinct ``(document, index)``
    codes, counted after one sort of the codes; the letter regex and
    the ``#``/``...`` counts run once per dictionary entry and reach
    each word through its index. Neither pattern holds a space, so no
    match crosses the single-space split and the per-document sums
    equal counts over the whole text."""
    s = _text(batch[text_col])
    flat, doc_of, n_words = _split_words(s)
    enc = pc.dictionary_encode(flat)
    words, index = enc.dictionary, enc.indices.to_numpy().astype(np.int64)
    # split keeps empty words, so every document owns >= 1 word: no
    # division by zero, and reduceat sums each document's own segment
    starts = np.cumsum(n_words) - n_words
    codes = np.sort(doc_of * len(words) + index)
    new = np.ones(len(codes), bool)
    new[1:] = codes[1:] != codes[:-1]
    nuniq = np.add.reduceat(new, starts, dtype=np.int64)
    is_alpha = pc.match_substring_regex(words, "[A-Za-z]").to_numpy(zero_copy_only=False)
    alpha = np.add.reduceat(is_alpha[index], starts, dtype=np.int64)
    word_symbols = (
        pc.count_substring(words, "#").to_numpy().astype(np.int64)
        + pc.count_substring(words, "...").to_numpy().astype(np.int64)
    )
    symbols = np.add.reduceat(word_symbols[index], starts)
    dup_word_frac = 1.0 - nuniq / n_words
    alpha_word_frac = alpha / n_words
    n_chars = pc.utf8_length(s).to_numpy().astype(np.int64)
    mean_word_len = (n_chars - (n_words - 1)) / n_words
    symbol_word_ratio = symbols / n_words
    passes = (
        (n_words >= 5)
        & (mean_word_len >= 3.0)
        & (mean_word_len <= 10.0)
        & (dup_word_frac < 0.5)
        & (alpha_word_frac > 0.8)
        & (symbol_word_ratio < 0.1)
    )
    for name, arr, typ in [
        ("dup_word_frac", dup_word_frac, pa.float64()),
        ("alpha_word_frac", alpha_word_frac, pa.float64()),
        ("symbol_word_ratio", symbol_word_ratio, pa.float64()),
        ("passes_gopher", passes, pa.bool_()),
    ]:
        batch = batch.append_column(name, pa.array(arr, typ))
    return batch


def build_eval_grams(texts, n: int = 8) -> np.ndarray:
    """Hash every n-word window of the held-out texts (the small side
    of decontamination). Returns a SORTED uint64 array to broadcast
    with ray.put — the lookup side of the scan uses np.isin against
    it, so the eval set never re-ships per batch. The hashes are
    ``_window_hashes``', the train-side scan's own kernel."""
    return np.unique(_window_hashes(texts, n)[0])


class NgramDecontaminator:
    """GPT-3-style test-set decontamination (Brown et al. 2020,
    appendix C): flag a training document when ANY of its n-word
    windows appears in the held-out set's n-gram table.

    Broadcast stage: pass an instance to ``map_batches`` and the
    ``eval_grams`` table (a sorted uint64 hash array) is serialized
    once with the operator; ``__call__`` runs one strided window-hash
    pass per batch and an ``np.isin`` membership against it. Adds a
    ``contaminated`` bool column."""

    def __init__(self, eval_grams: np.ndarray, n: int = 8):
        self.n = n
        self.grams = np.asarray(eval_grams, dtype=np.uint64)

    def __call__(self, t: pa.Table) -> pa.Table:
        flags = np.zeros(len(t), dtype=bool)
        if len(self.grams):
            h, doc_of = _window_hashes(t["text"], self.n)
            np.add.at(flags, doc_of[np.isin(h, self.grams)], True)
        return t.append_column("contaminated", pa.array(flags, pa.bool_()))


def _word_windows(words: pa.Array, lens: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hash every n-word window of the flat space-split ``words`` of
    documents with ``lens`` words each, in one flat pass. Returns
    ``(hashes uint64, doc_index int64, flat_start int64)``: a window is
    its words joined by single spaces (positional string adds over the
    flat word array), and ``flat_start`` is its first word's index into
    ``words``."""
    from .._util import hash_str_u64

    n_wins = np.maximum(lens - n + 1, 0)
    total = int(n_wins.sum())
    if total == 0:
        empty = np.empty(0, np.int64)
        return np.empty(0, np.uint64), empty, empty
    flat_words = words.to_numpy(zero_copy_only=False)
    first_win = np.repeat(np.cumsum(n_wins) - n_wins, n_wins)
    starts = np.repeat(np.cumsum(lens) - lens, n_wins) + np.arange(total) - first_win
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), n_wins)
    win = flat_words[starts].astype(object)
    for off in range(1, n):
        win = win + " " + flat_words[starts + off]
    return hash_str_u64(win.astype(object)), doc_of, starts


def _window_hashes(text, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hashes, doc_index)`` of every n-word window of the ``text``
    column."""
    words, _, lens = _split_words(text)
    return _word_windows(words, lens, n)[:2]


def _unit_partials(h: np.ndarray, doc_of: np.ndarray, ids: np.ndarray, hash_col: str) -> pa.Table:
    """One batch's partial of a duplicate-discovery job: the unit hashes
    ``h`` (lines or word windows) of documents ``doc_of`` become one
    ``(hash_col, n_docs, min_doc_id)`` row per distinct hash — distinct
    documents and the smallest owner id among them. lexsort + reduceat;
    a document's units live in one batch, so per-batch distinct-doc
    counts sum exactly."""
    order = np.lexsort((doc_of, h))
    hs, ds_ = h[order], doc_of[order]
    keep = np.ones(len(hs), bool)
    keep[1:] = (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])
    hs, ds_ = hs[keep], ds_[keep]
    bounds = np.ones(len(hs), bool)
    bounds[1:] = hs[1:] != hs[:-1]
    starts = np.flatnonzero(bounds)
    did = ids[ds_].astype(np.int64)
    return pa.table(
        {
            hash_col: pa.array(hs[starts], pa.uint64()),
            "n_docs": pa.array(np.diff(np.append(starts, len(hs))).astype(np.int64)),
            "min_doc_id": pa.array(np.minimum.reduceat(did, starts)),
        }
    )


def _shared_units(ds, partials, hash_col: str, min_docs: int, num_buckets: int | None):
    """Merge the per-batch ``_unit_partials`` of ``partials`` with one
    bucketed groupby on ``hash_col`` (sum of ``n_docs``, min of
    ``min_doc_id``) and keep the hashes seen in ``min_docs`` or more
    distinct documents."""
    from .aggregate import bucketed_aggregate

    merged = bucketed_aggregate(
        ds.map_batches(partials, batch_format="pyarrow"),
        [hash_col],
        [("n_docs", "sum", "n_docs"), ("min_doc_id", "min", "min_doc_id")],
        num_buckets=num_buckets,
    )
    return merged.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_docs"], min_docs)),
        batch_format="pyarrow",
    )


class _OwnerLookup:
    """The removal half of a duplicate-discovery job: a broadcast table
    of duplicated unit hashes and their first owner's doc id, sorted
    once (pass an instance to ``map_batches`` and it is serialized once
    with the operator). A unit occurrence is removed iff its hash is in
    the table AND its document is not the owner (first-owner-wins)."""

    def __init__(self, dup_hashes, dup_owners):
        order = np.argsort(np.asarray(dup_hashes, dtype=np.uint64))
        self.hashes = np.asarray(dup_hashes, dtype=np.uint64)[order]
        self.owners = np.asarray(dup_owners, dtype=np.int64)[order]

    def _removed(self, h: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
        """Bool mask over the unit hashes ``h`` of documents ``doc_ids``:
        one ``searchsorted`` against the sorted table."""
        if not (len(self.hashes) and len(h)):
            return np.zeros(len(h), dtype=bool)
        pos = np.clip(np.searchsorted(self.hashes, h), 0, len(self.hashes) - 1)
        return (self.hashes[pos] == h) & (self.owners[pos] != doc_ids)


def duplicate_passages(
    ds,
    *,
    window: int = 32,
    min_docs: int = 2,
    num_buckets: int | None = None,
):
    """Corpus-level repeated-passage detection — the hash-window
    approximation of ExactSubstr dedup (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better"): find every
    ``window``-word span that occurs in at least ``min_docs`` DISTINCT
    documents (boilerplate, licence blocks, templated headers).

    Shuffle-light: each batch hashes its windows in one flat pass and
    pre-aggregates them (``_unit_partials``); one bucketed groupby on
    the hash merges partials (``_shared_units``), so only (hash, count,
    id) triples move, never text. Returns a Dataset ``(gram_hash,
    n_docs, min_doc_id)`` filtered to ``n_docs >= min_docs``.
    """

    def partials(t: pa.Table) -> pa.Table:
        h, doc_of = _window_hashes(t["text"], window)
        return _unit_partials(h, doc_of, t["doc_id"].to_numpy(zero_copy_only=False), "gram_hash")

    return _shared_units(ds, partials, "gram_hash", min_docs, num_buckets)


class PassageDeduper(_OwnerLookup):
    """The REMOVAL half of ExactSubstr/passage dedup (Lee et al. 2021
    §4 remove all but one occurrence of every duplicated span): cut
    every WORD covered by a corpus-duplicated ``window``-word span
    whose first owner is another document; the owner document keeps
    its copy (first-owner-wins, the same convention as
    ``LineDeduper``).

    Broadcast stage holding the ``duplicate_passages`` output
    (``_OwnerLookup``). Per batch: ONE flat window-hash pass, the owner
    lookup, and a difference-array cumsum to turn flagged window starts
    into per-word coverage — windows never cross document boundaries,
    so the cumsum cannot bleed between docs. Adds ``n_words``,
    ``n_removed_words``, ``n_dup_windows`` and the rebuilt
    ``clean_text`` (``_join_kept``, no per-row Python)."""

    def __init__(self, dup_hashes, dup_owners, window: int = 32):
        super().__init__(dup_hashes, dup_owners)
        self.window = window

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(t)
        words, word_doc, lens = _split_words(t["text"])
        h, doc_of, starts = _word_windows(words, lens, self.window)
        rm = self._removed(h, ids[doc_of])
        st = starts[rm]
        diff = np.zeros(len(words) + 1, dtype=np.int64)
        np.add.at(diff, st, 1)
        np.add.at(diff, st + self.window, -1)
        covered = np.cumsum(diff[:-1]) > 0
        clean, kept_counts = _join_kept(words, word_doc, ~covered, n, " ")
        t = t.append_column("n_words", pa.array(lens, pa.int64()))
        t = t.append_column("n_removed_words", pa.array((lens - kept_counts).astype(np.int64)))
        t = t.append_column("n_dup_windows", pa.array(np.bincount(doc_of[rm], minlength=n).astype(np.int64)))
        return t.append_column("clean_text", clean)


def _pack_bucket(t: pa.Table, group_col, order_col, seq_len, emit_tokens, flatten, tok_type=None):
    """Cut one shuffle bucket into ``seq_len`` chunks per group: ONE
    stable sort by (group, order), one ``flatten(sorted) -> (flat token
    array, row offsets)`` call, then every group's chunk bounds by
    offset arithmetic — no per-group or per-document Python. Rows with
    a null group are dropped (as a pandas groupby drops them)."""
    t = t.filter(pc.is_valid(t[group_col])).sort_by(
        [(group_col, "ascending"), (order_col, "ascending")]
    )
    flat, offs = flatten(t)
    g = t[group_col].to_numpy(zero_copy_only=False)
    new = np.ones(len(g), bool)
    new[1:] = g[1:] != g[:-1]
    gstart = np.flatnonzero(new)
    lo, hi = offs[gstart], offs[np.append(gstart[1:], len(g))]
    n_chunks = (hi - lo + seq_len - 1) // seq_len
    gi = np.repeat(np.arange(len(gstart)), n_chunks)
    chunk_id = np.arange(len(gi), dtype=np.int64) - np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
    starts = lo[gi] + chunk_id * seq_len
    ends = np.minimum(starts + seq_len, hi[gi])
    cols = {
        group_col: t[group_col].take(gstart[gi]),
        "chunk_id": pa.array(chunk_id),
        "chunk_len": pa.array((ends - starts).astype(np.int64)),
        "first_tok": flat.take(starts),
        "last_tok": flat.take(ends - 1),
    }
    if emit_tokens:
        # groups are contiguous in ``flat``, so the chunks tile it
        tok_offs = pa.array(np.append(starts, ends[-1] if len(ends) else 0), pa.int32())
        cols["tokens"] = pa.ListArray.from_arrays(tok_offs, flat if tok_type is None else flat.cast(tok_type))
    return pa.table(cols)


def pack_sequences(
    ds,
    group_col: str = "source",
    order_col: str = "doc_id",
    text_col: str = "text",
    seq_len: int = 2048,
    emit_tokens: bool = False,
):
    """Concat-and-chunk sequence packing per group (see module doc).

    Returns a Dataset of chunk rows: ``(group, chunk_id, chunk_len,
    first_tok, last_tok[, tokens])``. Tokens here are whitespace words
    of ``text_col`` (swap in a tokenizer stage upstream to pack real
    BPE ids — the packing kernel is token-type-agnostic)."""
    from .aggregate import keyed_apply

    def words(t: pa.Table):
        flat, _, lens = _split_words(t[text_col])
        return flat, np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)

    def per_bucket(t: pa.Table) -> pa.Table:
        return _pack_bucket(t, group_col, order_col, seq_len, emit_tokens, words)

    thin = ds.select_columns([group_col, order_col, text_col])
    return keyed_apply(thin, group_col, per_bucket)


def pack_token_sequences(
    ds,
    group_col: str = "source",
    order_col: str = "doc_id",
    tokens_col: str = "tokens",
    seq_len: int = 2048,
    emit_tokens: bool = False,
    num_buckets: int | None = None,
):
    """Token-array-native concat-and-chunk packing: the same semantics
    as ``pack_sequences`` but over a pre-tokenized ``list<int32>``
    column (the training-corpus input shape) instead of whitespace
    words — documents are concatenated per group in ``order_col``
    order and the flat token stream is sliced into ``seq_len`` chunks,
    final partial kept. One keyed shuffle of just the (group, order,
    tokens) columns on the group key; per bucket one sort and one
    flatten of the token lists. Returns chunk rows
    ``(group, chunk_id, chunk_len, first_tok, last_tok[, tokens])``
    with int64 first/last token ids and ``list<int32>`` tokens."""
    from .aggregate import keyed_apply

    def tokens(t: pa.Table):
        vals, offs = _flat_tokens(t, tokens_col)
        return pa.array(vals), offs

    def per_bucket(t: pa.Table) -> pa.Table:
        return _pack_bucket(t, group_col, order_col, seq_len, emit_tokens, tokens, pa.int32())

    thin = ds.select_columns([group_col, order_col, tokens_col])
    return keyed_apply(thin, group_col, per_bucket, num_buckets=num_buckets)


# --------------------------------------------------------------- C4 cleaning

# C4-style line filters (Raffel et al. 2020 §2.2, public rules): a line
# survives iff it ends in terminal punctuation, has >= min_words words,
# and contains none of the bad substrings; a document survives iff it
# retains >= min_lines lines. Substring checks are case-insensitive
# except the brace (C4 drops any page with "{" — here applied per line
# so the cleaner is also usable as a line filter).
C4_TERMINAL = ('.', '!', '?', '"')
C4_BAD_LOWER = ("javascript", "lorem ipsum")
C4_BAD_RAW = ("{",)


def c4_clean(
    batch: pa.Table,
    text_col: str = "text",
    out_col: str = "clean_text",
    min_words: int = 3,
    min_lines: int = 3,
) -> pa.Table:
    """C4-style line-level cleaning, fully vectorized: one Arrow split
    of the lines (``_split``), Arrow kernels for every predicate over
    the FLAT line array, and ``_join_kept`` to reassemble kept lines
    per document — no per-row Python. Adds ``out_col`` (cleaned text),
    ``n_lines_kept`` and ``kept`` (doc-level gate)."""
    lines, doc_of, _ = _split(batch[text_col], "\n")
    ok = pc.ends_with(lines, C4_TERMINAL[0])
    for end in C4_TERMINAL[1:]:
        ok = pc.or_(ok, pc.ends_with(lines, end))
    # word count = runs of non-space chars (mirrors SQL list_filter of
    # non-empty tokens after a split on ' ')
    ok = pc.and_(ok, pc.greater_equal(pc.count_substring_regex(lines, "[^ ]+"), min_words))
    # Python's str.lower maps U+0130 to "i" + U+0307 where utf8_lower
    # maps it to "i": spell it out first so the bad-substring tests
    # match what a str.lower-based cleaner matches
    low = pc.utf8_lower(pc.replace_substring(lines, "\u0130", "i\u0307"))
    for bad in C4_BAD_LOWER:
        ok = pc.and_(ok, pc.invert(pc.match_substring(low, bad)))
    for bad in C4_BAD_RAW:
        ok = pc.and_(ok, pc.invert(pc.match_substring(lines, bad)))
    joined, kept_counts = _join_kept(lines, doc_of, ok.to_numpy(zero_copy_only=False), len(batch), "\n")
    batch = batch.append_column(out_col, joined)
    batch = batch.append_column("n_lines_kept", pa.array(kept_counts, pa.int64()))
    return batch.append_column("kept", pa.array(kept_counts >= min_lines))


# ------------------------------------------------------- mixture resampling


def word_counts(t: pa.Table, text_col: str = "text") -> pa.Table:
    """One batch's ``(word, c)`` counts of its non-empty whitespace
    words (Arrow ``value_counts``) — the partials of
    ``corpus_word_counts``. The empty word is counted with the others
    and its one entry dropped."""
    vc = pc.value_counts(_split(t[text_col], " ")[0])
    words = pa.table({"word": vc.field("values"), "c": vc.field("counts")})
    return words.filter(pc.not_equal(words["word"], ""))


def corpus_word_counts(ds, text_col: str = "text", num_buckets: int | None = None):
    """Corpus-wide word-frequency table as a Dataset ``(word, c)``.

    The unigram-count half of CCNet-style LM quality scoring (Wenzek
    et al. 2020 build KenLM perplexity buckets; the distributed shape
    is identical for any unigram model). Tokens are the NON-EMPTY
    whitespace words. Per-batch pre-aggregation (Arrow ``value_counts``)
    so the shuffle moves (word, partial-count) pairs, never text; one
    bucketed hash groupby merges partials."""
    from .aggregate import bucketed_aggregate

    parts = ds.map_batches(word_counts, fn_kwargs={"text_col": text_col}, batch_format="pyarrow")
    return bucketed_aggregate(parts, ["word"], [("c", "sum", "c")], num_buckets=num_buckets)


def _top_k(counts_ds, key: str, k: int, stage: str) -> pd.DataFrame:
    """Top-``k`` rows of a ``(key, c)`` counts Dataset by (c DESC, key
    ASC). Distributed top-k: each block is cut to its own top-``k`` by
    one Arrow ``sort_indices`` (a block's other rows can never reach the
    global top-k), the driver merges only ``num_blocks × k`` rows —
    never the full table — through the capped ``collect`` named
    ``stage``, and cuts the merge the same way."""
    order = [("c", "descending"), (key, "ascending")]

    def block_top(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=order)[:k])

    tops = collect(counts_ds.map_batches(block_top, batch_format="pyarrow"), stage)
    return block_top(pa.concat_tables(tops, promote_options="permissive")).to_pandas()


def top_vocab(counts_ds, v: int) -> pd.DataFrame:
    """Top-``v`` vocabulary by (count DESC, word ASC) from a
    ``corpus_word_counts`` Dataset (``_top_k``)."""
    return _top_k(counts_ds, "word", v, "top_vocab")


def _index_in(keys: pa.Array, value_set: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """One Arrow ``index_in`` lookup of ``keys`` in ``value_set``:
    ``(hit, pos)`` — a bool mask over ``keys`` and the int64 position
    in ``value_set`` of each hit, in key order."""
    idx = pc.index_in(keys, value_set=value_set)
    return idx.is_valid().to_numpy(zero_copy_only=False), pc.drop_null(idx).to_numpy().astype(np.int64)


class UnigramScorer:
    """CCNet-style unigram LM scoring as a broadcast stage: pass an
    instance to ``map_batches`` and the top-V vocabulary (word → corpus
    count) is serialized once with the operator; each batch splits its
    words and looks them up with one Arrow ``index_in`` pass
    (``_index_in``). Adds per-document columns:

    * ``n_in_vocab`` / ``n_oov`` — word OCCURRENCES in/out of vocab;
    * ``sum_freq`` — int64 sum of the corpus counts of in-vocab
      occurrences (an exactly-SQL-mirrorable integer quality signal);
    * ``mean_logprob`` — add-1-smoothed mean unigram log-probability
      (the float score CCNet thresholds into head/middle/tail).
    """

    def __init__(self, vocab_words, vocab_counts, total_words: int):
        self.words = pa.array(np.asarray(vocab_words, dtype=object), pa.string())
        self.counts = np.asarray(vocab_counts, dtype=np.int64)
        self.total = int(total_words)
        v = len(self.words)
        self.logp = np.log((self.counts + 1.0) / (self.total + v + 1.0))
        self.logp_oov = float(np.log(1.0 / (self.total + v + 1.0)))

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, doc_of, n_tok = _split_words(t["text"], drop_empty=True)
        hit, pos = _index_in(flat, self.words)
        n = len(t)
        n_in = np.bincount(doc_of[hit], minlength=n).astype(np.int64)
        sum_freq = np.zeros(n, dtype=np.int64)
        np.add.at(sum_freq, doc_of[hit], self.counts[pos])
        logsum = np.full(n, 0.0)
        np.add.at(logsum, doc_of[hit], self.logp[pos])
        np.add.at(logsum, doc_of[~hit], self.logp_oov)
        mean_lp = logsum / np.maximum(n_tok, 1)
        for name, arr, typ in [
            ("n_in_vocab", n_in, pa.int64()),
            ("n_oov", (n_tok - n_in), pa.int64()),
            ("sum_freq", sum_freq, pa.int64()),
            ("mean_logprob", mean_lp, pa.float64()),
        ]:
            t = t.append_column(name, pa.array(arr, typ))
        return t


class VocabEncoder:
    """Vocabulary tokenizer: encode a text column into ``list<int32>``
    token ids — the bridge from raw documents to the pre-tokenized
    training-corpus shape. Token id = rank in the (count DESC, word
    ASC) vocabulary order (i.e. positional index of ``top_vocab``'s
    output); out-of-vocabulary words map to id ``V`` (one past the
    vocabulary), the classic UNK slot.

    Pass an INSTANCE to ``map_batches``: it runs as a task-pool
    callable and the vocabulary is serialized once with the operator.
    Each batch runs one Arrow ``index_in`` lookup over the split words
    (nulls → the OOV id) and one ``ListArray.from_arrays`` to rebuild
    per-doc token lists. Adds ``tokens`` (list<int32>), ``n_tok`` and
    ``n_oov``."""

    def __init__(self, vocab_words, text_col: str = "text"):
        self.vocab = pa.array(np.asarray(vocab_words, dtype=object), pa.string())
        self.text_col = text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, doc_of, n_tok = _split_words(t[self.text_col], drop_empty=True)
        idx = pc.index_in(flat, value_set=self.vocab)
        oov = idx.is_null().to_numpy(zero_copy_only=False)
        toks = pc.fill_null(idx, pa.scalar(len(self.vocab), pa.int32()))
        n_oov = np.bincount(doc_of[oov], minlength=len(t)).astype(np.int32)
        offs = pa.array(np.concatenate([[0], np.cumsum(n_tok)]).astype(np.int32))
        t = t.append_column("tokens", pa.ListArray.from_arrays(offs, toks))
        t = t.append_column("n_tok", pa.array(n_tok.astype(np.int32)))
        return t.append_column("n_oov", pa.array(n_oov))


# ------------------------------------------------------------------ DSIR

DSIR_NUM_BUCKETS = 64


def _code_points(chars: pa.Array) -> np.ndarray:
    """The code point (int64) of every one-character string of
    ``chars``: its UTF-8 bytes decoded in numpy."""
    if not len(chars):
        return np.empty(0, np.int64)
    offs = np.frombuffer(chars.buffers()[1], np.int32)[chars.offset : chars.offset + len(chars) + 1]
    data = np.frombuffer(chars.buffers()[2], np.uint8)
    start, n_bytes = offs[:-1], np.diff(offs)
    cp = data[start].astype(np.int64) & np.array([0, 0x7F, 0x1F, 0x0F, 0x07])[n_bytes]
    for k in range(1, 4):
        more = n_bytes > k
        cp[more] = (cp[more] << 6) | (data[start[more] + k] & 0x3F)
    return cp


def _word_shapes(words: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(first code point, last code point, length in code points)``
    of every non-empty word, all int64 — the inputs of the
    SQL-expressible feature hashes of ``_dsir_bigram_buckets`` and
    ``_unigram_buckets``."""
    return (
        _code_points(pc.utf8_slice_codeunits(words, 0, 1)),
        _code_points(pc.utf8_slice_codeunits(words, -1)),
        pc.utf8_length(words).to_numpy().astype(np.int64),
    )


def _dsir_bigram_buckets(text) -> tuple[np.ndarray, np.ndarray]:
    """Hashed word-bigram features per document (DSIR, Xie et al.
    2023: importance resampling on hashed n-gram counts). Returns
    ``(bucket int64, doc_index int64)`` for every consecutive
    non-empty-word pair. The hash is a cheap SQL-expressible mix of
    the two words' first code points and lengths so a DuckDB oracle
    can recompute buckets exactly; swap in ``hash_str_u64`` for
    production corpora (same downstream shape)."""
    words, doc_flat, _ = _split_words(text, drop_empty=True)
    # consecutive kept words within the same doc form the bigrams
    starts = np.flatnonzero(doc_flat[1:] == doc_flat[:-1])
    first_cp, _, wlen = _word_shapes(words)
    b = (
        first_cp[starts] * 31
        + first_cp[starts + 1] * 7
        + wlen[starts] * 3
        + wlen[starts + 1]
    ) % DSIR_NUM_BUCKETS
    return b, doc_flat[starts]


def dsir_bucket_counts(ds):
    """Raw- and target-distribution hashed-bigram bucket counts over
    the corpus: per-batch ``bincount`` into ``DSIR_NUM_BUCKETS``
    buckets (so the shuffle moves two tiny count vectors per batch),
    one bucketed groupby to merge. The bool ``is_target`` column marks
    the target-domain rows. Returns a small pandas frame
    ``(bucket, raw_c, tgt_c)`` for broadcasting to ``DsirScorer``."""
    from .aggregate import bucketed_aggregate

    def partials(t: pa.Table) -> pa.Table:
        tgt = t["is_target"].to_numpy(zero_copy_only=False).astype(bool)
        b, doc_of = _dsir_bigram_buckets(t["text"])
        raw = np.bincount(b, minlength=DSIR_NUM_BUCKETS).astype(np.int64)
        tgt_c = np.bincount(
            b[tgt[doc_of]], minlength=DSIR_NUM_BUCKETS
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(np.arange(DSIR_NUM_BUCKETS, dtype=np.int64)),
                "raw_c": pa.array(raw),
                "tgt_c": pa.array(tgt_c),
            }
        )

    merged = bucketed_aggregate(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["bucket"],
        [("raw_c", "sum", "raw_c"), ("tgt_c", "sum", "tgt_c")],
    ).to_pandas()
    return merged.sort_values("bucket").reset_index(drop=True)


class DsirScorer:
    """DSIR importance scoring as a broadcast stage: pass an instance
    to ``map_batches`` and the two bucket count vectors are serialized
    once with the operator; each batch runs one flat bigram-bucket pass
    and two per-doc scatter-adds. Adds:

    * ``dsir_score`` — int64 Σ over the doc's bigrams of
      ``tgt_c[b]·N_raw − raw_c[b]·N_tgt`` (the sign of the
      probability-difference per bucket; exact integer arithmetic so
      an SQL oracle matches bit-for-bit — fine while
      ``count × corpus_total`` fits int64, i.e. test scale);
    * ``dsir_weight`` — the float add-1-smoothed log importance
      weight ``Σ log(p̂_tgt(b)/p̂_raw(b))`` the paper resamples with;
    * ``dsir_keep`` — ``dsir_score > 0`` (target-leaning).
    """

    def __init__(self, raw_c, tgt_c):
        self.raw_c = np.asarray(raw_c, dtype=np.int64)
        self.tgt_c = np.asarray(tgt_c, dtype=np.int64)
        self.n_raw = int(self.raw_c.sum())
        self.n_tgt = int(self.tgt_c.sum())
        b = DSIR_NUM_BUCKETS
        self.int_val = self.tgt_c * self.n_raw - self.raw_c * self.n_tgt
        self.log_val = np.log((self.tgt_c + 1.0) / (self.n_tgt + b)) - np.log(
            (self.raw_c + 1.0) / (self.n_raw + b)
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        b, doc_of = _dsir_bigram_buckets(t["text"])
        n = len(t)
        score = np.zeros(n, dtype=np.int64)
        np.add.at(score, doc_of, self.int_val[b])
        weight = np.zeros(n, dtype=np.float64)
        np.add.at(weight, doc_of, self.log_val[b])
        n_big = np.bincount(doc_of, minlength=n).astype(np.int64)
        t = t.append_column("dsir_score", pa.array(score, pa.int64()))
        t = t.append_column("dsir_weight", pa.array(weight, pa.float64()))
        t = t.append_column("n_bigrams", pa.array(n_big, pa.int64()))
        return t.append_column("dsir_keep", pa.array(score > 0))


# ------------------------------------------------------- exact line dedup


def duplicate_lines(ds, *, num_buckets: int | None = None):
    """Corpus-wide duplicated-LINE table — the discovery half of
    RefinedWeb/MassiveText exact line dedup (Penedo et al. 2023 §3.3
    remove lines duplicated across documents; boilerplate headers,
    nav bars, licence lines). Same shuffle-light shape as
    ``duplicate_passages``: per batch, hash the newline-split lines
    and pre-aggregate to (hash, distinct-docs, min-doc) triples; ONE
    bucketed hash groupby merges partials. Returns a Dataset
    ``(line_hash uint64, n_docs, min_doc_id)`` of lines seen in
    at least 2 distinct documents — ``min_doc_id`` is the
    occurrence that survives dedup (first-owner-wins)."""
    from .._util import hash_str_u64

    def partials(t: pa.Table) -> pa.Table:
        lines, doc_of, _ = _split(t["text"], "\n")
        h = hash_str_u64(lines.to_numpy(zero_copy_only=False))
        return _unit_partials(h, doc_of, t["doc_id"].to_numpy(zero_copy_only=False), "line_hash")

    return _shared_units(ds, partials, "line_hash", 2, num_buckets)


class LineDeduper(_OwnerLookup):
    """The removal half of exact line dedup: a broadcast stage holding
    the duplicated-line table (``_OwnerLookup``). A line occurrence is
    removed iff its line is corpus-duplicated AND this document is not
    the first owner; the owner keeps every occurrence. Adds
    ``n_lines``, ``n_removed`` and the reassembled ``clean_text``
    (``_join_kept``, no per-row Python).

    Partitioning note: broadcast is right while the duplicated-line
    table fits a worker heap (it holds only lines seen in ≥2 docs).
    For corpora where it does not, run the same decision as a
    bucketed join of exploded (line_hash, doc_id, line_idx) against
    ``duplicate_lines`` output on the hash — the stage's semantics
    are unchanged."""

    def __call__(self, t: pa.Table) -> pa.Table:
        from .._util import hash_str_u64

        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lines, doc_of, n_lines = _split(t["text"], "\n")
        removed = self._removed(hash_str_u64(lines.to_numpy(zero_copy_only=False)), ids[doc_of])
        clean, kept_counts = _join_kept(lines, doc_of, ~removed, len(t), "\n")
        t = t.append_column("n_lines", pa.array(n_lines, pa.int64()))
        t = t.append_column("n_removed", pa.array(n_lines - kept_counts))
        return t.append_column("clean_text", clean)


def resample_mixture(ds, weights: dict[str, float], *, mod: int = 1000):
    """Deterministic epoch-style domain-mixture resampling (the
    up/down-sampling step of public LLM data recipes — e.g. The Pile's
    per-set epochs, LLaMA's sampling proportions): a row with weight
    ``w = weights[source]`` (missing source → 1.0) is emitted
    ``floor(w)`` times, plus one more iff ``id % mod < round(mod *
    frac(w))`` — so expected multiplicity equals ``w`` with a
    deterministic, SQL-mirrorable residual instead of RNG. Weight 0
    drops a source; fractional weight < 1 downsamples. Stateless
    ``map_batches`` (np.repeat on row indices, Arrow ``take``) — no
    shuffle, order preserved within blocks."""

    def rep(t: pa.Table) -> pa.Table:
        src = pd.Series(t["source"].to_numpy(zero_copy_only=False), dtype=object)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = src.map(weights).astype(float).fillna(1.0).to_numpy()
        fl = np.floor(w)
        extra = (ids % mod) < np.round(mod * (w - fl))
        reps = (fl + extra).astype(np.int64)
        return t.take(pa.array(np.repeat(np.arange(len(t), dtype=np.int64), reps)))

    return ds.map_batches(rep, batch_format="pyarrow")


# --- deterministic held-out split + per-domain caps -----------------
#
# Two standard corpus-assembly steps public pipelines apply after
# filtering/dedup: (1) carving a reproducible train/valid/test split,
# and (2) capping each domain's contribution (RefinedWeb/LLaMA-style
# per-source budgets). Both use the same multiplicative integer hash
# so they are exactly SQL-mirrorable (all arithmetic stays < 2^63:
# the id is reduced mod SPLIT_MOD < 2^30 before the multiply).

SPLIT_MOD = 1_000_000_007
SPLIT_MULT = 2_654_435_761  # Knuth's multiplicative constant


def quality_buckets(ds, score_col: str, *, n_buckets: int = 3, labels=None):
    """CCNet-style quality bucketing (Wenzek et al. 2020 split the
    corpus into head/middle/tail by LM perplexity terciles): global
    APPROXIMATE quantile boundaries from ONE mergeable-sketch pass —
    never a global sort, the classic scale trap for this op — then a
    stateless labeling pass (``searchsorted`` against the broadcast
    boundary array). Buckets ascend with score: for perplexity
    (lower = better) bucket 0 is CCNet's 'head'; for a
    higher-is-better score pass reversed ``labels``. Returns
    ``(labeled_ds, boundaries)`` — the Dataset gains ``bucket`` (int8)
    and ``bucket_label``. A value equal to a boundary belongs to the
    LOWER bucket (P(X <= q_{1/3}) >= 1/3, the usual quantile closure).
    Boundary rank error follows the k=256 sketch (≈ ≤5% CDF rank),
    so each bucket's mass is within ~2× that of 1/n_buckets."""
    from .sketch import quantiles

    qs = tuple(i / n_buckets for i in range(1, n_buckets))
    bounds_map = quantiles(ds, score_col, qs=qs)
    bounds = np.array([bounds_map[q] for q in qs], np.float64)
    lab_arr = np.asarray(
        list(labels) if labels is not None else [f"b{i}" for i in range(n_buckets)],
        dtype=object,
    )
    if len(lab_arr) != n_buckets:
        raise ValueError(f"need {n_buckets} labels, got {len(lab_arr)}")

    def label(t: pa.Table) -> pa.Table:
        v = t[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(bounds, v, side="left").astype(np.int8)
        t = t.append_column("bucket", pa.array(b, pa.int8()))
        return t.append_column("bucket_label", pa.array(lab_arr[b], pa.string()))

    return ds.map_batches(label, batch_format="pyarrow"), bounds


def split_hash(ids: np.ndarray) -> np.ndarray:
    """((id % p) * K) % p over int64 — deterministic, overflow-free in
    both numpy int64 and SQL BIGINT (max intermediate ~2.65e18)."""
    return ((ids.astype(np.int64) % SPLIT_MOD) * SPLIT_MULT) % SPLIT_MOD


def assign_split(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    test_frac: float = 0.05,
    valid_frac: float = 0.05,
) -> pa.Table:
    """Deterministic train/valid/test assignment by integer-hash rank:
    ``r = split_hash(id) % 10000``; the first ``test_frac`` slice of
    rank space is 'test', the next ``valid_frac`` 'valid', the rest
    'train', in a ``split`` column. Stateless and shuffle-free — every
    worker labels its rows identically at any cluster size, and the
    split is stable across reruns / added data (a doc's label never
    depends on other rows)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    r = split_hash(ids) % 10_000
    test_cut = int(round(test_frac * 10_000))
    valid_cut = test_cut + int(round(valid_frac * 10_000))
    lab = np.where(r < test_cut, "test", np.where(r < valid_cut, "valid", "train"))
    return batch.append_column("split", pa.array(lab, pa.string()))


def stratified_sample(ds, n: int, *, num_buckets: int | None = None):
    """Deterministic per-group cap: keep the ``n`` rows of each group
    with the smallest ``(split_hash(id), id)`` — a uniform-without-
    replacement sample that any SQL engine reproduces with ROW_NUMBER
    over the same hash order.

    Distributed as partial-top-n: every batch keeps at most ``n``
    candidate rows per group it sees (vectorized lexsort + within-
    group rank, no Python per group), so the single shuffle moves
    ≤ n × groups × batches candidate (group, id, hash) triples — never
    the corpus — and one bucketed group-apply takes the global head.
    Returns a Dataset of ``(source, doc_id, rank)`` (rank 0-based
    in hash order); join/broadcast against the corpus to materialize
    sampled rows. Partitioning assumption: n × (groups in one bucket)
    rows fit one task."""
    from .aggregate import head_per_group, keyed_apply

    def partials(t: pa.Table) -> pa.Table:
        g = t["source"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = split_hash(ids)
        # lexsort: primary group, then hash, then id
        order = np.lexsort((ids, h, g))
        gs = g[order]
        new = np.empty(len(gs), dtype=bool)
        if len(gs):
            new[0] = True
            new[1:] = gs[1:] != gs[:-1]
        starts = np.flatnonzero(new)
        rank = np.arange(len(gs), dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, len(gs)))
        )
        keep = order[rank < n]
        return pa.table(
            {
                "source": pa.array(g[keep]),
                "doc_id": pa.array(ids[keep]),
                "_h": pa.array(h[keep]),
            }
        )

    cand = ds.map_batches(partials, batch_format="pyarrow")

    def head_n(t: pa.Table) -> pa.Table:
        out, rank = head_per_group(t, "source", [("_h", "ascending"), ("doc_id", "ascending")], n)
        return out.select(["source", "doc_id"]).append_column("rank", pa.array(rank, pa.int64()))

    return keyed_apply(cand, "source", head_n, num_buckets=num_buckets)


def _flat_tokens(t: pa.Table, tokens_col: str):
    """Zero-copy flat view of a list<int32> column: (values, offsets).
    Also unwraps Ray's variable-shaped tensor extension (whose storage
    holds the same list child) so in-memory test datasets behave like
    parquet-read ones."""
    la = t[tokens_col]
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    if not (pa.types.is_list(la.type) or pa.types.is_large_list(la.type)):
        st = getattr(la, "storage", None)
        if st is not None:
            la = st.field(0) if pa.types.is_struct(st.type) else st
    offs = la.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = la.values.to_numpy(zero_copy_only=False).astype(np.int64)
    # a sliced ListArray's offsets don't start at 0 — rebase
    return vals[offs[0] : offs[-1]], offs - offs[0]


# token_corpus_stats' distinct columns, by the pairs' ``kind``
_DISTINCT_KINDS = ["n_distinct_tokens", "n_distinct_bigrams"]


def token_corpus_stats(ds, *, vocab_size: int):
    """Token-native corpus analytics over the pre-tokenized input shape
    (``tokens: list<int32>``): per ``source`` — document count, token
    count, max token id, DISTINCT token ids, and DISTINCT adjacent-token
    bigrams (bigram key = ``a * vocab_size + b``, exact for ids <
    vocab_size).

    Every kernel runs on the flat Arrow list values/offsets buffers
    (zero-copy, no per-doc Python). Shuffle discipline: sums/max move
    as per-batch partials. Both distincts come from one read and one
    ``sketch.distinct_count``: each batch emits its PRE-DEDUPED
    ``(src, kind, key)`` pairs (``src`` the source's row among the
    sums, ``kind`` 0 for a token id, 1 for a bigram key), so the
    shuffle is bounded by true cardinality, never the token stream.
    Distincts are exact; at extreme cardinalities swap the pairs for
    the mergeable HLL in ``stages/sketch``. Returns a small pandas
    frame."""
    from .aggregate import bucketed_aggregate
    from .sketch import distinct_count

    def sums(t: pa.Table) -> pa.Table:
        vals, offs = _flat_tokens(t, "tokens")
        src = pd.Series(t["source"].to_numpy(zero_copy_only=False), dtype=object)
        codes, uniq = pd.factorize(src)
        k = len(uniq)
        lens = np.diff(offs)
        n_docs = np.bincount(codes, minlength=k).astype(np.int64)
        n_tokens = np.bincount(codes, weights=lens, minlength=k).astype(np.int64)
        code_flat = codes[np.repeat(np.arange(len(src), dtype=np.int64), lens)]
        max_tok = (
            pd.Series(vals)
            .groupby(code_flat)
            .max()
            .reindex(range(k), fill_value=-1)
            .to_numpy()
            .astype(np.int64)
        )
        return pa.table(
            {
                "source": pa.array(uniq.to_numpy(dtype=object), pa.string()),
                "n_docs": pa.array(n_docs),
                "n_tokens": pa.array(n_tokens),
                "max_tok": pa.array(max_tok),
            }
        )

    base = bucketed_aggregate(
        ds.map_batches(sums, batch_format="pyarrow"),
        ["source"],
        [
            ("n_docs", "sum", "n_docs"),
            ("n_tokens", "sum", "n_tokens"),
            ("max_tok", "max", "max_tok"),
        ],
    ).to_pandas()

    sources = pa.array(base["source"], pa.string())

    def pairs(t: pa.Table) -> pa.Table:
        vals, offs = _flat_tokens(t, "tokens")
        # a source's row in ``base`` is its code in every batch
        codes = pc.index_in(t["source"], value_set=sources, skip_nulls=False)
        codes = codes.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(len(t), dtype=np.int64), np.diff(offs))
        same = doc_of[1:] == doc_of[:-1]
        # token keys, then bigram keys (< vocab_size² < 2^33 for
        # GPT-2-sized vocabs) flagged by bit 33, the source code above
        # them: pre-dedup inside the batch before anything shuffles
        key = np.concatenate([vals, (vals[:-1][same] * np.int64(vocab_size) + vals[1:][same]) | (1 << 33)])
        u = np.unique((np.concatenate([codes[doc_of], codes[doc_of[:-1][same]]]) << 34) | key)
        return pa.table(
            {
                "src": pa.array(u >> 34),
                "kind": pa.array(((u >> 33) & 1).astype(np.int8)),
                "key": pa.array(u & ((1 << 33) - 1)),
            }
        )

    counts = distinct_count(ds.map_batches(pairs, batch_format="pyarrow"), ["src", "kind"], "key").to_pandas()
    for kind, name in enumerate(_DISTINCT_KINDS):
        base[name] = counts[counts["kind"] == kind].set_index("src")["distinct"]
    return base


# --- bigram LM quality scoring (the CCNet n-gram upgrade) ------------

_PAIR_SEP = "\x1f"  # NUL-safe composite-key joiner (engine convention)


def _adjacent_pairs(text) -> tuple[pa.Array, np.ndarray, pa.Array, np.ndarray]:
    """Every adjacent non-empty word pair: ``(pairs, doc_of, words,
    first)`` — the flat ``'<w1>\\x1f<w2>'`` strings, each pair's doc
    index, the flat non-empty word array and each pair's first-word
    index into it (its second word is at ``first + 1``). Empty tokens
    are dropped at the flat level BEFORE pairing (same rule as the DSIR
    bigrams and the SQL list_filter mirror)."""
    words, doc_flat, _ = _split_words(text, drop_empty=True)
    first = np.flatnonzero(doc_flat[1:] == doc_flat[:-1])
    pairs = pc.binary_join_element_wise(words.take(first), words.take(first + 1), _PAIR_SEP)
    return pairs, doc_flat[first], words, first


def corpus_bigram_counts(ds):
    """Corpus-wide adjacent-word-bigram frequency table as a Dataset
    ``(pair, c)`` with pair = ``w1\\x1fw2``. Same shuffle discipline as
    ``corpus_word_counts``: per-batch Arrow ``value_counts``
    pre-aggregation so (pair, partial-count) rows move, never text; one
    bucketed hash groupby merges."""
    from .aggregate import bucketed_aggregate

    def partials(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(_adjacent_pairs(t["text"])[0])
        return pa.table({"pair": vc.field("values"), "c": vc.field("counts")})

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return bucketed_aggregate(parts, ["pair"], [("c", "sum", "c")])


def top_bigrams(counts_ds, b: int) -> pd.DataFrame:
    """Top-``b`` bigrams by (count DESC, pair ASC) from a
    ``corpus_bigram_counts`` Dataset (``_top_k``)."""
    return _top_k(counts_ds, "pair", b, "top_bigrams")


BIGRAM_LAM = 0.7  # weight of the bigram MLE against the add-1 unigram


class BigramScorer:
    """Interpolated bigram LM scoring as a broadcast stage — the
    bigram upgrade of ``UnigramScorer`` (CCNet uses a KenLM n-gram
    model; this is the same shape with an in-table bigram MLE
    interpolated against the add-1 unigram):

    ``p(w2|w1) = λ * c(w1,w2)/c(w1) + (1-λ) * p_uni(w2)``, λ =
    ``BIGRAM_LAM``, with the
    bigram term 0 when the pair (or w1) is outside the broadcast
    tables. Per-document outputs: ``n_pairs`` (adjacent non-empty word
    pairs), ``n_big_hits`` / ``sum_big_freq`` (occurrences and summed
    corpus counts of pairs found in the top-B table — exact integer
    contracts), ``mean_bigram_logprob`` (the float score). Pass an
    instance to ``map_batches``: both tables are serialized once with
    the operator, and each batch looks up its pairs and its words with
    one Arrow ``index_in`` each (``_index_in``)."""

    def __init__(
        self,
        bigram_pairs,
        bigram_counts,
        vocab_words,
        vocab_counts,
        total_words: int,
    ):
        self.pairs = pa.array(np.asarray(bigram_pairs, dtype=object), pa.string())
        self.pair_c = np.asarray(bigram_counts, dtype=np.int64)
        self.words = pa.array(np.asarray(vocab_words, dtype=object), pa.string())
        self.word_c = np.asarray(vocab_counts, dtype=np.int64)
        self.total = int(total_words)

    def __call__(self, t: pa.Table) -> pa.Table:
        pairs, doc_of, words, first = _adjacent_pairs(t["text"])
        n = len(t)
        bhit, pos = _index_in(pairs, self.pairs)
        bc = np.zeros(len(pairs), np.int64)
        bc[bhit] = self.pair_c[pos]
        whit, pos = _index_in(words, self.words)
        wc = np.zeros(len(words), np.int64)
        wc[whit] = self.word_c[pos]
        c1, h1, c2 = wc[first], whit[first], wc[first + 1]
        v = len(self.words)
        p_uni = (c2 + 1.0) / (self.total + v + 1.0)
        p_bi = np.where(bhit & h1 & (c1 > 0), bc / np.maximum(c1, 1), 0.0)
        p = BIGRAM_LAM * p_bi + (1.0 - BIGRAM_LAM) * p_uni
        lp = np.log(np.maximum(p, 1e-300))
        n_pairs = np.bincount(doc_of, minlength=n).astype(np.int64)
        n_hits = np.bincount(doc_of[bhit], minlength=n).astype(np.int64)
        sum_freq = np.zeros(n, np.int64)
        np.add.at(sum_freq, doc_of[bhit], bc[bhit])
        logsum = np.zeros(n)
        np.add.at(logsum, doc_of, lp)
        mean_lp = logsum / np.maximum(n_pairs, 1)
        for name, arr, typ in [
            ("n_pairs", n_pairs, pa.int64()),
            ("n_big_hits", n_hits, pa.int64()),
            ("sum_big_freq", sum_freq, pa.int64()),
            ("mean_bigram_logprob", mean_lp, pa.float64()),
        ]:
            t = t.append_column(name, pa.array(arr, typ))
        return t


def token_repetition_stats(ds, *, vocab_size: int):
    """Gopher-style repetition signals computed TOKEN-natively over the
    pre-tokenized ``list<int32>`` corpus shape (Rae et al. 2021 §A1.1
    measure repetition on words/lines; on a tokenized corpus the same
    signals come straight off the token stream, no detokenization):
    per doc — token count, distinct token ids, adjacent-bigram count,
    distinct adjacent bigrams (key ``a * vocab_size + b``, exact for
    ids < vocab_size), and the longest run of one repeated token id
    (``max_run``; catches pathological pad/newline floods).

    Purely row-local → one ``map_batches`` pass on the flat Arrow list
    buffers; distinct-per-doc via one lexsort over (doc, value) pairs
    and run detection via change-point indices — no per-doc Python.
    Returns a Dataset with the five stat columns appended."""

    def stats(t: pa.Table) -> pa.Table:
        vals, offs = _flat_tokens(t, "tokens")
        lens = np.diff(offs)
        n = len(lens)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
        # distinct token ids per doc: sort (doc, val) pairs, count group
        # changes per doc
        if len(vals):
            order = np.lexsort((vals, doc_of))
            dv, vv = doc_of[order], vals[order]
            new = np.ones(len(vv), bool)
            new[1:] = (dv[1:] != dv[:-1]) | (vv[1:] != vv[:-1])
            n_distinct = np.bincount(dv[new], minlength=n).astype(np.int64)
        else:
            n_distinct = np.zeros(n, np.int64)
        # adjacent bigrams: positions whose successor is in the same doc
        last_pos = offs[1:] - 1  # last flat index of each non-empty doc
        valid = np.ones(len(vals), bool)
        valid[last_pos[lens > 0]] = False
        if valid.any():
            # pair (i, i+1) is in-doc when position i is not a doc-last
            pair_mask = valid[:-1] if len(vals) > 1 else np.empty(0, bool)
            keys = vals[:-1][pair_mask] * vocab_size + vals[1:][pair_mask]
            pdoc = doc_of[:-1][pair_mask]
            order = np.lexsort((keys, pdoc))
            dk, kk = pdoc[order], keys[order]
            new = np.ones(len(kk), bool)
            new[1:] = (dk[1:] != dk[:-1]) | (kk[1:] != kk[:-1])
            n_dis_big = np.bincount(dk[new], minlength=n).astype(np.int64)
        else:
            n_dis_big = np.zeros(n, np.int64)
        n_bigrams = np.maximum(lens - 1, 0)
        # longest run of a single token id per doc: change points at doc
        # boundaries or value changes → run lengths via diff of starts
        if len(vals):
            change = np.ones(len(vals), bool)
            change[1:] = (vals[1:] != vals[:-1]) | (doc_of[1:] != doc_of[:-1])
            starts = np.flatnonzero(change)
            run_len = np.diff(np.append(starts, len(vals)))
            run_doc = doc_of[starts]
            # runs are doc-contiguous → reduceat over per-doc run spans
            first_run = np.ones(len(starts), bool)
            first_run[1:] = run_doc[1:] != run_doc[:-1]
            span_starts = np.flatnonzero(first_run)
            max_per_present = np.maximum.reduceat(run_len, span_starts)
            max_run = np.zeros(n, np.int64)
            max_run[run_doc[span_starts]] = max_per_present
        else:
            max_run = np.zeros(n, np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pa.array(lens),
                "n_distinct_tok": pa.array(n_distinct),
                "n_bigrams": pa.array(n_bigrams),
                "n_distinct_bigrams": pa.array(n_dis_big),
                "max_run": pa.array(max_run),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def build_eval_token_grams(token_lists, n: int = 8) -> np.ndarray:
    """Token-native analogue of ``build_eval_grams``: hash every
    n-TOKEN window of the held-out token sequences with the SAME
    polynomial window kernel the train-side scan uses
    (``stages/dedup._token_window_hashes_flat``), so membership is
    exact by construction. Sequences shorter than ``n`` contribute
    nothing. Returns a sorted unique uint64 array to broadcast with
    ``ray.put``."""
    from .dedup import _token_window_hashes_flat  # lazy: avoid cycle

    keep = [np.asarray(t, dtype=np.int32) for t in token_lists
            if len(t) >= n]
    if not keep:
        return np.array([], dtype=np.uint64)
    offs = np.zeros(len(keep) + 1, np.int32)
    np.cumsum([len(t) for t in keep], out=offs[1:])
    tbl = pa.table(
        {
            "tokens": pa.ListArray.from_arrays(
                pa.array(offs), pa.array(np.concatenate(keep), pa.int32())
            )
        }
    )
    h, _ = _token_window_hashes_flat(tbl, "tokens", n)
    return np.sort(np.unique(h))


class TokenDecontaminator:
    """GPT-3-style test-set decontamination over the PRE-TOKENIZED
    corpus shape (Brown et al. 2020 appendix C, on token ids instead
    of words): flag a training document when ANY of its n-token
    windows appears in the held-out set's window table.

    Broadcast stage: pass an instance to ``map_batches`` and the
    sorted uint64 window-hash table is serialized once with the
    operator; ``__call__`` runs one
    strided window-hash pass per batch (the shared
    ``_token_window_hashes_flat`` kernel) and an ``np.isin``
    membership. Adds ``contaminated`` (bool), ``n_contam_windows`` and
    ``n_windows`` (= max(len - n + 1, 0); docs shorter than ``n`` have
    zero windows and are never flagged)."""

    def __init__(self, eval_grams: np.ndarray, n: int = 8):
        self.grams = np.asarray(eval_grams, dtype=np.uint64)
        self.n = n

    def __call__(self, t: pa.Table) -> pa.Table:
        from .dedup import _token_window_hashes_flat  # lazy: avoid cycle

        h, n_wins = _token_window_hashes_flat(t, "tokens", self.n)
        vals_lens = _flat_tokens(t, "tokens")[1]
        lens = np.diff(vals_lens)
        real = np.maximum(lens - self.n + 1, 0)
        if len(h) and len(self.grams):
            hit = np.isin(h, self.grams)
            win_offs = np.zeros(len(n_wins) + 1, np.int64)
            np.cumsum(n_wins, out=win_offs[1:])
            hits = np.add.reduceat(hit, win_offs[:-1]) if len(hit) else np.zeros(
                len(n_wins), np.int64
            )
            hits = np.where(n_wins > 0, hits, 0)
        else:
            hits = np.zeros(len(lens), np.int64)
        # the kernel zero-pads short docs to one window — those windows
        # are synthetic; a doc with no REAL window is never contaminated
        hits = np.where(real > 0, hits, 0).astype(np.int64)
        t = t.append_column("contaminated", pa.array(hits > 0))
        t = t.append_column("n_contam_windows", pa.array(hits))
        return t.append_column("n_windows", pa.array(real.astype(np.int64)))


def shard_hash(ids: np.ndarray, seed: int = 0) -> np.ndarray:
    """Seeded shuffle rank: ``(((id + seed) % p) * K) % p`` over int64 —
    uniform pseudo-random, deterministic, overflow-free in both numpy
    int64 and SQL BIGINT (same closed form as ``split_hash``)."""
    return (((ids + np.int64(seed)) % SPLIT_MOD) * SPLIT_MULT) % SPLIT_MOD


def shuffle_shards(ds, id_col: str = "doc_id", *, n_shards: int = 64, seed: int = 0):
    """Deterministic seeded GLOBAL SHUFFLE into training shards — the
    last stage of a training-data pipeline. Every row gets
    ``shuffle_rank`` (a pseudo-random but closed-form function of its
    id + seed) and ``shard = shuffle_rank % n_shards``; reading shards
    in order, each sorted by rank, is a uniform permutation of the
    corpus for any seed.

    Scale shape: ``ds.random_shuffle()`` materializes a random
    permutation of every block through one giant all-to-all; this is
    ONE stateless labeling pass — the only exchange is the bucketed
    write keyed on shard (``write_training_shards``), and re-shuffling
    for a new epoch is just a new seed, no data movement. Numeric ids
    use the SQL-expressible multiplicative hash; string ids fall back
    to the 64-bit string hash."""

    def lab(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if np.issubdtype(ids.dtype, np.number):
            r = shard_hash(ids.astype(np.int64), seed)
        else:
            from .._util import hash_str_u64, splitmix64

            r = (
                splitmix64(hash_str_u64(ids) + np.uint64(seed))
                >> np.uint64(1)
            ).astype(np.int64)
        t = t.append_column("shard", pa.array((r % n_shards).astype(np.int32)))
        return t.append_column("shuffle_rank", pa.array(r))

    return ds.map_batches(lab, batch_format="pyarrow")


def write_training_shards(
    ds, out_dir: str, id_col: str = "doc_id", *, n_shards: int = 64, seed: int = 0
):
    """Shuffle (``shuffle_shards``) and write one Parquet file per
    shard, rows sorted by (shuffle_rank, id) — the resumable training
    layout: a failed run re-runs only shards whose final file is
    missing (writes are tmp + atomic rename, so no partial final file
    ever exists). One ``keyed_apply`` shuffle on ``shard`` co-locates
    each shard's rows and every bucket writes its shards in turn (each
    shard ≈ N/n_shards rows must fit a worker). Returns the manifest
    as pandas, one row per shard in shard order: shard, n_rows, id_sum
    (numeric ids), first/last id in read order, skipped, on_disk_rows.

    Resume safety (ADVICE r3): the run config (seed, n_shards, id_col)
    is stamped into ``_shards_meta.json`` before any shard writes; a
    resume against a directory stamped with a DIFFERENT config raises
    instead of silently keeping stale shards. Skipped shards also
    report the EXISTING file's row count (``on_disk_rows``, parquet
    metadata only — no data read) so drift from the recomputed
    ``n_rows`` is detectable in the manifest."""
    import json
    import os

    import pyarrow.parquet as pq

    from .aggregate import keyed_apply, sorted_groups

    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, "_shards_meta.json")
    config = {"seed": int(seed), "n_shards": int(n_shards), "id_col": id_col}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            existing = json.load(f)
        if existing != config:
            raise ValueError(
                f"{out_dir} holds shards written with config {existing}; "
                f"current run uses {config} — existing shard files would "
                "be stale. Use a fresh directory or delete the old shards."
            )
    else:
        tmp_meta = meta_path + f".tmp-{os.getpid()}"
        with open(tmp_meta, "w") as f:
            json.dump(config, f)
        os.replace(tmp_meta, meta_path)
    labeled = shuffle_shards(ds, id_col, n_shards=n_shards, seed=seed)

    def write_one(g: pa.Table) -> dict:
        sh = g["shard"][0].as_py()
        path = os.path.join(out_dir, f"shard-{sh:05d}.parquet")
        skipped = os.path.exists(path)
        if not skipped:
            tmp = path + f".tmp-{os.getpid()}"
            pq.write_table(g.drop_columns(["shard"]), tmp)
            os.replace(tmp, path)
        # metadata-only read: skipped-shard drift is detectable
        on_disk = pq.read_metadata(path).num_rows
        ids = g[id_col]
        numeric = pa.types.is_integer(ids.type) or pa.types.is_floating(ids.type)
        return {
            "shard": sh,
            "n_rows": len(g),
            "id_sum": int(pc.sum(ids).as_py()) if numeric else 0,
            "first_id": str(ids[0].as_py()),
            "last_id": str(ids[-1].as_py()),
            "skipped": skipped,
            "on_disk_rows": int(on_disk),
        }

    def write_bucket(t: pa.Table) -> pa.Table:
        shards = sorted_groups(t, ["shard"], [("shuffle_rank", "ascending"), (id_col, "ascending")])
        return pa.Table.from_pylist([write_one(g) for g in shards])

    manifest = keyed_apply(labeled, "shard", write_bucket).to_pandas()
    return manifest.sort_values("shard", kind="stable").reset_index(drop=True)


QUALITY_CLF_BUCKETS = 64


def _unigram_buckets(text) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed unigram features per document: ``(bucket, doc_index,
    n_words)`` for every non-empty word. Same SQL-expressible mix
    family as ``_dsir_bigram_buckets`` (first/last code point +
    length, so a DuckDB oracle recomputes buckets exactly); swap in
    ``hash_str_u64`` for production corpora."""
    words, doc_of, n_words = _split_words(text, drop_empty=True)
    first_cp, last_cp, wlen = _word_shapes(words)
    b = (first_cp * 31 + wlen * 3 + last_cp) % QUALITY_CLF_BUCKETS
    return b, doc_of, n_words


def default_clf_weights() -> np.ndarray:
    """Deterministic stand-in weight vector (``((j*37) % 21) - 10`` per
    bucket — ints in [-10, 10], SQL closed form). A real deployment
    broadcasts learned weights instead; the pipeline shape is
    identical."""
    j = np.arange(QUALITY_CLF_BUCKETS, dtype=np.int64)
    return (j * 37) % 21 - 10


class HashedQualityClassifier:
    """Model-based quality filtering as a linear classifier over
    hashed bag-of-words features — the fastText/logistic-regression
    quality gate of the GPT-3 / CCNet / FineWeb pipelines (Brown et
    al. 2020 appendix A filter docs by a trained LR over hashed
    features; CCNet uses a fastText linear model). Pass an instance to
    ``map_batches``: the WEIGHT VECTOR is serialized once with the
    operator, and each batch runs one flat bucket pass + one
    scatter-add per doc.

    Adds ``clf_score`` (Σ weights[bucket(word)] — int64 when the
    weights are integer, so an SQL oracle matches exactly),
    ``clf_prob`` (sigmoid of the length-normalized score) and
    ``clf_keep`` (score > 0)."""

    def __init__(self, weights: np.ndarray, *, bias: float = 0.0):
        w = np.asarray(weights)
        if len(w) != QUALITY_CLF_BUCKETS:
            raise ValueError(f"need {QUALITY_CLF_BUCKETS} weights, got {len(w)}")
        self.w = w
        self.bias = bias

    def __call__(self, t: pa.Table) -> pa.Table:
        b, doc_of, n_words = _unigram_buckets(t["text"])
        integral = np.issubdtype(self.w.dtype, np.integer)
        score = np.zeros(len(t), np.int64 if integral else np.float64)
        if len(b):
            np.add.at(score, doc_of, self.w[b])
        z = score / np.maximum(n_words, 1) + self.bias
        prob = 1.0 / (1.0 + np.exp(-z))
        t = t.append_column("clf_score", pa.array(score))
        t = t.append_column("clf_prob", pa.array(prob, pa.float64()))
        t = t.append_column("clf_keep", pa.array(score > 0))
        return t.append_column("n_words", pa.array(n_words))


def iter_training_batches(
    shards_dir: str,
    batch_size: int,
    *,
    rank: int = 0,
    world_size: int = 1,
    drop_last: bool = False,
):
    """Consumption side of ``write_training_shards``: stream the shard
    files in filename order (each file is internally shuffle-rank
    sorted, so this IS the shuffled epoch order) and yield fixed-size
    ``pyarrow.Table`` batches that span shard boundaries. For
    data-parallel training each host passes its ``(rank, world_size)``
    and reads only shards ``rank, rank+world, ...`` — disjoint
    coverage with no coordination, one sequential Parquet scan per
    shard, never more than one shard + one batch in memory."""
    import os

    import pyarrow.parquet as pq

    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} outside world of {world_size}")
    files = sorted(
        f for f in os.listdir(shards_dir)
        if f.startswith("shard-") and f.endswith(".parquet")
    )
    carry: pa.Table | None = None
    for f in files[rank::world_size]:
        t = pq.read_table(os.path.join(shards_dir, f))
        t = t if carry is None else pa.concat_tables([carry, t], promote_options="default")
        off = 0
        while off + batch_size <= len(t):
            yield t.slice(off, batch_size)
            off += batch_size
        carry = t.slice(off) if off < len(t) else None
    if carry is not None and len(carry) and not drop_last:
        yield carry
