import os
import re
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from offlm import tokenizer
from offlm.corpus import load_texts
from offlm.errors import ConfigError, DataError
from offlm.tokenizer import (
    CONTINUATION_PREFIX,
    MAX_WORD_CHARS,
    SPECIAL_TOKENS,
    UNK,
    Vocabulary,
    _clean_word,
    _word_counts,
    build_vocab,
    load_vocab,
    tokenize,
)


def detokenize(ids, vocab):
    """Oracle inverse of tokenize up to whitespace normalization: drop
    specials, glue continuation pieces, space-separate words."""
    words = []
    for token_id in ids:
        token = vocab.tokens[int(token_id)]
        if token in SPECIAL_TOKENS:
            continue
        if token.startswith(CONTINUATION_PREFIX) and words:
            words[-1] += token[len(CONTINUATION_PREFIX):]
        else:
            words.append(token)
    return " ".join(words)


def test_vocabulary_exposes_special_ids(small_vocab):
    assert small_vocab.pad_id == 0
    assert small_vocab.tokens[small_vocab.unk_id] == "[UNK]"
    assert small_vocab.tokens[small_vocab.mask_id] == "[MASK]"
    assert len(small_vocab.special_ids) == 5
    assert "cat" in small_vocab


def test_vocabulary_rejects_duplicates_and_missing_specials():
    with pytest.raises(DataError):
        Vocabulary(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "a", "a"])
    with pytest.raises(DataError):
        Vocabulary(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a"])
    with pytest.raises(DataError):
        Vocabulary(["[UNK]", "[PAD]", "[CLS]", "[SEP]", "[MASK]"])


def test_non_special_ids_excludes_all_specials(small_vocab):
    ids = small_vocab.non_special_id_array
    assert small_vocab.pad_id not in ids
    assert small_vocab.mask_id not in ids
    assert len(ids) == len(small_vocab) - 5


def test_greedy_longest_match_prefers_whole_word(small_vocab):
    seq = tokenize("unaffable", small_vocab, max_len=8)
    pieces = [small_vocab.tokens[i] for i in seq if i != small_vocab.pad_id]
    assert pieces == ["[CLS]", "un", "##aff", "##able", "[SEP]"]


def test_unknown_word_maps_to_unk(small_vocab):
    seq = tokenize("zzz cat", small_vocab, max_len=8)
    real = [small_vocab.tokens[i] for i in seq[:4]]
    assert real == ["[CLS]", "[UNK]", "cat", "[SEP]"]


def test_frame_and_padding(small_vocab):
    seq = tokenize("the cat", small_vocab, max_len=6)
    assert seq[0] == small_vocab.cls_id
    assert seq[3] == small_vocab.sep_id
    # no padding: collation pads a batch, not tokenize
    assert len(seq) == 4
    assert small_vocab.pad_id not in seq


def test_truncation_keeps_head(small_vocab):
    seq = tokenize("the cat sat on mat", small_vocab, max_len=5)
    pieces = [small_vocab.tokens[i] for i in seq]
    assert pieces == ["[CLS]", "the", "cat", "sat", "[SEP]"]
    assert len(seq) == 5


def test_tokenize_lowercases_and_strips_accents(small_vocab):
    a = tokenize("CAT", small_vocab, max_len=6)
    b = tokenize("cat", small_vocab, max_len=6)
    assert a == b
    c = tokenize("cát", small_vocab, max_len=6)  # á -> a, then no match
    assert c != b or "cát" not in small_vocab.token_to_id


def test_max_len_must_fit_frame(small_vocab):
    with pytest.raises(ConfigError):
        tokenize("cat", small_vocab, max_len=2)


def test_detokenize_rejoins_continuations(small_vocab):
    seq = tokenize("unaffable cat", small_vocab, max_len=10)
    assert detokenize(seq, small_vocab) == "unaffable cat"


def test_detokenize_skips_frame_and_padding(small_vocab):
    seq = tokenize("dog ran", small_vocab, max_len=12)
    assert detokenize(seq, small_vocab) == "dog ran"


def test_empty_text_gives_frame_only(small_vocab):
    seq = tokenize("", small_vocab, max_len=4)
    assert seq == [small_vocab.cls_id, small_vocab.sep_id]


def test_build_vocab_contains_specials_and_chars():
    vocab = build_vocab(["abc abd", "abc"], target_size=30)
    for sp in ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"):
        assert sp in vocab
    assert "a" in vocab
    assert "##b" in vocab
    assert "##c" in vocab


def test_build_vocab_merges_most_frequent_pair_first():
    # 5 specials + both forms of {a,b,c,d} seed 13 tokens; size 14
    # leaves room for one merge, which must be the thrice-seen "ab".
    vocab = build_vocab(["ab ab ab cd"], target_size=14)
    assert "ab" in vocab
    assert "cd" not in vocab


def test_build_vocab_respects_target_size():
    vocab = build_vocab(["aa bb aa bb aa"], target_size=12)
    assert len(vocab) <= 12


def test_build_vocab_stops_when_merges_exhausted():
    vocab = build_vocab(["ab", "cd"], target_size=500)
    assert len(vocab) < 500
    assert "ab" in vocab and "cd" in vocab


def test_build_vocab_min_frequency_blocks_rare_merges():
    vocab = build_vocab(["ab ab ab", "xy"], target_size=100, min_frequency=2)
    assert "ab" in vocab
    assert "xy" not in vocab


def test_build_vocab_deterministic():
    corpus = ["the cat sat", "the dog ran", "a cat ran"]
    a = build_vocab(corpus, target_size=60)
    b = build_vocab(corpus, target_size=60)
    assert a.tokens == b.tokens


def test_round_trip_through_file(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    small_vocab.save(path)
    loaded = load_vocab(path)
    assert loaded.tokens == small_vocab.tokens


def test_load_vocab_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_vocab(tmp_path / "nope.txt")


def test_load_vocab_not_utf8_is_data_error_naming_line(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    small_vocab.save(path)
    with open(path, "ab") as f:
        f.write(b"caf\xe9\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:{len(small_vocab) + 1}: not UTF-8")):
        load_vocab(path)


def test_tokenized_sequence_is_plain_data(small_vocab):
    seq = tokenize("cat", small_vocab, max_len=5)
    assert isinstance(seq, list)
    assert all(type(i) is int for i in seq)


_PROP_VOCAB = Vocabulary([
    "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
    "the", "cat", "sat", "on", "mat", "dog", "ran",
    "un", "##aff", "##able", "##s", "a",
])


@settings(max_examples=60, deadline=None)
@given(text=st.text(alphabet="abcdefg ", max_size=40),
       max_len=st.integers(min_value=3, max_value=16))
def test_tokenize_invariants(text, max_len):
    seq = tokenize(text, _PROP_VOCAB, max_len)
    assert all(0 <= i < len(_PROP_VOCAB) for i in seq)
    assert _PROP_VOCAB.pad_id not in seq
    # the frame around the head of the untruncated piece stream
    pieces = tokenize(text, _PROP_VOCAB, max_len=len(text) + 3)[1:-1]
    assert len(seq) == min(len(pieces), max_len - 2) + 2
    assert seq == [_PROP_VOCAB.cls_id] + pieces[: max_len - 2] + [_PROP_VOCAB.sep_id]


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.sampled_from(["the", "cat", "sat", "dog", "ran"]),
                      min_size=1, max_size=6))
def test_known_words_round_trip(words):
    text = " ".join(words)
    seq = tokenize(text, _PROP_VOCAB, max_len=len(words) + 2)
    assert detokenize(seq, _PROP_VOCAB) == text


# --- the word table and fast paths against the pre-change tokenizer --------


def _clean_word_oracle(word):
    """_clean_word before its ASCII fast path."""
    decomposed = unicodedata.normalize("NFD", word.lower())
    return "".join(c for c in decomposed if unicodedata.category(c) != "Mn")


def _wordpiece_oracle(word, vocab):
    """_wordpiece before its longest-token window: every match starts at
    the end of the word."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            if piece in vocab:
                found = piece
                break
            end -= 1
        if found is None:
            return None
        pieces.append(found)
        start = end
    return pieces


def _tokenize_oracle(text, vocab, max_len):
    """tokenize before the word table: every word cleaned and segmented."""
    pieces = []
    for word in text.split():
        word = _clean_word_oracle(word)
        if not word:
            continue
        segmented = (_wordpiece_oracle(word, vocab)
                     if len(word) <= MAX_WORD_CHARS else None)
        pieces.extend(segmented if segmented is not None else [UNK])
    return ([vocab.cls_id] + [vocab.token_to_id[p] for p in pieces[: max_len - 2]]
            + [vocab.sep_id])


# letters that survive cleaning: ASCII, CJK, an emoji and a Hangul jamo
_PIECE_CHARS = "abcde\u4e2d\u6587\U0001F600\u1112"
# plus upper case, accented Latin (NFC and NFD), a Hangul syllable (three
# jamo after NFD) and a bare combining acute accent
_WORD_CHARS = _PIECE_CHARS + "ABE\u00e9\u00c9\u00e0e\u0301\ud55c\u0301"
# words around MAX_WORD_CHARS, before and after cleaning
_EDGE_WORDS = [
    "a" * (MAX_WORD_CHARS - 1), "a" * MAX_WORD_CHARS, "A" * (MAX_WORD_CHARS + 1),
    "\u00e9" * MAX_WORD_CHARS, "\u00e9" * (MAX_WORD_CHARS + 1),
    "e\u0301" * (MAX_WORD_CHARS // 2 + 1),  # 102 chars, 51 once cleaned
    "\ud55c" * (MAX_WORD_CHARS // 3 + 1),  # 34 chars, 102 jamo once cleaned
    "\u0301",
]


@st.composite
def _vocabularies(draw):
    """Specials, some single characters in both forms, and longer tokens,
    some of them long `##` continuations, so the window cap matters."""
    chars = draw(st.sets(st.sampled_from(_PIECE_CHARS)))
    tokens = [form for c in sorted(chars) for form in (c, CONTINUATION_PREFIX + c)]
    for continuation, body in draw(st.lists(
            st.tuples(st.booleans(), st.text(_PIECE_CHARS, min_size=2, max_size=14)),
            max_size=12)):
        tokens.append(CONTINUATION_PREFIX + body if continuation else body)
    return Vocabulary(list(SPECIAL_TOKENS) + list(dict.fromkeys(tokens)))


_words = st.one_of(st.text(_WORD_CHARS, min_size=1, max_size=16),
                   st.sampled_from(_EDGE_WORDS))


@st.composite
def _texts(draw, vocab):
    """Texts whose words repeat, drawn from a small pool. Some words
    join the bodies of vocabulary tokens, so long tokens do match."""
    bodies = [t.removeprefix(CONTINUATION_PREFIX) for t in vocab.tokens[len(SPECIAL_TOKENS):]]
    joined = (st.lists(st.sampled_from(bodies), min_size=1, max_size=3).map("".join)
              if bodies else _words)
    pool = draw(st.lists(st.one_of(_words, joined), min_size=1, max_size=8))
    words = draw(st.lists(st.sampled_from(pool), max_size=24))
    return " ".join(words)


@st.composite
def _vocab_and_texts(draw):
    vocab = draw(_vocabularies())
    return vocab, draw(st.lists(_texts(vocab), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(case=_vocab_and_texts(), max_len=st.integers(min_value=3, max_value=40))
@example(case=(Vocabulary(list(SPECIAL_TOKENS) + ["a", "##a", "abcdefghij", "##bcdefghijk"]),
               ["abcdefghij Abcdefghijk aa abcdefghijabcdefghijk"]), max_len=12)
def test_tokenize_matches_pre_change_oracle(case, max_len):
    vocab, texts = case
    for text in texts + texts:  # the second pass reads a warm word table
        assert tokenize(text, vocab, max_len) == _tokenize_oracle(text, vocab, max_len)


@settings(max_examples=200, deadline=None)
@given(word=st.one_of(st.text(), _words))
def test_clean_word_matches_pre_change_oracle(word):
    assert _clean_word(word) == _clean_word_oracle(word)


@settings(max_examples=60, deadline=None)
@given(case=_vocab_and_texts())
def test_fresh_and_warm_word_tables_give_the_same_ids(case):
    vocab, texts = case
    warm = [tokenize(text, vocab, max_len=64) for text in texts]
    fresh = Vocabulary(vocab.tokens)
    assert [tokenize(text, fresh, max_len=64) for text in reversed(texts)] == warm[::-1]


def test_changing_a_returned_list_leaves_later_results_unchanged(small_vocab):
    first = tokenize("unaffable cat unaffable", small_vocab, max_len=16)
    want = list(first)
    first[1] = small_vocab.mask_id
    first.extend([small_vocab.unk_id] * 3)
    del first[2:4]
    assert tokenize("unaffable cat unaffable", small_vocab, max_len=16) == want
    assert tokenize("unaffable", small_vocab, max_len=16) == want[:4] + [small_vocab.sep_id]


def test_word_table_stops_growing_at_its_cap(small_vocab, monkeypatch):
    monkeypatch.setattr(tokenizer, "MAX_WORD_TABLE_ENTRIES", 2)
    text = "the Cat sat unaffable zzz on The cats mat DOG the sat"
    for _ in range(2):
        assert tokenize(text, small_vocab, 32) == _tokenize_oracle(text, small_vocab, 32)
        assert len(small_vocab._word_ids) == 2


# --- build_vocab's word counts against the pre-change counter ---------------


def _word_counts_oracle(corpus):
    """_word_counts before it counted raw words first: every occurrence
    cleaned."""
    counts = Counter()
    for text in corpus:
        for word in text.split():
            word = _clean_word_oracle(word)
            if word:
                counts[word] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(corpus=st.lists(st.lists(_words, max_size=12).map(" ".join), max_size=8))
@example(corpus=["\u0301 Caf\u00e9 cafe\u0301 CAFE \U0001F600 \u0301", "caf\u00e9 \u00e9"])
def test_word_counts_match_pre_change_oracle(corpus):
    got = _word_counts(corpus)
    # equal counts in the same first-seen order
    assert list(got.items()) == list(_word_counts_oracle(corpus).items())
    assert "" not in got


@pytest.mark.parametrize("name", ["scored.tsv", "labeled.tsv", "golden_preprocessed.tsv"])
def test_build_vocab_matches_pre_change_word_counts_on_fixtures(
        fixtures_dir, monkeypatch, name):
    texts = load_texts(os.path.join(fixtures_dir, name))
    got = build_vocab(texts, target_size=300).tokens
    monkeypatch.setattr(tokenizer, "_word_counts", _word_counts_oracle)
    assert build_vocab(texts, target_size=300).tokens == got
