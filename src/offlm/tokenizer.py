"""WordPiece vocabulary handling, sequence construction, and a
deterministic desk-scale vocabulary trainer. Sequences stay unpadded
until collation pads a batch to its longest one.

Vocab file convention: UTF-8, one token per line, id = zero-based line
number. [PAD] must sit on line 0 and all five special tokens must be
present.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, not_utf8

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
CONTINUATION_PREFIX = "##"

# words longer than this fall straight to [UNK]
MAX_WORD_CHARS = 100
# A vocabulary's word table stops growing at this many raw words (about
# 200 bytes each, so about 50 MB); words first seen after that are
# segmented on every call.
MAX_WORD_TABLE_ENTRIES = 1 << 18


class Vocabulary:
    """Immutable token <-> id table with the five special tokens.

    It also holds a word table, a cache that maps each raw
    whitespace-split word to the piece ids `tokenize` emits for it, so
    each distinct word is cleaned and segmented once per vocabulary. The
    table never changes the token <-> id mapping.
    """

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.token_to_id = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.token_to_id:
                raise DataError(f"duplicate token {tok!r} at line {i + 1}")
            self.token_to_id[tok] = i
        for special in SPECIAL_TOKENS:
            if special not in self.token_to_id:
                raise DataError(f"missing special token {special}")
        if self.token_to_id[PAD] != 0:
            raise DataError(f"{PAD} must have id 0, found id {self.token_to_id[PAD]}")
        self.pad_id = 0
        self.unk_id = self.token_to_id[UNK]
        self.cls_id = self.token_to_id[CLS]
        self.sep_id = self.token_to_id[SEP]
        self.mask_id = self.token_to_id[MASK]
        self.special_ids = frozenset(self.token_to_id[s] for s in SPECIAL_TOKENS)
        # read-only id tables that masking reads for every sequence
        self.is_special = np.zeros(len(self.tokens), dtype=bool)
        self.is_special[list(self.special_ids)] = True
        self.non_special_id_array = np.flatnonzero(~self.is_special)
        self.is_special.flags.writeable = False
        self.non_special_id_array.flags.writeable = False
        # no piece that matches inside a word is longer than this
        self._longest = max(map(len, self.tokens))
        self._word_ids: dict[str, tuple[int, ...]] = {}

    def _segment(self, word: str) -> tuple[int, ...]:
        """Clean and segment one raw word into piece ids, and enter them
        in the word table while it holds fewer than
        MAX_WORD_TABLE_ENTRIES words."""
        cleaned = _clean_word(word)
        word_ids = _wordpiece(cleaned, self) if len(cleaned) <= MAX_WORD_CHARS else None
        if word_ids is None:
            word_ids = (self.unk_id,)
        if len(self._word_ids) < MAX_WORD_TABLE_ENTRIES:
            self._word_ids[word] = word_ids
        return word_ids

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    try:
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
    except UnicodeDecodeError as e:
        raise not_utf8(path) from e
    if tokens and tokens[-1] == "":
        tokens.pop()
    try:
        return Vocabulary(tokens)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def _clean_word(word: str) -> str:
    """Lowercase and strip accents (uncased convention)."""
    if word.isascii():  # NFD keeps ASCII as it is, and no ASCII char is Mn
        return word.lower()
    decomposed = unicodedata.normalize("NFD", word.lower())
    return "".join(c for c in decomposed if unicodedata.category(c) != "Mn")


def _wordpiece(word: str, vocab: Vocabulary) -> tuple[int, ...] | None:
    """Greedy longest-match-first segmentation into piece ids; None if
    unsegmentable."""
    ids = []
    start = 0
    while start < len(word):
        # a longer candidate cannot match: its piece outgrows every token
        end = min(len(word), start + vocab._longest)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            found = vocab.token_to_id.get(piece)
            if found is not None:
                break
            end -= 1
        if found is None:
            return None
        ids.append(found)
        start = end
    return tuple(ids)


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Whitespace pre-split, greedy WordPiece per word, frame.

    Unmatched or over-long words become a single [UNK]. The piece stream
    is tail-truncated to max_len - 2 before framing with [CLS]/[SEP]. The
    ids are not padded; collation pads a batch to its longest sequence.
    Each word's ids come from the vocabulary's word table.
    """
    if max_len < 3:
        raise ConfigError(f"max_len must be >= 3, got {max_len}")
    ids = [vocab.cls_id]
    table = vocab._word_ids
    for word in text.split():
        word_ids = table.get(word)
        ids += word_ids if word_ids is not None else vocab._segment(word)
        if len(ids) >= max_len - 1:
            del ids[max_len - 1:]
            break
    ids.append(vocab.sep_id)
    return ids


def _word_counts(corpus: Iterable[str]) -> Counter:
    """Occurrences of each cleaned word; each distinct raw word is cleaned
    once, and words that clean to "" are skipped."""
    counts: Counter = Counter()
    for word, n in Counter(w for text in corpus for w in text.split()).items():
        word = _clean_word(word)
        if word:
            counts[word] += n
    return counts


def build_vocab(corpus: Iterable[str], target_size: int,
                min_frequency: int = 1) -> Vocabulary:
    """Frequency-driven trainer: seed with specials plus every observed
    character (in both word-initial and "##" continuation form), then
    repeatedly merge the most frequent adjacent pair until target_size.

    Deterministic: ties break on the lexicographically smallest merged
    token, then on the pair itself.
    """
    counts = _word_counts(corpus)
    if not counts:
        raise DataError("empty corpus")

    alphabet = sorted({c for word in counts for c in word})
    seed: list[str] = list(SPECIAL_TOKENS)
    for c in alphabet:
        seed.append(c)
        seed.append(CONTINUATION_PREFIX + c)
    if target_size <= len(seed):
        raise ConfigError(
            f"target_size {target_size} not above the seed vocabulary "
            f"of specials plus both character forms ({len(seed)})")

    tokens = list(seed)
    present = set(tokens)
    # each word as its current symbol sequence
    words = {
        word: [word[0]] + [CONTINUATION_PREFIX + c for c in word[1:]]
        for word in counts
    }

    while len(tokens) < target_size:
        pair_counts: Counter = Counter()
        for word, symbols in words.items():
            n = counts[word]
            for left, right in zip(symbols, symbols[1:]):
                pair_counts[(left, right)] += n
        best = None
        for (left, right), n in pair_counts.items():
            if n < min_frequency:
                continue
            merged = left + right[len(CONTINUATION_PREFIX):]
            if merged in present:
                continue
            key = (-n, merged, left, right)
            if best is None or key < best[0]:
                best = (key, left, right, merged)
        if best is None:
            break
        _, left, right, merged = best
        tokens.append(merged)
        present.add(merged)
        for word, symbols in words.items():
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == left and symbols[i + 1] == right:
                    symbols[i: i + 2] = [merged]
                else:
                    i += 1
    return Vocabulary(tokens)
