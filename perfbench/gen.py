"""Seeded synthetic inputs for the offlm benchmark.

Everything here is a pure function of the workload seed: the same seed
writes byte-identical files and returns identical strings. The program
under test only ever sees what these functions produce.

Tweets are built from a Zipfian vocabulary of pronounceable synthetic
words, `@user` mentions, t.co URLs, emoji taken from the package's emoji
map, and hashtags glued from lexicon words. Texts meant for the model
workloads are written already normalized (placeholders, emoji names,
split hashtags) and are built to an exact word-piece count, counted with
an independent greedy WordPiece oracle, so every seed feeds the model the
same number of real tokens.
"""

from __future__ import annotations

import csv

import numpy as np

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
LABELS = ("not", "off")
_ONSETS = "bdfghklmnprstvwz"
_VOWELS = "aeiou"
_CODAS = "nrstkl"
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def read_emoji_map(path) -> list[tuple[str, str]]:
    pairs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                emoji, name = line.split("\t")
                pairs.append((emoji, name))
    return pairs


def wordpiece_count(word: str, vocab: frozenset) -> int:
    """Greedy longest-match-first piece count of one lowercase word: the
    benchmark's own oracle for what offlm's tokenizer should produce."""
    count, start = 0, 0
    while start < len(word):
        end = len(word)
        while end > start:
            piece = word[start:end] if start == 0 else "##" + word[start:end]
            if piece in vocab:
                break
            end -= 1
        if end == start:
            return 1  # the whole word falls to [UNK]
        count += 1
        start = end
    return count


class TweetSource:
    """Zipfian word source plus the tweet and label generators built on it.

    `words` is in rank order; `offensive` is a fixed mid-frequency subset
    whose presence makes a text offensive.
    """

    def __init__(self, seed: int, emoji: list[tuple[str, str]],
                 num_words: int = 6000, num_offensive: int = 60):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.emoji = emoji
        self.words = self._make_words(num_words)
        ranks = np.arange(1, num_words + 1, dtype=np.float64)
        weights = 1.0 / ranks ** 1.05
        self.cdf = np.cumsum(weights / weights.sum())
        offensive_ranks = self.rng.choice(np.arange(100, 1100), num_offensive,
                                          replace=False)
        self.offensive = [self.words[r] for r in sorted(offensive_ranks)]
        self.offensive_set = frozenset(self.offensive)

    def _make_words(self, n: int) -> list[str]:
        """Words in rank order. A word's length depends on its rank alone
        (frequent words are short), so every seed has the same length
        profile and the per-text cost of the text layers does not vary
        with the seed; only the letters do."""
        seen = {"user", "url"}
        words = []
        for rank in range(n):
            syllables = 1 if rank < 150 else 2 if rank < 2000 else 3
            while True:
                word = "".join(
                    _ONSETS[self.rng.integers(len(_ONSETS))]
                    + _VOWELS[self.rng.integers(len(_VOWELS))]
                    + (_CODAS[self.rng.integers(len(_CODAS))] if (rank + i) % 2 else "")
                    for i in range(syllables))
                if word not in seen:
                    break
            seen.add(word)
            words.append(word)
        return words

    def word(self, top: int | None = None) -> str:
        """A non-offensive word by Zipf rank, optionally among the `top` most
        frequent."""
        while True:
            limit = self.cdf[-1 if top is None else top - 1]
            rank = int(np.searchsorted(self.cdf, self.rng.random() * limit))
            w = self.words[rank]
            if w not in self.offensive_set:
                return w

    def hashtag_words(self) -> list[str]:
        return [self.word(top=1500) for _ in range(2 + int(self.rng.integers(2)))]

    # -- raw tweets, as scraped ------------------------------------------------

    def raw_tweet(self, offensive: bool) -> str:
        n = 8 + int(self.rng.integers(18))
        parts = []
        for _ in range(n):
            u = self.rng.random()
            if u < 0.05:
                parts.append(f"@{self.word()}{int(self.rng.integers(100))}")
            elif u < 0.09:
                slug = "".join(_ALNUM[i] for i in self.rng.integers(len(_ALNUM), size=10))
                parts.append(f"https://t.co/{slug}")
            elif u < 0.14:
                parts.append(self.emoji[self.rng.integers(len(self.emoji))][0])
            elif u < 0.20:
                parts.append("#" + "".join(self.hashtag_words()))
            else:
                parts.append(self.word())
        if offensive:
            for _ in range(1 + int(self.rng.integers(2))):
                parts.insert(int(self.rng.integers(len(parts) + 1)),
                             self.offensive[self.rng.integers(len(self.offensive))])
        return " ".join(parts)

    # -- normalized texts of an exact piece count ------------------------------

    def model_vocab(self, size: int) -> list[str]:
        """Specials, both forms of every character, placeholders, emoji
        names, then words by rank until `size` tokens."""
        names = [name for _, name in self.emoji]
        alphabet = sorted(set("".join(self.words) + "".join(names) + "userl"))
        tokens = list(SPECIALS)
        for c in alphabet:
            tokens += [c, "##" + c]
        tokens += ["user", "url"] + names
        tokens += self.words[: size - len(tokens)]
        return tokens

    def _element(self) -> list[str]:
        u = self.rng.random()
        if u < 0.05:
            return ["USER"]
        if u < 0.09:
            return ["URL"]
        if u < 0.14:
            return [self.emoji[self.rng.integers(len(self.emoji))][1]]
        if u < 0.20:
            return self.hashtag_words()
        return [self.word()]

    def clean_text(self, pieces: int, vocab: frozenset, offensive: bool) -> str:
        """A normalized text whose word pieces number exactly `pieces`."""
        out: list[str] = []
        left = pieces
        if offensive:
            for _ in range(1 + int(self.rng.integers(2))):
                out.append(self.offensive[self.rng.integers(len(self.offensive))])
                left -= 1
        while left > 0:
            element = self._element()
            n = sum(wordpiece_count(w.lower(), vocab) for w in element)
            if n > left:
                element, n = [self.word(top=500)], 1
            out += element
            left -= n
        order = self.rng.permutation(len(out))
        return " ".join(out[i] for i in order)


def write_tsv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter="\t", quotechar='"', lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)


def stratified_lengths(rng, count: int, lo: int, hi: int) -> list[int]:
    """`count` lengths spread evenly over [lo, hi], shuffled: every batch
    drawn this way holds the same number of real pieces."""
    lengths = [lo + ((hi - lo) * i) // max(count - 1, 1) for i in range(count)]
    return [lengths[i] for i in rng.permutation(count)]


def scored_rows(src: TweetSource, n: int) -> list[list]:
    """Raw tweets with SOLID-style `average` scores. Exactly two thirds
    are offensive, with scores spread evenly over [0.5, 1.0); the rest
    spread evenly over [0, 0.5). Every seed thus selects the same number
    of rows in any threshold bin."""
    high = 2 * n // 3
    order = src.rng.permutation(n)
    rows = []
    for i, rank in enumerate(order):
        offensive = rank < high
        score = (0.5 + 0.5 * (rank + 0.5) / high if offensive
                 else 0.5 * (rank - high + 0.5) / (n - high))
        rows.append([f"t{i:06d}", src.raw_tweet(offensive), f"{score:.4f}"])
    return rows


def labeled_clean(src: TweetSource, vocab: frozenset, lengths: list[int],
                  noise: float = 0.0) -> list[tuple[str, str, str]]:
    """(id, text, label) triples, balanced; `noise` flips that share of
    labels so the classification loss cannot fall to zero."""
    out = []
    for i, pieces in enumerate(lengths):
        offensive = i % 2 == 1
        text = src.clean_text(pieces, vocab, offensive)
        label = LABELS[int(offensive) ^ int(src.rng.random() < noise)]
        out.append((f"l{i:06d}", text, label))
    return out


def lexicon_rows(src: TweetSource, n: int) -> list[list]:
    """Unigram counts for hashtag segmentation, Zipfian like the words."""
    return [[w, str(max(1, int(1e6 / (r + 1) ** 1.05)))]
            for r, w in enumerate(src.words[:n])]
