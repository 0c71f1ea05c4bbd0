"""Social-media text normalization: placeholder substitution, emoji
naming, hashtag segmentation, and the short-instance filter.

All operations are pure; Lexicon and emoji mappings are immutable after
load, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Optional

from .errors import DataError, not_utf8

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@[A-Za-z0-9_]+")
_HASHTAG_RE = re.compile(r"#[A-Za-z0-9]+$")

# score ties closer than this are broken toward fewer words
_TIE_EPS = 1e-9
# exponent base of the unknown-word penalty: log(1 / (total * base^len))
_UNKNOWN_PENALTY_BASE = 10.0
# SOLID's placeholders for links and @-mentions
URL_PLACEHOLDER = "URL"
USER_PLACEHOLDER = "USER"
# the short-instance filter drops a text with fewer words or characters
MIN_WORDS = 2
MIN_CHARS = 18


class Lexicon:
    """word -> count map used to score hashtag segmentations."""

    def __init__(self, counts: dict[str, int]):
        for word, n in counts.items():
            if n <= 0:
                raise DataError(f"non-positive count for {word!r}")
        self.counts = dict(counts)
        self.total = sum(counts.values())

    @classmethod
    def load(cls, path) -> "Lexicon":
        counts: dict[str, int] = {}
        for lineno, parts in _tab_lines(path):
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'word<TAB>count'")
            try:
                counts[parts[0]] = int(parts[1])
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: bad count {parts[1]!r}") from e
        return cls(counts)

    def score(self, word: str) -> float:
        total = max(self.total, 1)
        if word in self.counts:
            return math.log(self.counts[word] / total)
        return -math.log(total) - len(word) * math.log(_UNKNOWN_PENALTY_BASE)


def load_emoji_map(path) -> dict[str, str]:
    """TSV of emoji<TAB>:name:, longest-sequence-first at lookup time."""
    mapping: dict[str, str] = {}
    for lineno, parts in _tab_lines(path):
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: expected 'emoji<TAB>:name:'")
        mapping[parts[0]] = parts[1]
    return mapping


def _tab_lines(path) -> Iterator[tuple[int, list[str]]]:
    """The line number and tab-separated fields of each non-blank line of
    a UTF-8 file; a byte that is not UTF-8 is a DataError naming its line."""
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line.split("\t")
    except UnicodeDecodeError as e:
        raise not_utf8(path) from e


def normalize(text: str) -> str:
    """Replace URLs/mentions with placeholders and collapse whitespace."""
    text = _URL_RE.sub(URL_PLACEHOLDER, text)
    text = _MENTION_RE.sub(USER_PLACEHOLDER, text)
    return " ".join(text.split())


def demojize(text: str, mapping: dict[str, str]) -> str:
    """Replace each mapped emoji sequence by its name token, padded with
    single spaces. Unmapped emoji pass through; text without any mapped
    emoji comes back unchanged."""
    if not mapping:
        return text
    keys = sorted(mapping, key=len, reverse=True)
    pattern = re.compile("|".join(re.escape(k) for k in keys))
    if not pattern.search(text):
        return text
    replaced = pattern.sub(lambda m: f" {mapping[m.group(0)]} ", text)
    return " ".join(replaced.split())


def segment_hashtag(tag: str, lexicon: Lexicon) -> list[str]:
    """Split a '#tag' into words by maximum-score dynamic programming.

    A segmentation scores the sum of per-word log probabilities, with
    out-of-lexicon words penalized exponentially in their length. Ties
    break toward fewer words; worst case the whole tag comes back as one
    piece.
    """
    body = tag[1:] if tag.startswith("#") else tag
    body = body.lower()
    if not body:
        return []
    n = len(body)
    # best[i] = (score, words, split_start) for body[:i]
    best: list[tuple[float, int, int]] = [(0.0, 0, 0)] + [(-math.inf, 0, 0)] * n
    for end in range(1, n + 1):
        for start in range(end):
            prev_score, prev_words, _ = best[start]
            if prev_score == -math.inf:
                continue
            score = prev_score + lexicon.score(body[start:end])
            words = prev_words + 1
            cur = best[end]
            if score > cur[0] + _TIE_EPS or (
                    abs(score - cur[0]) <= _TIE_EPS and words < cur[1]):
                best[end] = (score, words, start)
    pieces: list[str] = []
    end = n
    while end > 0:
        start = best[end][2]
        pieces.append(body[start:end])
        end = start
    pieces.reverse()
    return pieces


def keep_instance(text: str) -> bool:
    """True iff the text has at least MIN_WORDS words and MIN_CHARS
    characters (both boundaries inclusive)."""
    return len(text.split()) >= MIN_WORDS and len(text) >= MIN_CHARS


def prepare(text: str, lexicon: Optional[Lexicon] = None,
            mapping: Optional[dict[str, str]] = None) -> str:
    """Full pipeline: normalize, demojize, segment #hashtags, re-collapse
    whitespace. Deterministic and idempotent."""
    text = normalize(text)
    if mapping:
        text = demojize(text, mapping)
    if lexicon is not None:
        out = []
        for token in text.split():
            if _HASHTAG_RE.fullmatch(token):
                out.extend(segment_hashtag(token, lexicon))
            else:
                out.append(token)
        text = " ".join(out)
    return " ".join(text.split())
