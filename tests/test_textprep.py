import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from offlm.errors import DataError
from offlm.textprep import (
    Lexicon,
    demojize,
    keep_instance,
    load_emoji_map,
    normalize,
    prepare,
    segment_hashtag,
)

PACKAGED_EMOJI_MAP = os.path.join(
    os.path.dirname(__file__), "..", "src", "offlm", "data", "emoji_map.tsv")


def test_normalize_replaces_urls_and_mentions():
    out = normalize("see https://a.io/x?y=1 and ask @some_user1 now")
    assert out == "see URL and ask USER now"


def test_normalize_handles_www_and_collapses_whitespace():
    out = normalize("go  to   www.example.com\t now ")
    assert out == "go to URL now"


@pytest.mark.parametrize("loader", [Lexicon.load, load_emoji_map])
def test_side_files_that_are_not_utf8_name_file_and_line(tmp_path, loader):
    path = tmp_path / "side.tsv"
    path.write_bytes(b"ok\t1\n\ncaf\xe9\t2\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: not UTF-8")):
        loader(path)


def test_load_emoji_map_parses_packaged_table():
    mapping = load_emoji_map(PACKAGED_EMOJI_MAP)
    assert mapping["\U0001f525"] == ":fire:"
    assert all(v.startswith(":") and v.endswith(":") for v in mapping.values())


def test_demojize_without_match_returns_input_unchanged():
    mapping = {"\U0001f600": ":grinning_face:"}
    text = "no emoji  here"
    assert demojize(text, mapping) is text


def test_demojize_substitutes_with_spacing():
    mapping = {"\U0001f600": ":grinning_face:"}
    assert demojize("good\U0001f600", mapping) == "good :grinning_face:"
    assert demojize("a \U0001f600 b", mapping) == "a :grinning_face: b"


def test_demojize_longest_sequence_wins():
    # a multi-codepoint emoji must not be split into its prefix
    mapping = {"❤": ":heart:", "❤️": ":red_heart:"}
    assert demojize("x ❤️ y", mapping) == "x :red_heart: y"


def test_segment_hashtag_splits_known_words():
    lex = Lexicon({"hello": 50, "world": 40})
    assert segment_hashtag("#helloworld", lex) == ["hello", "world"]


def test_segment_hashtag_lowercases():
    lex = Lexicon({"hello": 5, "world": 5})
    assert segment_hashtag("#HelloWorld", lex) == ["hello", "world"]


def test_segment_hashtag_unknown_tag_stays_whole():
    lex = Lexicon({"hello": 5})
    assert segment_hashtag("#qzxv", lex) == ["qzxv"]


def test_segment_hashtag_prefers_fewer_words_on_ties():
    # total 50 makes 2/50 == (10/50)*(10/50), so "ab" ties "a"+"b"
    lex = Lexicon({"a": 10, "b": 10, "ab": 2, "zz": 28})
    assert math.isclose(lex.score("ab"), lex.score("a") + lex.score("b"),
                        abs_tol=1e-12)
    assert segment_hashtag("#ab", lex) == ["ab"]


def test_segment_hashtag_empty():
    assert segment_hashtag("#", Lexicon({"a": 1})) == []


def brute_force_segment(body, lex):
    """Enumerate every split of body, score like the lexicon does."""
    best = None
    n = len(body)
    for bits in range(1 << max(0, n - 1)):
        pieces = []
        start = 0
        for i in range(n - 1):
            if bits & (1 << i):
                pieces.append(body[start: i + 1])
                start = i + 1
        pieces.append(body[start:])
        score = sum(lex.score(p) for p in pieces)
        key = (score, -len(pieces))
        if best is None or key > best[0]:
            best = (key, pieces)
    return best[1]


@settings(max_examples=60, deadline=None)
@given(words=st.lists(
    st.sampled_from(["he", "hell", "hello", "lo", "low", "o", "or", "world"]),
    min_size=1, max_size=3))
def test_segment_matches_exhaustive_search(words):
    lex = Lexicon({"he": 9, "hell": 4, "hello": 20, "lo": 3, "low": 6,
                   "o": 2, "or": 5, "world": 20})
    body = "".join(words)
    if len(body) > 12:
        body = body[:12]
    got = segment_hashtag("#" + body, lex)
    expected = brute_force_segment(body, lex)
    got_score = sum(lex.score(p) for p in got)
    exp_score = sum(lex.score(p) for p in expected)
    assert got_score == pytest.approx(exp_score, abs=1e-9)
    assert len(got) <= len(expected)
    assert "".join(got) == body


@settings(max_examples=60, deadline=None)
@given(body=st.text(alphabet="abcdefgh", min_size=1, max_size=12))
def test_segment_concatenation_invariant(body):
    lex = Lexicon({"ab": 10, "cd": 8, "abc": 5, "h": 2})
    pieces = segment_hashtag("#" + body, lex)
    assert "".join(pieces) == body.lower()
    assert all(pieces)


def test_keep_instance_boundaries():
    assert keep_instance("exactly eighteen c")   # 18 chars, 3 words
    assert not keep_instance("seventeen chars x"[:17])
    assert not keep_instance("single-word-but-long-enough")
    assert keep_instance("two words but padded out to length")


def test_prepare_runs_full_pipeline(fixtures_dir):
    lex = Lexicon.load(os.path.join(fixtures_dir, "lexicon.tsv"))
    mapping = load_emoji_map(PACKAGED_EMOJI_MAP)
    out = prepare("@u this is fire \U0001f525 #helloworld https://x.y",
                  lexicon=lex, mapping=mapping)
    assert out == "USER this is fire :fire: hello world URL"


def test_prepare_without_optional_stages_keeps_hashtags():
    out = prepare("keep #HashTag as is")
    assert "#HashTag" in out


def test_prepare_is_idempotent(fixtures_dir):
    lex = Lexicon.load(os.path.join(fixtures_dir, "lexicon.tsv"))
    mapping = load_emoji_map(PACKAGED_EMOJI_MAP)
    texts = [
        "@u this is fire \U0001f525 #helloworld https://x.y",
        "plain text stays plain",
        "USER already prepared URL",
    ]
    for t in texts:
        once = prepare(t, lexicon=lex, mapping=mapping)
        twice = prepare(once, lexicon=lex, mapping=mapping)
        assert once == twice


@settings(max_examples=50, deadline=None)
@given(text=st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")),
    max_size=60))
def test_prepare_idempotent_on_plain_text(text):
    once = prepare(text)
    assert prepare(once) == once


def test_lexicon_rejects_bad_counts():
    with pytest.raises(DataError):
        Lexicon({"word": 0})


def test_lexicon_load_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "lex.tsv"
    bad.write_text("word\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(DataError):
        Lexicon.load(bad)


def test_lexicon_unknown_word_penalty_grows_with_length():
    lex = Lexicon({"a": 1})
    assert lex.score("zz") > lex.score("zzzz")


def test_golden_preprocessed_fixture_matches_unit_path(fixtures_dir):
    """The shipped golden file is exactly what prepare() produces."""
    import csv

    lex = Lexicon.load(os.path.join(fixtures_dir, "lexicon.tsv"))
    mapping = load_emoji_map(PACKAGED_EMOJI_MAP)

    with open(os.path.join(fixtures_dir, "scored.tsv"), encoding="utf-8",
              newline="") as f:
        rows = list(csv.DictReader(f, delimiter="\t"))
    with open(os.path.join(fixtures_dir, "golden_preprocessed.tsv"),
              encoding="utf-8", newline="") as f:
        golden = list(csv.DictReader(f, delimiter="\t"))

    produced = []
    for row in rows:
        text = prepare(row["text"], lexicon=lex, mapping=mapping)
        if keep_instance(text):
            produced.append((row["id"], text, row["average"]))

    assert [(g["id"], g["text"], g["average"]) for g in golden] == produced
