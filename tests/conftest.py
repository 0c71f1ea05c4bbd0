import os

import pytest

import tensor_ops  # noqa: F401 (gives Tensor its operator sugar)

from offlm.tokenizer import Vocabulary

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def small_vocab():
    tokens = [
        "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
        "the", "cat", "sat", "on", "mat", "dog", "ran",
        "un", "##aff", "##able", "##s", "a",
    ]
    return Vocabulary(tokens)
