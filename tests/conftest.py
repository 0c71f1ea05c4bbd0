import os

import pytest

import tensor_ops  # noqa: F401 (gives Tensor its operator sugar)

from offlm import autograd as ag
from offlm.tokenizer import Vocabulary

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(autouse=True)
def graph_recording_is_left_on():
    """Fail a test that leaves graph recording off (a `no_grad` block
    entered and never left), and turn it back on for the next test."""
    yield
    if not ag._recording:
        ag._recording = True
        pytest.fail("graph recording left off: a no_grad block was not exited")


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
