"""A pretraining statistic that only the tests use."""

import numpy as np

from offlm.autograd import no_grad
from offlm.tokenizer import tokenize
from offlm.training import _stack_batch, mlm_batch_loss


def pll_loss(model, texts, vocab, max_len):
    """Mean masked-token loss with each non-special position of `texts`
    masked alone, in eval mode: minus the pseudo-log-likelihood per token
    (Salazar et al. 2020, "Masked Language Model Scoring"). It draws
    nothing at random, so it depends on the model's weights alone."""
    ids, attn = _stack_batch([tokenize(t, vocab, max_len) for t in texts])
    rows, cols = np.nonzero(~vocab.is_special[ids])
    targets = ids[rows]
    mask = np.zeros_like(targets)
    mask[np.arange(rows.size), cols] = 1
    inputs = np.where(mask == 1, vocab.mask_id, targets)
    with no_grad():
        return float(mlm_batch_loss(model, inputs, attn[rows], targets, mask,
                                    train_mode=False, rng=None).item())
