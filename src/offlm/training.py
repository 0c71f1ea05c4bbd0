"""Masked-token collation, the pretraining and fine-tuning loops, the
warmup/decay learning-rate schedule, and patience-based early stopping.

Every run draws all randomness (shuffling, masking, dropout) from
generators spawned off one seed, so identical configs produce identical
logs and checkpoints.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import autograd as ag
from .corpus import LabeledInstance, distinct_labels, make_batches, split
from .errors import ConfigError, DataError, NumericError
from .model import Model, classify, encode, mlm_logits, save_checkpoint
from .optim import AdamState, adam_step, clip_global_norm
from .tokenizer import Vocabulary, tokenize

Example = tuple[list[int], int]  # a text's unpadded token ids and its class id
# BERT's replacement of a selected token: [MASK], a random token, or kept
REPLACE_MASK_FRAC = 0.8
REPLACE_RANDOM_FRAC = 0.1
MAX_GRAD_NORM = 1.0  # BERT's bound on the global gradient norm


@dataclass
class MaskingOutcome:
    input_ids: np.ndarray       # corrupted ids fed to the model
    target_ids: np.ndarray      # the uncorrupted originals
    mask_indicator: np.ndarray  # 1 exactly where the loss applies


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 25
    batch_size: int = 32
    max_len: int = 512
    lr: float = 5e-5
    mask_prob: float = 0.15
    checkpoint_every: int = 0  # steps between mid-run checkpoints; 0 = end only
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ConfigError(f"mask_prob {self.mask_prob} outside [0, 1]")
        if self.epochs < 0 or self.batch_size < 1 or self.max_len < 3:
            raise ConfigError("epochs >= 0, batch_size >= 1, max_len >= 3 required")
        if self.checkpoint_every < 0 or self.seed < 0:
            raise ConfigError("checkpoint_every and seed must be >= 0")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 3
    batch_size: int = 8
    lr: float = 1e-4
    max_len: int = 140
    eval_patience: int = 10
    eval_fraction: float = 0.2
    evals_per_epoch: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.eval_patience < 1:
            raise ConfigError("eval_patience must be >= 1")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError("eval_fraction must be in (0, 1)")
        if self.epochs < 0 or self.batch_size < 1 or self.max_len < 3:
            raise ConfigError("epochs >= 0, batch_size >= 1, max_len >= 3 required")
        if self.evals_per_epoch < 1:
            raise ConfigError("evals_per_epoch must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")


@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    grad_norm: float
    tokens: int     # real (attention 1) tokens in the step's batch
    positions: int  # B x n positions of the collated batch, after the cut to n


@dataclass
class EvalRecord:
    step: int
    index: int
    loss: float
    improved: bool


@dataclass
class TrainLog:
    steps: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    stop_reason: str = ""

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.steps:
                f.write(json.dumps({"kind": "step", **asdict(rec)}) + "\n")
            for rec in self.evals:
                f.write(json.dumps({"kind": "eval", **asdict(rec)}) + "\n")
            f.write(json.dumps({"kind": "stop", "reason": self.stop_reason}) + "\n")


def mask_tokens(ids: np.ndarray, vocab: Vocabulary, cfg: PretrainConfig,
                rng: np.random.Generator) -> MaskingOutcome:
    """Corrupt token ids for masked-token prediction: one text's ids, or a
    collated [B, n] batch masked with one draw.

    Each non-special position is selected independently with
    probability mask_prob; a selected position becomes [MASK], a random
    non-special token, or stays put, in BERT's 80/10/10 proportions.
    Targets are always the original ids. Special tokens, [PAD] among
    them, are never selected.
    """
    ids = np.asarray(ids, dtype=np.int64)
    selected = ~vocab.is_special[ids] & (rng.random(ids.shape) < cfg.mask_prob)
    input_ids = ids.copy()
    positions = np.flatnonzero(selected)
    if positions.size:
        u = rng.random(positions.size)
        to_mask = u < REPLACE_MASK_FRAC
        to_random = ~to_mask & (u < REPLACE_MASK_FRAC + REPLACE_RANDOM_FRAC)
        input_ids.flat[positions[to_mask]] = vocab.mask_id
        rand_positions = positions[to_random]
        if rand_positions.size:
            pool = vocab.non_special_id_array
            if pool.size == 0:
                raise DataError("vocabulary has no non-special tokens to sample")
            input_ids.flat[rand_positions] = pool[rng.integers(
                pool.size, size=rand_positions.size)]
    return MaskingOutcome(input_ids=input_ids, target_ids=ids,
                          mask_indicator=selected.astype(np.int64))


def lr_at(step: int, total_steps: int, peak_lr: float) -> float:
    """Linear 0 -> peak over BERT's warmup, the first ceil(total / 10)
    steps, then linear peak -> 0 over the remainder."""
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = -(-total_steps // 10)
    if step <= warmup_steps:
        return peak_lr * (step / warmup_steps)
    return peak_lr * ((total_steps - step) / (total_steps - warmup_steps))


class EarlyStopper:
    """Stop after `patience` consecutive evaluations without improvement.

    Improvement means strictly lower loss than the best seen so far.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_loss = math.inf
        self.best_index = None
        self.streak = 0
        self.num_evals = 0

    def update(self, loss: float) -> bool:
        """Record one evaluation; True means training should stop now."""
        self.num_evals += 1
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_index = self.num_evals
            self.streak = 0
            return False
        self.streak += 1
        return self.streak >= self.patience

    @property
    def improved(self) -> bool:
        return self.streak == 0


def _spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _epochs(items: Sequence, cfg, shuffle_rng: np.random.Generator):
    """(epoch, batch) over `cfg.epochs` shuffled passes through `items` in
    batches of `cfg.batch_size`; each epoch's shuffle seed is drawn from
    `shuffle_rng` when that epoch begins."""
    for epoch in range(cfg.epochs):
        seed = int(shuffle_rng.integers(2 ** 63))
        for batch in make_batches(items, cfg.batch_size, shuffle=True, seed=seed):
            yield epoch, batch


def _stack_batch(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Collate into int64 [B, n] ids and attention mask. n is the longest
    sequence; shorter rows are padded with 0, the [PAD] id. Nothing else
    pads a batch."""
    lengths = np.array([len(s) for s in seqs])
    real = np.arange(lengths.max()) < lengths[:, None]
    ids = np.zeros(real.shape, dtype=np.int64)
    ids[real] = np.concatenate(seqs)
    return ids, real.astype(np.int64)


def mlm_batch_loss(model: Model, input_ids: np.ndarray, attn: np.ndarray,
                   targets: np.ndarray, mask: np.ndarray, train_mode: bool,
                   rng: Optional[np.random.Generator]) -> ag.Tensor:
    """Mean masked cross-entropy over one collated [B, n] batch. Only the
    masked rows leave the encoder's last layer and reach the vocabulary
    projection."""
    rows = np.flatnonzero(mask)
    picked = encode(input_ids, attn, model, train_mode=train_mode, rng=rng, rows=rows)
    return ag.masked_cross_entropy(mlm_logits(picked, model), targets.reshape(-1)[rows],
                                   np.ones_like(rows), reduction="mean")


def _train_step(model: Model, state: AdamState, lr: float,
                build_loss: Callable[[], ag.Tensor]) -> tuple[float, float]:
    """Backpropagate the loss that `build_loss` records into zeroed
    gradients, clip them and take one Adam step at `lr`. Returns the loss
    and the pre-clip norm as floats, so the graph is freed on return."""
    ag.zero_grads(model.params.values())
    loss = build_loss()
    ag.backward(loss)
    norm = clip_global_norm(model.params.values(), MAX_GRAD_NORM)
    adam_step(model.named_params(), state, lr)
    return float(loss.item()), norm


def pretrain(texts: Sequence[str], vocab: Vocabulary, model: Model,
             cfg: PretrainConfig,
             checkpoint_dir: Optional[str] = None) -> TrainLog:
    """Masked-token training at constant learning rate.

    Mutates the model in place; returns the log. With a checkpoint
    directory, writes `final/` at the end and `step-N/` every
    checkpoint_every steps.
    """
    if not texts:
        raise DataError("empty pretraining corpus")
    shuffle_rng, mask_rng, dropout_rng = _spawn_rngs(cfg.seed, 3)
    seqs = [tokenize(t, vocab, cfg.max_len) for t in texts]
    state = AdamState()
    log = TrainLog()
    for step, (epoch, batch) in enumerate(_epochs(seqs, cfg, shuffle_rng), 1):
        ids, attn = _stack_batch(batch)
        masked = mask_tokens(ids, vocab, cfg, mask_rng)
        # a batch with no masked token skips the update but is still logged
        record = StepRecord(step, 0.0, cfg.lr, 0.0, int(attn.sum()), attn.size)
        if masked.mask_indicator.any():
            try:
                record.loss, record.grad_norm = _train_step(
                    model, state, cfg.lr, lambda: mlm_batch_loss(
                        model, masked.input_ids, attn, ids, masked.mask_indicator,
                        train_mode=True, rng=dropout_rng))
            except NumericError as e:
                raise NumericError(
                    f"pretraining aborted at epoch {epoch} step {step} "
                    f"(lr {cfg.lr}): {e}") from e
        log.steps.append(record)
        if (checkpoint_dir and cfg.checkpoint_every > 0
                and step % cfg.checkpoint_every == 0):
            save_checkpoint(model, os.path.join(checkpoint_dir, f"step-{step}"))
    log.stop_reason = "epochs_exhausted"
    if checkpoint_dir:
        save_checkpoint(model, os.path.join(checkpoint_dir, "final"))
    return log


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.params.items()}


def _restore(model: Model, snapshot: dict[str, np.ndarray]) -> None:
    for name, t in model.params.items():
        t.data = snapshot[name].copy()


def tokenize_labeled(data: Sequence[LabeledInstance], vocab: Vocabulary,
                     label_to_id: dict[str, int], max_len: int) -> list[Example]:
    """Tokenize each instance once, pairing it with its class id."""
    return [(tokenize(x.text, vocab, max_len), label_to_id[x.label]) for x in data]


def _class_logits(model: Model, seqs: Sequence[Sequence[int]], train_mode: bool = False,
                  rng: Optional[np.random.Generator] = None) -> ag.Tensor:
    """Collate `seqs` and classify each from its [CLS] state, the only row the
    encoder's last layer runs on."""
    ids, attn = _stack_batch(seqs)
    first = encode(ids, attn, model, train_mode=train_mode, rng=rng,
                   rows=np.arange(len(seqs)) * ids.shape[1])
    return classify(first, model)


def _class_loss(model: Model, batch: Sequence[Example], reduction: str,
                train_mode: bool = False, rng: Optional[np.random.Generator] = None,
                ) -> ag.Tensor:
    """Cross-entropy over a batch."""
    seqs, labels = zip(*batch)
    logits = _class_logits(model, seqs, train_mode, rng)
    targets = np.array(labels, dtype=np.int64)
    return ag.masked_cross_entropy(logits, targets, np.ones_like(targets),
                                   reduction=reduction)


def evaluation_loss(model: Model, examples: Sequence[Example], batch_size: int) -> float:
    """Mean classification cross-entropy over `tokenize_labeled` examples, no dropout."""
    total = 0.0
    with ag.no_grad():
        for batch in make_batches(examples, batch_size, shuffle=False):
            total += float(_class_loss(model, batch, "sum").item())
    return total / len(examples)


def predict_class_ids(texts: Sequence[str], vocab: Vocabulary, model: Model,
                      max_len: int, batch_size: int = 32) -> list[int]:
    """Argmax class index per text, recording no graph."""
    out: list[int] = []
    with ag.no_grad():
        for chunk in make_batches(texts, batch_size, shuffle=False):
            logits = _class_logits(model, [tokenize(t, vocab, max_len) for t in chunk])
            out.extend(int(i) for i in np.argmax(logits.data, axis=-1))
    return out


def finetune(train_data: Sequence[LabeledInstance], vocab: Vocabulary,
             model: Model, cfg: FinetuneConfig, labels: Sequence[str],
             checkpoint_dir: Optional[str] = None) -> TrainLog:
    """Classification fine-tuning with warmup/decay schedule, clipping,
    one optimizer step per batch, periodic evaluation on a carved-out
    slice, and early stopping with best-parameter restoration.

    Mutates the model in place; on return the parameters are those of
    the best evaluation. With a checkpoint directory, `best/` holds the
    checkpoint written when that evaluation happened.
    """
    label_list = distinct_labels(labels)
    if len(label_list) != model.num_classes:
        raise ConfigError(
            f"model has {model.num_classes} classes, labels give "
            f"{len(label_list)}")
    label_to_id = {name: i for i, name in enumerate(label_list)}
    observed = {inst.label for inst in train_data}
    unknown = observed - set(label_list)
    if unknown:
        raise DataError(f"labels {sorted(unknown)} not in declared set")
    if len(observed) < 2:
        raise DataError("training data contains a single class; need >= 2")

    train_set, eval_set = split(
        tokenize_labeled(train_data, vocab, label_to_id, cfg.max_len),
        cfg.eval_fraction, cfg.seed)
    if not train_set or not eval_set:
        raise DataError(
            f"{len(train_data)} examples leave an empty partition at "
            f"eval_fraction {cfg.eval_fraction}")

    shuffle_rng, dropout_rng = _spawn_rngs(cfg.seed, 2)
    steps_per_epoch = math.ceil(len(train_set) / cfg.batch_size)
    total_steps = max(1, steps_per_epoch * cfg.epochs)
    eval_every = max(1, steps_per_epoch // cfg.evals_per_epoch)

    state = AdamState()
    stopper = EarlyStopper(cfg.eval_patience)
    best = _snapshot(model)
    log = TrainLog()
    step = 0
    stopped = False

    def run_eval() -> bool:
        loss = evaluation_loss(model, eval_set, cfg.batch_size)
        should_stop = stopper.update(loss)
        if stopper.improved:
            nonlocal best
            best = _snapshot(model)
            if checkpoint_dir:
                save_checkpoint(model, os.path.join(checkpoint_dir, "best"))
        log.evals.append(EvalRecord(step, stopper.num_evals, loss,
                                    stopper.improved))
        return should_stop

    for epoch, batch in _epochs(train_set, cfg, shuffle_rng):
        lr = lr_at(step, total_steps, cfg.lr)
        try:
            loss, norm = _train_step(model, state, lr, lambda: _class_loss(
                model, batch, "mean", True, dropout_rng))
        except NumericError as e:
            raise NumericError(
                f"fine-tuning aborted at epoch {epoch} optimizer step "
                f"{step}: {e}") from e
        step += 1
        lengths = [len(seq) for seq, _ in batch]
        log.steps.append(StepRecord(step, loss, lr, norm, sum(lengths),
                                    len(lengths) * max(lengths)))
        if step % eval_every == 0 and run_eval():
            stopped = True
            break

    if not stopped and (step == 0 or step % eval_every != 0):
        stopped = run_eval()
    log.stop_reason = "early_stopping" if stopped else "epochs_exhausted"
    _restore(model, best)
    return log
