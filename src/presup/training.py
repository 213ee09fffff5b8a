"""Training loop (Adam + clipping + dropout + dev-accuracy early stopping)
and evaluation reporting."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .errors import ShapeError, TrainingError, UsageError
from .extraction import sample_target
from .metrics import ConfusionMatrix, confusion
from .optim import AdamState, adam_step, clip_gradients
from .rng import Rng
from .tensor import Tape, Tensor, backward

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-12


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_accuracy: float

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "train_loss": self.train_loss,
                "dev_accuracy": self.dev_accuracy}


@dataclass
class EvalReport:
    accuracy: float
    confusion: ConfusionMatrix
    n_positive: int
    n_negative: int
    model_id: str = ""
    dataset_id: str = ""

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "dataset": self.dataset_id,
            "accuracy": self.accuracy,
            "confusion": self.confusion.to_dict(),
            "n_positive": self.n_positive,
            "n_negative": self.n_negative,
        }


def batch_loss(probs, labels) -> Tensor:
    """Mean negative log-likelihood of the true labels over the batch, as
    one tape node.

    probs is a (2, B) probability tensor, one column per sample.
    Probabilities below 1e-12 are clamped before the log (and logged as a
    warning); a clamped entry gets zero gradient.
    """
    if probs.data.ndim != 2 or probs.shape[0] != 2:
        raise ShapeError(f"batch_loss: probabilities of shape {probs.shape}, not (2, B)")
    if probs.shape[1] != len(labels):
        raise UsageError(f"batch size mismatch: {probs.shape[1]} vs {len(labels)}")
    if not labels:
        raise UsageError("batch_loss on an empty batch")
    for y in labels:
        if y not in (0, 1):
            raise UsageError(f"label must be 0 or 1, got {y!r}")
    scale = 1.0 / len(labels)
    where = (np.array(labels), np.arange(len(labels)))

    def fwd():
        nll = -np.log(np.maximum(probs.data[where], LOG_FLOOR))
        total = nll[0]
        for value in nll[1:]:  # left to right, not pairwise
            total += value
        return np.array([[total * scale]])

    clamped = int(np.sum(probs.data[where] < LOG_FLOOR))
    if clamped:
        logger.warning("batch_loss: %d probabilities clamped to %g", clamped, LOG_FLOOR)

    def vjp(g, _):
        p = probs.data[where]
        d_probs = np.zeros_like(probs.data)
        d_probs[where] = -(g[0, 0] * scale) / np.maximum(p, LOG_FLOOR) * (p > LOG_FLOOR)
        return (d_probs,)

    return T._record(Tensor(fwd()), (probs,), fwd, vjp)


def evaluate(model, data, model_id: str = "", dataset_id: str = "") -> EvalReport:
    """Argmax predictions, accuracy and confusion counts; deterministic."""
    data = list(data)
    if not data:
        raise UsageError("evaluate: empty dataset")
    preds = model.predict_labels(data)
    labels = [sample_target(s) for s in data]
    cm = confusion(preds, labels)
    accuracy = cm.accuracy
    # independent cross-check of the two accuracy computations
    direct = sum(p == y for p, y in zip(preds, labels)) / len(labels)
    if accuracy != direct:
        raise ArithmeticError("confusion-matrix accuracy disagrees with direct count")
    return EvalReport(accuracy=accuracy, confusion=cm,
                      n_positive=sum(labels), n_negative=len(labels) - sum(labels),
                      model_id=model_id, dataset_id=dataset_id)


@dataclass
class TrainResult:
    best_epoch: int
    best_accuracy: float
    history: list = field(default_factory=list)


def train(model, train_set, dev_set, cfg: TrainConfig, rng: Rng,
          dev_eval=None) -> TrainResult:
    """Mini-batch Adam with elementwise gradient clipping and early stopping.

    Per epoch: seeded shuffle, batches of cfg.batch_size (last short batch
    included), one forward of the whole batch with the dropout Rng, mean
    cross-entropy, backward towards the trainable parameters only, clip,
    Adam step, then dev accuracy. Stops once dev accuracy has not strictly
    improved for cfg.patience epochs; the returned model carries the
    parameters of the best (earliest, on ties) dev epoch.

    dev_eval(model, dev_set, epoch) -> accuracy may be injected for testing
    the stopping rule.
    """
    train_set = list(train_set)
    dev_set = list(dev_set)
    if not train_set or not dev_set:
        raise UsageError("train: empty train or dev split")
    state = AdamState(model.params, lr=cfg.lr)
    trainable = [t for _, t in model.params.items()]
    shuffle_rng = rng.child("shuffle")
    dropout_rng = rng.child("dropout")

    best_acc = -math.inf
    best_values = model.params.copy_values()
    best_epoch = 0
    stale = 0
    history: list[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            with Tape() as tape:
                y_hat, _ = model.forward(batch, rng=dropout_rng, dropout_p=cfg.dropout)
                loss = batch_loss(y_hat, [sample_target(s) for s in batch])
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"batch starting at {start}; labels="
                    f"{[s.label for s in batch]}")
            loss_sum += loss_value * len(batch)
            grads = backward(tape, loss, wrt=trainable).for_store(model.params)
            grads = clip_gradients(grads, cfg.clip_lo, cfg.clip_hi)
            adam_step(model.params, grads, state)
        train_loss = loss_sum / len(train_set)

        if dev_eval is not None:
            dev_acc = dev_eval(model, dev_set, epoch)
        else:
            dev_acc = evaluate(model, dev_set).accuracy
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   dev_accuracy=dev_acc))
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_values = model.params.copy_values()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.params.load_values(best_values)
    return TrainResult(best_epoch=best_epoch, best_accuracy=best_acc, history=history)
