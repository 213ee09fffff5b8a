import math

import numpy as np
import pytest

from oracles import fd_gradient, max_rel_err
from presup.config import ModelConfig, TrainConfig
from presup.errors import ShapeError, TrainingError, UsageError
from presup.extraction import MARKER, Sample
from presup.models import WPModel
from presup.optim import ParamStore
from presup.rng import Rng
from presup.tensor import Tape, Tensor, backward
from presup.training import batch_loss, evaluate, sample_target, train
from presup.vocab import build_vocab


def _samples(n_pos=4, n_neg=4):
    pos = [Sample("again", ["cue", "cue", MARKER, "verb"],
                  ["N", "N", MARKER, "V"], "0") for _ in range(n_pos)]
    neg = [Sample("none", ["other", "thing", MARKER, "verb"],
                  ["N", "N", MARKER, "V"], "0") for _ in range(n_neg)]
    return pos + neg


def _tiny_model(samples, seed=8):
    vocab = build_vocab(samples)
    rng = Rng(seed)
    cfg = ModelConfig(variant="wp", hidden_size=4, embed_dim=4, pos_mode="off",
                      dense_units=4)
    emb = rng.child("emb").uniform(-0.5, 0.5, (len(vocab.tokens), 4))
    return WPModel(cfg, vocab, emb, rng=rng.child("init"))


class _StubModel:
    """Fixed-output classifier for exercising the loop mechanics."""

    def __init__(self, probs=(0.3, 0.7)):
        self.params = ParamStore()
        self.params.add("w", Tensor(np.zeros((1, 1))))
        self.probs = np.array(probs, dtype=float).reshape(2, 1)
        self.samples_seen = 0

    def forward(self, samples, rng=None, dropout_p=0.5):
        self.samples_seen += len(samples)
        return Tensor(np.repeat(self.probs, len(samples), axis=1)), None

    def predict_labels(self, samples):
        return [int(self.probs[1, 0] >= 0.5)] * len(samples)


def test_sample_target():
    assert sample_target(Sample("none", [], [], "")) == 0
    for adverb in ("again", "too", "yet"):
        assert sample_target(Sample(adverb, [], [], "")) == 1


def test_batch_loss_matches_hand_value():
    probs = Tensor([[0.2, 0.6], [0.8, 0.4]])
    loss = batch_loss(probs, [1, 0])
    expected = -(math.log(0.8) + math.log(0.6)) / 2
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_batch_loss_clamps_zero_probabilities(caplog):
    with caplog.at_level("WARNING"):
        loss = batch_loss(Tensor([[1.0], [0.0]]), [1])
    assert math.isfinite(loss.item())
    assert loss.item() == pytest.approx(-math.log(1e-12))
    assert any("clamped" in r.message for r in caplog.records)


def test_batch_loss_gradients_with_a_clamped_probability():
    probs = Tensor([[0.3, 0.9, 1.0 - 1e-13, 0.45], [0.7, 0.1, 1e-13, 0.55]])
    labels = [1, 0, 1, 1]

    def loss():
        with Tape() as tape:
            out = batch_loss(probs, labels)
        return tape, out

    tape, out = loss()
    assert len(tape) == 1
    assert tape.replay()
    grad = backward(tape, out, wrt=[probs]).wrt(probs)
    np.testing.assert_array_equal(grad[:, 2], np.zeros(2))
    for k in range(4):
        # a step small enough to stay below the floor on the clamped entry
        eps = 1e-14 if k == 2 else 1e-5
        fd = fd_gradient(lambda: loss()[1].item(), probs.data, eps=eps,
                         coords=[k, 4 + k])
        assert max_rel_err(fd, grad) < 1e-6


def test_batch_loss_errors():
    with pytest.raises(UsageError):
        batch_loss(Tensor(np.zeros((2, 0))), [])
    with pytest.raises(UsageError):
        batch_loss(Tensor([[0.5], [0.5]]), [0, 1])
    with pytest.raises(UsageError):
        batch_loss(Tensor([[0.5], [0.5]]), [2])
    with pytest.raises(ShapeError):
        batch_loss(Tensor([[0.5, 0.5]]), [0, 1])


def test_evaluate_report():
    samples = _samples(3, 5)
    report = evaluate(_StubModel(probs=(0.3, 0.7)), samples,
                      model_id="stub", dataset_id="toy")
    # the stub always predicts 1: positives right, negatives wrong
    assert report.accuracy == 3 / 8
    assert (report.confusion.tp, report.confusion.fp) == (3, 5)
    assert (report.n_positive, report.n_negative) == (3, 5)
    d = report.to_dict()
    assert d["model"] == "stub" and d["dataset"] == "toy"
    with pytest.raises(UsageError):
        evaluate(_StubModel(), [])


def test_train_requires_data():
    samples = _samples()
    model = _tiny_model(samples)
    with pytest.raises(UsageError):
        train(model, [], samples, TrainConfig(), Rng(0))
    with pytest.raises(UsageError):
        train(model, samples, [], TrainConfig(), Rng(0))


def test_early_stopping_halts_patience_after_best():
    samples = _samples()
    model = _tiny_model(samples)
    script = [0.5, 0.9, 0.6, 0.6, 0.6, 0.6, 0.6]

    def scripted(m, dev, epoch):
        return script[epoch - 1] if epoch <= len(script) else 0.6

    cfg = TrainConfig(patience=3, max_epochs=50)
    result = train(model, samples, samples, cfg, Rng(1), dev_eval=scripted)
    assert result.best_epoch == 2
    assert result.best_accuracy == 0.9
    assert len(result.history) == 5  # best at 2, then exactly 3 stale epochs


def test_early_stopping_requires_strict_improvement():
    samples = _samples()
    model = _tiny_model(samples)

    def plateau(m, dev, epoch):
        return 0.7  # never improves after epoch 1

    cfg = TrainConfig(patience=4, max_epochs=50)
    result = train(model, samples, samples, cfg, Rng(1), dev_eval=plateau)
    assert result.best_epoch == 1
    assert len(result.history) == 5


def test_best_epoch_parameters_are_restored():
    samples = _samples()
    model = _tiny_model(samples)
    snapshots = {}

    def recording(m, dev, epoch):
        snapshots[epoch] = m.params.copy_values()
        return {1: 0.5, 2: 0.9}.get(epoch, 0.4)

    cfg = TrainConfig(patience=2, max_epochs=10)
    result = train(model, samples, samples, cfg, Rng(1), dev_eval=recording)
    assert result.best_epoch == 2
    for name, arr in snapshots[2].items():
        np.testing.assert_array_equal(model.params[name].data, arr)
    # parameters moved between epochs, so the restore was meaningful
    assert any(not np.array_equal(snapshots[2][k], snapshots[3][k])
               for k in snapshots[2])


def test_every_sample_trains_each_epoch_including_short_batch():
    samples = _samples(5, 4)  # 9 samples, batch 4 -> batches of 4, 4, 1
    stub = _StubModel()
    cfg = TrainConfig(batch_size=4, patience=1, max_epochs=3)
    train(stub, samples, samples, cfg, Rng(0),
          dev_eval=lambda m, d, e: 0.5)
    # patience 1 with a flat score stops after epoch 2
    assert stub.samples_seen == 2 * len(samples)


def test_non_finite_loss_raises_training_error():
    samples = _samples()
    stub = _StubModel(probs=(float("nan"), float("nan")))
    with pytest.raises(TrainingError, match="non-finite"):
        train(stub, samples, samples, TrainConfig(), Rng(0),
              dev_eval=lambda m, d, e: 0.5)


def test_training_reduces_loss_on_separable_data():
    samples = _samples(8, 8)
    model = _tiny_model(samples)
    cfg = TrainConfig(batch_size=4, dropout=0.0, patience=30, max_epochs=150,
                      lr=0.01)
    result = train(model, samples, samples, cfg, Rng(2))
    assert result.history[-1].train_loss < result.history[0].train_loss
    assert result.best_accuracy == 1.0


def test_training_is_seed_reproducible():
    samples = _samples(6, 6)

    def run():
        model = _tiny_model(samples, seed=8)
        cfg = TrainConfig(batch_size=4, patience=2, max_epochs=4)
        result = train(model, samples, samples, cfg, Rng(3))
        return [(r.epoch, r.train_loss, r.dev_accuracy) for r in result.history]

    assert run() == run()
