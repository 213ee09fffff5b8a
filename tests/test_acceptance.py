"""End-to-end acceptance checks.

Each test here pins a user-visible guarantee of the package: gradient
correctness of the recurrent classifiers, the invariants of the
attention-over-attention pooling, exact parameter parity with the mean-pool
baseline, byte-exact extraction output, published-table arithmetic, and
end-to-end learnability on a synthetic recurrence-cue task.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import synth
from oracles import fd_gradient, max_rel_err
from presup.cli import main
from presup.config import ModelConfig, TrainConfig
from presup.extraction import MARKER, Sample
from presup.metrics import ConfusionMatrix, ContingencyTable, mcnemar
from presup.models import LstmBaselineModel, MfcModel, WPModel, attention_weights
from presup.rng import Rng
from presup.tensor import Tape, Tensor, backward
from presup.training import batch_loss, evaluate, sample_target, train
from presup.vocab import PAD, UNK, Vocab

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
CORPUS = Path(__file__).parent / "data" / "fixture_corpus.txt"

WORDS = [f"w{i:02d}" for i in range(17)]
TAGS = ["NN", "VB", "JJ"]


def _tiny_vocab() -> Vocab:
    # 17 content words + pad/unk/marker = 20 tokens
    return Vocab(tokens=[PAD, UNK, MARKER] + WORDS, pos_tags=[UNK] + TAGS)


def _random_embeddings(vocab: Vocab, dim: int, rng: Rng) -> np.ndarray:
    mat = rng.uniform(-0.5, 0.5, (len(vocab.tokens), dim))
    mat[vocab.token_to_id[PAD]] = 0.0
    return mat


def _random_sample(rng: Rng, length: int) -> Sample:
    tokens = [WORDS[rng.integers(0, len(WORDS))] for _ in range(length)]
    tokens[rng.integers(0, length)] = MARKER
    pos = [TAGS[rng.integers(0, len(TAGS))] for _ in range(length)]
    label = "again" if rng.integers(0, 2) == 1 else "none"
    return Sample(label=label, tokens=tokens, pos=pos)


# ---------------------------------------------------------------------------
# 1. reverse-mode gradients match central finite differences


def test_gradients_match_finite_differences_on_random_instances():
    start = time.monotonic()
    vocab = _tiny_vocab()
    cfg_kwargs = dict(hidden_size=4, embed_dim=6, dense_units=4,
                      pos_mode="off")
    coord_rng = np.random.default_rng(314)
    worst = 0.0
    cases = 0
    for case in range(20):
        variant = "wp" if case % 2 == 0 else "lstm"
        rng = Rng(1000 + case)
        emb = _random_embeddings(vocab, 6, rng.child("emb"))
        cls = WPModel if variant == "wp" else LstmBaselineModel
        model = cls(ModelConfig(variant=variant, **cfg_kwargs), vocab, emb,
                    rng.child("init"))
        sample = _random_sample(rng.child("sample"), 5)
        target = sample_target(sample)

        with Tape() as tape:
            y_hat, _ = model.forward([sample])
            loss = batch_loss(y_hat, [target])
        trainable = [t for _, t in model.params.items()]
        grads = backward(tape, loss, wrt=trainable).for_store(model.params)

        def loss_value():
            y, _ = model.forward([sample])
            return batch_loss(y, [target]).item()

        for name, p in model.params.items():
            n_probe = min(p.data.size, 6)
            coords = coord_rng.choice(p.data.size, size=n_probe, replace=False)
            fd = fd_gradient(loss_value, p.data, eps=1e-5, coords=coords)
            worst = max(worst, max_rel_err(fd, grads[name]))
        cases += 1
    elapsed = time.monotonic() - start
    assert cases >= 20
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. attention-over-attention invariants on random hidden states


def test_attention_invariants_hold_over_random_forwards():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        steps = int(rng.integers(1, 61))
        s = int(rng.integers(1, 9))
        H = Tensor(rng.normal(0.0, 1.0, (2 * s, steps)))
        M, M_row, M_col, beta, alpha = attention_weights(H, [steps])
        np.testing.assert_allclose(M_row.data[0].sum(axis=1), 1.0,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(M_col.data[0].sum(axis=0), 1.0,
                                   rtol=0, atol=1e-9)
        a = alpha.data.reshape(-1)
        assert np.all(a >= 0.0)
        assert abs(a.sum() - 1.0) <= 1e-9
        alt = M_row.data[0].T @ beta.data
        assert np.max(np.abs(alpha.data - alt)) <= 1e-10


def test_identical_hidden_states_yield_uniform_attention():
    rng = np.random.default_rng(17)
    for steps in (1, 2, 7, 60):
        col = rng.normal(0.0, 1.0, (8, 1))
        H = Tensor(np.tile(col, (1, steps)))
        *_, alpha = attention_weights(H, [steps])
        np.testing.assert_allclose(alpha.data, 1.0 / steps, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# 3. weighted pooling adds no parameters over the mean-pool baseline


@pytest.mark.parametrize("hidden", [4, 16, 64])
@pytest.mark.parametrize("pos_mode,pos_dim", [("off", 40), ("one_hot", 40),
                                              ("embed", 40)])
def test_parameter_parity_with_baseline(hidden, pos_mode, pos_dim):
    vocab = _tiny_vocab()
    emb = _random_embeddings(vocab, 12, Rng(5))
    wp = WPModel(ModelConfig(variant="wp", hidden_size=hidden, embed_dim=12,
                             pos_mode=pos_mode, pos_dim=pos_dim),
                 vocab, emb, Rng(6))
    base = LstmBaselineModel(ModelConfig(variant="lstm", hidden_size=hidden,
                                         embed_dim=12, pos_mode=pos_mode,
                                         pos_dim=pos_dim),
                             vocab, emb, Rng(7))
    assert wp.params.param_count() == base.params.param_count()


# ---------------------------------------------------------------------------
# 4. uniform attention reproduces the mean-pool baseline bitwise


def test_uniform_attention_equals_mean_pool_baseline():
    vocab = _tiny_vocab()
    rng = Rng(21)
    emb = _random_embeddings(vocab, 6, rng.child("emb"))
    cfg = dict(hidden_size=5, embed_dim=6, dense_units=4, pos_mode="off")
    base = LstmBaselineModel(ModelConfig(variant="lstm", **cfg), vocab, emb,
                             rng.child("init"))
    wp = WPModel(ModelConfig(variant="wp", **cfg), vocab, emb,
                 rng.child("other"))
    wp.params.load_values(base.params.copy_values())
    sample_rng = rng.child("samples")
    for _ in range(100):
        sample = _random_sample(sample_rng, sample_rng.integers(1, 13))
        steps = len(sample.tokens)
        uniform = np.full((steps, 1), 1.0 / steps)
        y_wp, _ = wp.forward([sample], alpha_override=uniform)
        y_base, _ = base.forward([sample])
        assert np.array_equal(y_wp.data, y_base.data)


# ---------------------------------------------------------------------------
# 5. extraction reproduces the golden files byte-exactly and is deterministic


def _run_extract(tmp_path: Path, tag: str) -> Path:
    cfg_path = tmp_path / f"config_{tag}.json"
    cfg_path.write_text(json.dumps({
        "paths": {"corpus": str(CORPUS)},
        "extraction": {"test_sections": ["22"]},
    }))
    out = tmp_path / f"out_{tag}"
    assert main(["extract", "--config", str(cfg_path), "--seed", "42",
                 "--out", str(out)]) == 0
    return out


def test_extraction_matches_golden_files_and_reruns_identically(tmp_path):
    out_a = _run_extract(tmp_path, "a")
    out_b = _run_extract(tmp_path, "b")
    golden_files = sorted(p.relative_to(GOLDEN_DIR)
                          for p in GOLDEN_DIR.rglob("*") if p.is_file())
    assert golden_files, "golden directory is empty"
    for out in (out_a, out_b):
        produced = sorted(p.relative_to(out)
                          for p in out.rglob("*") if p.is_file())
        assert produced == golden_files
        for rel in golden_files:
            assert (out / rel).read_bytes() == (GOLDEN_DIR / rel).read_bytes(), \
                f"{rel} differs from golden output"


# ---------------------------------------------------------------------------
# 6. published-table arithmetic


def test_accuracy_from_published_confusion_counts():
    cm = ConfusionMatrix(tn=54658, fp=11961, fn=11776, tp=55006)
    assert cm.total == 133401
    assert abs(cm.accuracy - 109664 / 133401) < 1e-6
    assert round(cm.accuracy, 4) == 0.8221


def test_mcnemar_on_published_discordant_counts():
    table = ContingencyTable(a=101443, b=8016, c=6819, d=17123)
    result = mcnemar(table)
    assert abs(result.chi2 - 96.43) <= 0.01
    assert result.p < 0.05
    assert result.significant


# ---------------------------------------------------------------------------
# 7. end-to-end learnability on the synthetic recurrence-cue task


def test_wp_learns_synthetic_recurrence_task():
    start = time.monotonic()
    train_set, dev_set, test_set, vocab, emb = synth.make_task(2024)
    assert (len(train_set), len(dev_set), len(test_set)) == (2000, 400, 400)

    mfc = MfcModel()
    mfc.fit(train_set)
    mfc_hits = sum(p == sample_target(s) for p, s in zip(mfc.predict_labels(test_set), test_set))
    mfc_acc = mfc_hits / len(test_set)
    assert abs(mfc_acc - 0.5) <= 0.02

    rng = Rng(2024)
    cfg = ModelConfig(variant="wp", hidden_size=32,
                      embed_dim=len(vocab.tokens), pos_mode="off")
    model = WPModel(cfg, vocab, emb, rng.child("init"))
    train(model, train_set, dev_set, TrainConfig(), rng.child("train"))
    report = evaluate(model, test_set)
    elapsed = time.monotonic() - start
    assert report.accuracy >= 0.90, f"test accuracy {report.accuracy}"
    assert elapsed < 600.0, f"learnability run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 8. overfit sanity and exact early-stopping behaviour


def test_wp_overfits_small_subset():
    subset, _, _, vocab, emb = synth.make_task(11, n_train=32, n_dev=2,
                                               n_test=2)
    rng = Rng(11)
    cfg = ModelConfig(variant="wp", hidden_size=32,
                      embed_dim=len(vocab.tokens), pos_mode="off")
    model = WPModel(cfg, vocab, emb, rng.child("init"))
    train_cfg = TrainConfig(batch_size=8, dropout=0.0, lr=0.01, patience=25,
                            max_epochs=200)
    result = train(model, subset, subset, train_cfg, rng.child("train"))
    assert result.best_accuracy == 1.0
    assert result.best_epoch <= 200
    assert evaluate(model, subset).accuracy == 1.0


def test_early_stopping_halts_exactly_patience_epochs_after_best():
    subset, _, _, vocab, emb = synth.make_task(3, n_train=4, n_dev=2, n_test=2)
    rng = Rng(3)
    cfg = ModelConfig(variant="wp", hidden_size=4, embed_dim=len(vocab.tokens),
                      dense_units=4, pos_mode="off")
    model = WPModel(cfg, vocab, emb, rng.child("init"))
    scripted = {1: 0.4, 2: 0.55, 3: 0.8}  # flat at 0.6 afterwards

    def dev_eval(model, dev_set, epoch):
        return scripted.get(epoch, 0.6)

    result = train(model, subset, subset,
                   TrainConfig(batch_size=4, dropout=0.0, patience=10,
                               max_epochs=100),
                   rng.child("train"), dev_eval=dev_eval)
    assert result.best_epoch == 3
    assert len(result.history) == 3 + 10
    assert result.history[-1].epoch == 13
