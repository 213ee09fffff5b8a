"""Every parameter default in src/presup, against a reviewed allow-list.

A default is a second calling form: it stays only when a command relies on
it, or when it is a hook that lets a test substitute a value. Adding one
means adding its reason below. Exception classes and the __init__ methods
that dataclasses generate are not counted.
"""

import importlib
import inspect
import pkgutil

import presup

ALLOWED = {
    "models.embed_sequence.steps":
        "the CNN pads to max_len, the recurrent models to the batch maximum",
    "models.NeuralModel.__init__.rng":
        "training draws the initial parameters, loading does not",
    "models.RecurrentClassifier.forward.rng":
        "training passes an Rng for dropout, scoring passes none",
    "models.RecurrentClassifier.forward.dropout_p":
        "training passes the dropout rate, scoring passes none",
    "models.CnnModel.forward.rng":
        "training passes an Rng for dropout, scoring passes none",
    "models.CnnModel.forward.dropout_p":
        "training passes the dropout rate, scoring passes none",
    "models.RecurrentClassifier.forward.alpha_override":
        "the acceptance test's uniform-attention hook",
    "models.RecurrentClassifier.forward.return_trace":
        "per-token attention weights of one sample, for inspection",
    "extraction._window.drop_global":
        "positives drop the adverb, negatives drop nothing",
    "vocab.build_embedding_table.vectors":
        "rows from a vector file, or random rows",
    "checkpoint.save_checkpoint.extra":
        "only the neural models record their best epoch",
    "training.evaluate.model_id":
        "the eval command names its report, the dev evaluation does not",
    "training.evaluate.dataset_id":
        "the eval command names its report, the dev evaluation does not",
    "training.train.dev_eval":
        "a test hook for the stopping rule",
    "cli.main.argv":
        "the console entry point reads sys.argv",
    "models.MfcModel.__init__.cfg":
        "cmd_train constructs both baselines the same way; loading needs no config",
}


def _functions(module):
    """(qualified name, function) of every function and method written in
    `module`'s own source file, exception classes left out."""
    def own(fn):
        return inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__

    for name, obj in vars(module).items():
        if own(obj):
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                and not issubclass(obj, BaseException):
            for attr, value in vars(obj).items():
                fn = getattr(value, "__func__", value)  # classmethod, staticmethod
                if own(fn):
                    yield f"{name}.{attr}", fn


def _defaulted_parameters() -> list:
    found = []
    for info in pkgutil.iter_modules(presup.__path__):
        module = importlib.import_module(f"presup.{info.name}")
        for qualname, fn in _functions(module):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.append(f"{info.name}.{qualname}.{param.name}")
    return found


def test_every_default_has_a_reviewed_reason():
    found = _defaulted_parameters()
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(ALLOWED)

