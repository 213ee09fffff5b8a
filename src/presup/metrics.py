"""Accuracy, confusion/contingency tables, and McNemar's test."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError

ALPHA = 0.05  # McNemar's significance level


@dataclass
class ConfusionMatrix:
    """Actual x predicted counts over {absence=0, presence=1}."""
    tn: int = 0
    fp: int = 0
    fn: int = 0
    tp: int = 0

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise UsageError("accuracy of an empty confusion matrix")
        return (self.tn + self.tp) / self.total

    def to_dict(self) -> dict:
        return {"tn": self.tn, "fp": self.fp, "fn": self.fn, "tp": self.tp}


@dataclass
class ContingencyTable:
    """Correctness cross-tabulation of two models on the same samples:
    a = both correct, b = A correct / B wrong, c = A wrong / B correct,
    d = both wrong."""
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def to_dict(self) -> dict:
        return {"a_both_correct": self.a, "b_a_only": self.b,
                "c_b_only": self.c, "d_both_wrong": self.d}


def confusion(predictions, labels) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise UsageError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    cm = ConfusionMatrix()
    for p, y in zip(predictions, labels):
        if y == 0:
            if p == 0:
                cm.tn += 1
            else:
                cm.fp += 1
        else:
            if p == 0:
                cm.fn += 1
            else:
                cm.tp += 1
    return cm


def contingency(preds_a, preds_b, labels) -> ContingencyTable:
    if not (len(preds_a) == len(preds_b) == len(labels)):
        raise UsageError(
            f"length mismatch: {len(preds_a)}, {len(preds_b)}, {len(labels)}")
    table = ContingencyTable()
    for pa, pb, y in zip(preds_a, preds_b, labels):
        ok_a = pa == y
        ok_b = pb == y
        if ok_a and ok_b:
            table.a += 1
        elif ok_a:
            table.b += 1
        elif ok_b:
            table.c += 1
        else:
            table.d += 1
    return table


@dataclass
class McNemarResult:
    chi2: float
    p: float
    significant: bool
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {"chi2": self.chi2, "p": self.p, "significant": self.significant,
                "degenerate": self.degenerate}


def mcnemar(table: ContingencyTable) -> McNemarResult:
    """Continuity-corrected McNemar chi-square on the discordant counts.

    chi2 = (|b - c| - 1)^2 / (b + c), p from the 1-dof chi-square survival
    function, computed as erfc(sqrt(chi2 / 2)); significant means p < ALPHA.
    When b + c == 0 the test is undefined; we return (0, 1) flagged as
    degenerate.
    """
    b, c = table.b, table.c
    if b + c == 0:
        return McNemarResult(chi2=0.0, p=1.0, significant=False, degenerate=True)
    chi2 = (abs(b - c) - 1) ** 2 / (b + c)
    p = math.erfc(math.sqrt(chi2 / 2.0))
    return McNemarResult(chi2=chi2, p=p, significant=p < ALPHA)
