"""Each mutant is one in-process monkeypatch of the library, and each test
asserts that a named check reports it: a check that a mutant passes is
blind to the defect the mutant stands for.

The oracle's mutant, the DP's crossing rule flipped alone, is
test_cli.test_oracle_exits_1_when_only_the_dp_crossing_rule_is_flipped.
"""

import random

import pytest

from alcovewalks import folding
from alcovewalks.affine import AffineWeylGroup, InvariantError
from alcovewalks.cartan import from_label
from alcovewalks.folding import StepKind

from helpers import deadline, relation_violations, sampled_states


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_swapped_fold_and_zero_crossing_weights_break_the_hecke_relations(monkeypatch, label):
    # a branch step's fold stays at v but weighs 1, its crossing weighs q-1
    group = AffineWeylGroup(from_label(label))
    states = sampled_states(group, random.Random(label), 60)
    assert relation_violations(group, states) == []
    real_moves = folding._moves

    def moves(group, v, j):
        out = real_moves(group, v, j)
        if len(out) == 2:
            (fold, _), (cross, _) = out
            out = ((fold, StepKind.ZERO_CROSSING), (cross, StepKind.FOLD))
        return out

    monkeypatch.setattr(folding, "_moves", moves)
    assert relation_violations(group, states)


def test_flipped_letter_0_translation_stops_the_descent(monkeypatch):
    # s_0 adds the coroot of theta to the translation instead of taking it
    # away; the descent of the bad endpoint has no end but its length bound
    real_step = AffineWeylGroup.step

    def step(self, state, j):
        t, w = real_step(self, state, j)
        if j == 0:
            t = tuple(2 * a - b for a, b in zip(state[0], t))
        return t, w

    group = AffineWeylGroup(from_label("A2"))
    monkeypatch.setattr(AffineWeylGroup, "step", step)
    with deadline(1.0), pytest.raises(InvariantError, match="passed the length bound"):
        group.is_reduced((2, 1, 0, 2, 0, 1))
