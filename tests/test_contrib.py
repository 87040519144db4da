"""Contribution matrices, height profiles, and diagonal complements."""

import pytest

from blocksmith import (
    ContributionError,
    IntMatrix,
    InvariantError,
    complement_diag,
    contrib,
    contribution_matrix,
    gram,
    heights_from_contribution,
)


def M(rows):
    return IntMatrix.from_rows(rows)


Q5 = M([[2, 1], [0, 1], [0, 1], [0, 1], [1, 0]])
Q7 = M([[1, 1], [1, 1], [0, 1], [0, 1], [1, 0], [1, 0], [1, 0]])
C54 = M([[5, 2], [2, 4]])


def test_contribution_diagonals():
    assert contribution_matrix(Q5, C54, 16).diagonal == (13, 5, 5, 5, 4)
    assert contribution_matrix(Q7, C54, 16).diagonal == (5, 5, 5, 5, 4, 4, 4)


def test_contribution_invariants():
    res = contribution_matrix(Q5, C54, 16)
    m = res.matrix
    assert m.is_symmetric
    assert m.matmul(m) == m.scale(16)
    assert m.trace() == 16 * 2
    assert res.defect_order == 16


def test_contribution_requires_integrality():
    # defect order 8 makes 8 * Q C^{-1} Q^t non-integral here
    with pytest.raises(ContributionError) as err:
        contribution_matrix(Q5, C54, 8)
    assert "defect order" in str(err.value)


def test_contribution_shape_checks():
    with pytest.raises(ContributionError):
        contribution_matrix(M([[1, 0]]), M([[2, 1], [1, 2]]), 4)  # C not Gram of Q
    with pytest.raises(ContributionError):
        contribution_matrix(Q5, M([[1, 2], [3, 4]]), 16)
    with pytest.raises(ContributionError):
        contribution_matrix(Q5, C54, 0)


def test_heights():
    prof = heights_from_contribution(contribution_matrix(Q5, C54, 16), 2)
    assert prof.heights == (0, 0, 0, 0, 1)
    assert prof.height_zero_count == 4
    assert prof.count(1) == 1

    prof7 = heights_from_contribution(contribution_matrix(Q7, C54, 16), 2)
    assert prof7.heights == (0,) * 4 + (1,) * 3
    assert prof7.height_zero_count == 4


def test_heights_from_bare_diagonal():
    prof = heights_from_contribution(IntMatrix.diagonal([16, 4, 4, 7, 7, 7, 9]), 3)
    assert prof.heights == (0, 0, 0, 0, 0, 0, 1)
    assert prof.height_zero_count == 6


def test_heights_error_cases():
    with pytest.raises(ContributionError):
        heights_from_contribution(IntMatrix.diagonal([4, 0]), 2)  # zero entry
    with pytest.raises(ContributionError):
        heights_from_contribution(IntMatrix.diagonal([8]), 2)  # odd valuation
    with pytest.raises(ContributionError):
        heights_from_contribution(IntMatrix.diagonal([4]), 1)


@pytest.mark.parametrize("p", [4, 6, 9, 15])
def test_heights_reject_composite_p(p):
    # base-4 valuations would read heights (0, 1) off this diagonal
    with pytest.raises(ContributionError, match="prime"):
        heights_from_contribution(IntMatrix.diagonal([1, 16]), p)
    with pytest.raises(ContributionError, match="prime"):
        heights_from_contribution(contribution_matrix(Q5, C54, 16), p)


def test_complement_diag_flat():
    assert complement_diag((16, 4, 4, 7, 7, 7, 9), 27) == (11, 23, 23, 20, 20, 20, 18)
    assert complement_diag((13, 5, 5, 5, 4), 16) == (3, 11, 11, 11, 12)


def test_complement_diag_nested():
    known = [(10, 10, 10), (8, 2, 8)]
    assert complement_diag(known, 27) == (9, 15, 9)


def test_complement_diag_range_check():
    with pytest.raises(ContributionError):
        complement_diag((20, 20), 16)
    with pytest.raises(ContributionError):
        complement_diag((4,), 0)


# Mutations of the data a contribution matrix is built from. Each one keeps
# M integral; the laws (symmetry, M * M = |D| * M, trace |D| * l) must
# catch it.
ADJ54 = ((4, -2), (-2, 5))  # adj([[5, 2], [2, 4]]), det 16
# Q5 with two equal zero rows: M has two equal zero rows and columns
Q5Z = M([[2, 1], [0, 1], [0, 1], [0, 1], [1, 0], [0, 0], [0, 0]])


def _patched_adjugate(monkeypatch, adj, d):
    monkeypatch.setattr(contrib, "adjugate_and_det", lambda m: (M(adj), d))


def test_contribution_laws_catch_a_wrong_adjugate(monkeypatch):
    # adj + diag(4, -5) keeps trace(adj' C) = 32, so M stays integral,
    # symmetric and of trace |D| * l; only M * M = |D| * M fails
    _patched_adjugate(monkeypatch, ((8, -2), (-2, 0)), 16)
    with pytest.raises(InvariantError, match="idempotent"):
        contribution_matrix(Q5, C54, 16)


def test_contribution_laws_catch_a_wrong_det(monkeypatch):
    _patched_adjugate(monkeypatch, ADJ54, 8)  # M doubled
    with pytest.raises(InvariantError):
        contribution_matrix(Q5, C54, 16)


def _corrupt_forms(monkeypatch, pairs, by=16):
    """Read each of ``pairs`` from the row-form memo of adj(C54) ``by`` too
    high (with |D| = det C = 16, every entry of M it gives is ``by`` too
    high); undone after the test."""
    contribution_matrix(Q5Z, C54, 16)  # fills the memo
    forms = gram.row_forms(M(ADJ54))
    for r, s in pairs:
        monkeypatch.setitem(forms, (r, s), forms[r, s] + by)


@pytest.mark.parametrize(
    "pairs",
    [
        [((2, 1), (2, 1))],  # a diagonal entry
        [((0, 1), (1, 0))],  # one off-diagonal entry: M loses its symmetry
        [((0, 1), (1, 0)), ((1, 0), (0, 1))],  # both: symmetry and trace hold
    ],
    ids=["diagonal", "one-sided", "symmetric"],
)
def test_contribution_laws_catch_a_corrupted_nonzero_row_form(monkeypatch, pairs):
    _corrupt_forms(monkeypatch, pairs)
    with pytest.raises(InvariantError):
        contribution_matrix(Q5, C54, 16)


@pytest.mark.parametrize(
    "pairs, by",
    [
        # the 2 x 2 block of the two zero rows: 16 * J fails M * M = 16 M
        ([((0, 0), (0, 0))], 16),
        # 8 * J squares to 16 * (8 * J): M stays a scaled idempotent, and
        # only its trace is wrong
        ([((0, 0), (0, 0))], 8),
        # symmetry and trace hold
        ([((0, 0), (1, 0)), ((1, 0), (0, 0))], 16),
    ],
    ids=["zero-zero", "zero-zero-projector", "zero-nonzero"],
)
def test_contribution_laws_catch_a_corrupted_zero_row_form(monkeypatch, pairs, by):
    assert contribution_matrix(Q5Z, C54, 16).diagonal == (13, 5, 5, 5, 4, 0, 0)
    _corrupt_forms(monkeypatch, pairs, by)
    with pytest.raises(InvariantError):
        contribution_matrix(Q5Z, C54, 16)
    monkeypatch.undo()
    assert contribution_matrix(Q5Z, C54, 16).diagonal == (13, 5, 5, 5, 4, 0, 0)
