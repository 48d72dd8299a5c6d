import re

import numpy as np
import pytest

from eitsim.errors import InvalidArgumentError, StateCorruptionError
from eitsim.states import (assert_density_matrices, assert_density_matrix,
                           basis_state, mixed_state)


def test_accepts_valid_state():
    rho = assert_density_matrix(np.diag([0.5, 0.5]).astype(complex))
    assert rho.shape == (2, 2)
    assert rho[0, 0].real == 0.5
    assert np.allclose(np.diag(rho).real, [0.5, 0.5])


def test_repairs_small_deviations():
    m = np.diag([0.6, 0.4]).astype(complex)
    m[0, 1] = 1e-8  # asymmetric: hermitian part halves it
    m[0, 0] += 1e-8  # trace slightly off
    rho = assert_density_matrix(m)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert np.allclose(rho, rho.conj().T)
    assert rho[0, 1] == pytest.approx(0.5e-8, rel=1e-6)


def test_rejects_large_hermiticity_violation():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 1e-3
    with pytest.raises(StateCorruptionError):
        assert_density_matrix(m)


def test_rejects_large_trace_violation():
    with pytest.raises(StateCorruptionError):
        assert_density_matrix(np.diag([0.7, 0.5]).astype(complex))


def test_rejects_negative_population():
    with pytest.raises(StateCorruptionError):
        assert_density_matrix(np.diag([1.1, -0.1]).astype(complex))


def test_rejects_non_square_and_non_finite():
    with pytest.raises(StateCorruptionError):
        assert_density_matrix(np.ones((2, 3)))
    m = np.diag([1.0, 0.0]).astype(complex)
    m[0, 1] = float("nan")
    with pytest.raises(StateCorruptionError):
        assert_density_matrix(m)


def test_mixed_and_basis_states():
    rho = mixed_state()
    assert rho.shape == (6, 6)
    assert np.allclose(np.diag(rho).real, np.full(6, 1 / 6))
    lvl5 = basis_state(5)
    assert lvl5.shape == (6, 6)
    assert lvl5[4, 4].real == 1.0
    assert np.diag(lvl5).real.sum() == 1.0
    # a bool is an int, but True would address level 1
    for level in (0, 7, True, False, 2.0, "1"):
        with pytest.raises(InvalidArgumentError,
                           match=rf"^level index {re.escape(repr(level))} "
                                 r"outside 1\.\.6$"):
            basis_state(level)


def _noisy_states(rng, k, n=6, noise=1e-8):
    a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    rho = a @ a.conj().swapaxes(1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho + noise * (rng.standard_normal((k, n, n))
                          + 1j * rng.standard_normal((k, n, n)))


def test_stack_repairs_each_matrix_like_the_single_call():
    stack = _noisy_states(np.random.default_rng(5), 40)
    repaired = assert_density_matrices(stack)
    assert repaired.shape == stack.shape
    for m, r in zip(stack, repaired):
        assert np.array_equal(assert_density_matrix(m), r)


def test_stack_failure_names_the_matrix():
    stack = _noisy_states(np.random.default_rng(7), 5)
    stack[3, 0, 1] += 1e-3
    with pytest.raises(StateCorruptionError,
                       match=r"^state 3: hermiticity deviation"):
        assert_density_matrices(stack, label=lambda i: f"state {i}")
    stack = _noisy_states(np.random.default_rng(7), 5)
    stack[2] *= 1.1
    with pytest.raises(StateCorruptionError, match=r"^trace deviation"):
        assert_density_matrices(stack)


def test_stack_needs_square_matrices():
    with pytest.raises(StateCorruptionError):
        assert_density_matrices(np.eye(3))
    with pytest.raises(StateCorruptionError):
        assert_density_matrices(np.ones((2, 2, 3)))
