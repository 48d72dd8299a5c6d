import numpy as np
import pytest

from eitsim import kernels
from eitsim.bloch import build_liouvillian, steady_state
from eitsim.config import DriveSet, pryso_defaults
from eitsim.states import mixed_state


def _random_system(rng, dim, scale=1.0):
    gen = (rng.standard_normal((dim, dim))
           + 1j * rng.standard_normal((dim, dim))) * scale
    # Shift the spectrum left so nothing blows up over the horizon.
    gen -= np.eye(dim) * (np.max(np.linalg.eigvals(gen).real) + 0.5) * scale
    y0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return gen, y0


def test_scalar_exponential_decay():
    gen = np.array([[-3.0 + 0.0j]])
    t = np.linspace(0.0, 2.0, 9)
    out, _, applied = kernels.integrate(gen, np.array([1.0 + 0j]),
                                        t[1], t.size)
    assert applied == t.size - 1
    assert np.allclose(out[:, 0], np.exp(-3.0 * t), rtol=1e-13, atol=0.0)


def test_oscillator_phase():
    # dy/dt = i*w*y: |y| conserved, phase advances linearly
    w = 2.5
    gen = np.array([[1j * w]])
    t = np.linspace(0.0, 4.0, 21)
    out, _, _ = kernels.integrate(gen, np.array([1.0 + 0j]), t[1], t.size)
    assert np.allclose(out[:, 0], np.exp(1j * w * t), rtol=1e-13, atol=1e-14)


def test_matrix_exponential_cross_check():
    # oracle: eigendecomposition propagator applied at each sample time
    rng = np.random.default_rng(7)
    gen, y0 = _random_system(rng, 6)
    t = np.linspace(0.0, 3.0, 11)
    vals, vecs = np.linalg.eig(gen)
    coef = np.linalg.solve(vecs, y0)
    exact = np.array([vecs @ (np.exp(vals * tt) * coef) for tt in t])
    out, _, _ = kernels.integrate(gen, y0, t[1], t.size)
    assert np.allclose(out, exact, rtol=1e-10, atol=1e-12)


def test_scipy_cross_check():
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(21)
    gen, y0 = _random_system(rng, 8, scale=2.0)
    t = np.linspace(0.0, 1.5, 7)
    sol = solve_ivp(lambda _, y: gen @ y, (0.0, 1.5), y0, t_eval=t,
                    rtol=1e-10, atol=1e-12)
    out, _, _ = kernels.integrate(gen, y0, t[1], t.size)
    assert np.allclose(out, sol.y.T, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("norm, squarings", [
    (0.0, 0), (0.1, 0), (1.0, 0), (10.0, 1), (1e2, 5), (1e3, 8), (1e4, 11),
    (1e5, 15), (1e6, 18), (5e6, 20)])
def test_expm_matches_scipy(norm, squarings):
    # Skew-hermitian (unitary exponential) and dissipative matrices at
    # 1-norms that need 0 to 20 squarings.
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(squarings)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = h + h.conj().T
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    eps = np.finfo(float).eps
    for a in (1j * h, 1j * h - g @ g.conj().T):
        a = a * (norm / np.abs(a).sum(axis=0).max())
        got, used = kernels.expm(a)
        assert used == squarings
        want = scipy_expm(a)
        assert np.max(np.abs(got - want)) <= 50 * eps * max(norm, 1.0)


def test_zero_matrix_maps_to_identity():
    got, squarings = kernels.expm(np.zeros((5, 5)))
    assert squarings == 0
    assert np.array_equal(got, np.eye(5))


def test_long_time_limit_is_the_steady_state():
    # 1 s is ~1000 times the slowest decay mode of the pumped generator;
    # the oracle is the linear nullspace solve, not a propagation
    mat = pryso_defaults()
    drives = DriveSet(probe_rabi=0.0, coupling_rabi=1e6, aux_rabi=1e6)
    lv = build_liouvillian(mat, drives, 0.0)
    out, _, _ = kernels.integrate(lv,
                                  mixed_state().reshape(-1),
                                  1.0 / 200, 201)
    ss = steady_state(lv).reshape(-1)
    assert np.max(np.abs(out[-1] - ss)) <= 1e-9


def test_zero_generator_constant_solution():
    gen = np.zeros((4, 4), dtype=complex)
    y0 = np.arange(1.0, 5.0) + 0j
    out, _, _ = kernels.integrate(gen, y0, 2.5, 5)
    assert np.array_equal(out, np.tile(y0, (5, 1)))


def test_single_sample_returns_initial():
    gen = np.array([[-1.0 + 0j]])
    out, _, applied = kernels.integrate(gen, np.array([2.0 + 0j]), 1.0, 1)
    assert applied == 0
    assert out.shape == (1, 1) and out[0, 0] == 2.0


def test_duplicate_sample_times():
    # a zero step repeats the initial state exactly
    gen = np.array([[-1.0 + 0j]])
    out, _, applied = kernels.integrate(gen, np.array([1.0 + 0j]), 0.0, 4)
    assert applied == 3
    assert np.array_equal(out[:, 0], np.ones(4))

