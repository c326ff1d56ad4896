"""Exception types and the input rules every module shares: the check_* functions
and sample_grid.

The CLI maps these onto exit codes: a ValueError exits 2 like an argparse error,
ResourceLimitError / ModelValidityError exit 3 (as does MemoryError), IntegrationError
exit 4.
"""

import math

import numpy as np


class ModelValidityError(ValueError):
    """Parameters outside the regime where the model equations hold (e.g. beta >= 1)."""


class ResourceLimitError(RuntimeError):
    """Requested system size exceeds the dense / enumeration caps."""


class IntegrationError(RuntimeError):
    """Adaptive integrator failed (step-size underflow or solver breakdown)."""


def check_coupling(beta: float) -> None:
    """beta = J/(hbar omega0) is finite and non-negative."""
    check_nonnegative("beta", beta)


def check_born_markov(beta: float) -> None:
    """check_coupling, and the relaxation equations' Born-Markov regime J < hbar omega0."""
    check_coupling(beta)
    if beta >= 1.0:
        raise ModelValidityError(f"relaxation equations require beta < 1 (Born-Markov), got {beta}")


def check_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:       # an int of any size compares without overflow
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_atom_cap(what: str, n_atoms: int, cap: int) -> None:
    if n_atoms > cap:
        raise ResourceLimitError(f"{what} capped at {cap} atoms, got {n_atoms}")


def sample_grid(horizon: float, n_samples: int) -> np.ndarray:
    """n_samples even points on [0, horizon]."""
    check_positive("horizon", horizon)
    check_positive("n_samples", n_samples)
    return np.linspace(0.0, horizon, n_samples)


def check_uniform_grid(t, what: str) -> np.ndarray:
    """t as a float array of at least two finite samples, strictly increasing and
    evenly spaced (steps equal to 1e-9 of the largest)."""
    t = np.asarray(t, dtype=float)
    steps = np.diff(t) if t.ndim == 1 and np.all(np.isfinite(t)) else np.empty(0)
    if not (steps.size and steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps.max()):
        raise ValueError(f"{what} needs at least two finite samples, "
                         "strictly increasing and uniformly spaced")
    return t
