"""Characteristic curves: adaptive integration of the field ODE system.

The state is (t, x1..xn, u) and the derivative is the characteristic
vector field evaluated at the state (the system is autonomous in the curve
parameter tau).  An embedded Dormand-Prince 5(4) pair supplies the local
error estimate; a cubic Hermite interpolant of the final step locates the
exit point when a trajectory leaves the computational box.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalDomainError, var_names
from .expr import compile as compile_exprs
from .problem import Box, VectorField

TERM_SPAN_END = "span_end"
TERM_LEFT_BOX = "left_box"
TERM_STEP_FAILURE = "step_failure"

DEFAULT_TOL = 1e-10
MAX_STEPS = 10**6

# Dormand-Prince 5(4) tableau; row 7 doubles as the 5th-order weights (FSAL).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4


class IntegrationError(Exception):
    """Raised when a curve cannot even be started (e.g. bad seed)."""


@dataclass
class CharacteristicCurve:
    taus: np.ndarray              # shape (m,)
    states: np.ndarray            # shape (m, n+2)
    termination: str              # one of the TERM_* constants

    @property
    def end(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        n = self.states.shape[1] - 2
        header = ",".join(["tau", "t", *(f"x{k}" for k in range(1, n + 1)), "u"])
        out = io.StringIO()
        out.write(header + "\n")
        for tau, state in zip(self.taus, self.states):
            out.write(",".join(repr(float(v)) for v in (tau, *state)) + "\n")
        return out.getvalue()


@dataclass
class Strip:
    """Curves for a seed list, order preserved; failures collected aside."""

    curves: list  # CharacteristicCurve or None at failed indices
    errors: list = field(default_factory=list)  # (seed index, exception)


def _derivative(compiled, state: np.ndarray) -> np.ndarray:
    return np.array(compiled(*state.tolist()))


def _hermite(y0, y1, f0, f1, h, theta):
    # cubic Hermite on one accepted step, theta in [0, 1]
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + theta) * h * f0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * f1)


def _exit_state(box: Box, y0, y1, f0, f1, h):
    """Bisect the Hermite interpolant for the box-exit point of a step."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if box.contains(_hermite(y0, y1, f0, f1, h, mid)):
            lo = mid
        else:
            hi = mid
    state = _hermite(y0, y1, f0, f1, h, lo)
    # clip the last ulp of drift onto the closed box
    return np.clip(state, box.lows(), box.highs()), lo


def integrate_characteristic(fld: VectorField, seed, span, tol: float = DEFAULT_TOL,
                             *, box: Box) -> CharacteristicCurve:
    """Integrate one characteristic curve through ``seed`` over ``span``.

    span is (tau0, tau1); tau1 < tau0 integrates backward.  Integration
    stops at the box boundary (with an interpolated boundary state), at the
    span end, or on step-size underflow.
    """
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError(f"tol {tol} outside [1e-13, 1e-3]")
    tau0, tau1 = float(span[0]), float(span[1])
    if not np.isfinite([tau0, tau1]).all():
        raise ValueError(f"span ({tau0}, {tau1}) is not finite")
    seed = np.asarray(seed, dtype=float)
    if not box.contains(seed, atol=1e-12):
        raise IntegrationError(f"seed {seed.tolist()} is outside the box")

    direction = 1.0 if tau1 >= tau0 else -1.0
    total = abs(tau1 - tau0)

    taus = [tau0]
    states = [seed.copy()]
    termination = TERM_SPAN_END
    if total == 0.0:
        return CharacteristicCurve(np.array(taus), np.array(states),
                                   termination)

    compiled = compile_exprs(fld.components, var_names(fld.n))
    try:
        k1 = _derivative(compiled, seed)
    except EvalDomainError as err:
        raise IntegrationError(f"field fails to evaluate at seed: {err}") from err

    scale0 = tol + tol * np.abs(seed)
    d0 = np.sqrt(np.mean((seed / scale0) ** 2))
    d1 = np.sqrt(np.mean((k1 / scale0) ** 2))
    h = 0.01 * d0 / d1 if (d0 > 1e-10 and d1 > 1e-10) else total / 100.0
    h = direction * min(max(h, 1e-10 * total), total)

    tau = tau0
    y = seed
    ks = np.empty((7, len(seed)))
    for _ in range(MAX_STEPS):
        remaining = tau1 - tau
        if direction * remaining <= 1e-15 * max(1.0, abs(tau1)):
            break
        if abs(h) > abs(remaining):
            h = remaining
        ks[0] = k1
        try:
            for i, row in enumerate(_DP_A):
                yi = y + h * np.dot(row, ks[: i + 1])
                ks[i + 1] = _derivative(compiled, yi)
        except EvalDomainError:
            h *= 0.5
            if abs(h) < 1e-14 * max(1.0, abs(tau)):
                termination = TERM_STEP_FAILURE
                break
            continue
        y_new = y + h * np.dot(_DP_B5, ks)
        err_vec = h * np.dot(_DP_ERR, ks)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((err_vec / scale) ** 2))
        if err <= 1.0:
            if not box.contains(y_new):
                state, theta = _exit_state(box, y, y_new, ks[0], ks[6], h)
                taus.append(tau + theta * h)
                states.append(state)
                termination = TERM_LEFT_BOX
                break
            tau += h
            y = y_new
            k1 = ks[6].copy()  # FSAL
            taus.append(tau)
            states.append(y.copy())
            factor = 0.9 * err ** -0.2 if err > 1e-10 else 5.0
            h *= min(max(factor, 1.0), 5.0)
        else:
            h *= min(max(0.9 * err ** -0.2, 0.2), 1.0)
            if abs(h) < 1e-14 * max(1.0, abs(tau)):
                termination = TERM_STEP_FAILURE
                break
    else:
        termination = TERM_STEP_FAILURE

    return CharacteristicCurve(np.array(taus), np.array(states), termination)


def characteristic_strip(fld: VectorField, seeds, span, tol: float = DEFAULT_TOL,
                         *, box: Box) -> Strip:
    """One curve per seed, seed order preserved; per-seed errors collected
    instead of failing fast."""
    strip = Strip([])
    for i, seed in enumerate(seeds):
        try:
            curve = integrate_characteristic(fld, seed, span, tol, box=box)
        except IntegrationError as err:
            curve = None
            strip.errors.append((i, err))
        strip.curves.append(curve)
    return strip
