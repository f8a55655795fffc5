"""Adaptive explicit Runge-Kutta integration with embedded error control.

Two embedded pairs are provided:

``tsit5``
    The 5(4) pair of Tsitouras [1], the workhorse for the field and
    collective-coordinate equations.  First-same-as-last, 6 effective
    stages per accepted step.
``rkf78``
    The 13-stage 7(8) pair of Fehlberg [2], used where very tight
    tolerances make a high-order method pay off (the microscopic
    cavity-chain runs and the ``pcdnse_tight`` field preset).  The
    eighth-order solution is propagated.

Either pair also runs in integrating-factor (Lawson) form [3] when the
problem names a linear part L = T^-1 diag(lam) T of its right-hand side
f = L y + N(t, y).  The stages then advance u(s) = exp(-lam s) T y(t + s)
over the step, whose slope exp(-lam s) T N no longer contains L, so a
stiff L (the dispersion of a field on a fine grid) is stepped exactly and
limits the step size no more.  The state, the recorded output and the
error estimate stay in the original variables: the estimate is mapped back
through T^-1 and measured with the same norm as without a linear part, so
rtol and atol keep their meaning.

Step-size selection uses a PI controller (safety factor 0.9, growth factor
clamped to [0.2, 5]).  A problem states one time grid: the solve starts at
its first entry, stops at its last and records every entry exactly.  An
accepted step from t to t_new records every entry in (t, t_new], those
strictly inside from the pair's continuous extension [4] and one at t_new
from the step itself.  Solves differ only in whether a step is clipped at
the next entry.  Plain (not Lawson) tsit5 steps are not, so they follow the
tolerance whatever the number of entries.  rkf78, which has no continuous
extension, and Lawson steps are, so what they record are genuine step
points.

References
----------
[1] Ch. Tsitouras, Comput. Math. Appl. 62, 770 (2011).
[2] E. Fehlberg, NASA TR R-287 (1968), Table X.
[3] J. D. Lawson, SIAM J. Numer. Anal. 4, 372 (1967).
[4] E. Hairer, S. P. Norsett, G. Wanner, Solving Ordinary Differential
    Equations I, 2nd ed., Sec. II.6 (dense output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "LinearPart",
    "OdeProblem",
    "SolverConfig",
    "TimeSeries",
    "SolveStats",
    "IntegrationError",
    "StepUnderflowError",
    "MaxStepsExceededError",
    "solve",
    "solve_fixed_grid",
    "SOLVER_PRESETS",
]


class IntegrationError(RuntimeError):
    """Base class for integrator failures."""

    def __init__(self, message: str, stats: "SolveStats | None" = None):
        if stats is not None:
            message = (
                f"{message} [accepted={stats.n_accepted}, "
                f"rejected={stats.n_rejected}, rhs_evals={stats.n_rhs}]"
            )
        super().__init__(message)
        self.stats = stats


class StepUnderflowError(IntegrationError):
    """Error control has no step it can take: the step shrank below the
    floating-point resolution of the time axis, or the right-hand side is
    not finite, so that no step has a finite size or error estimate."""


class MaxStepsExceededError(IntegrationError):
    """Step budget exhausted before reaching the end of the interval."""


@dataclass(frozen=True)
class LinearPart:
    """A linear part L y = T^-1 diag(eigenvalues) T y of a right-hand side.

    ``forward`` applies the unitary transform T to a state-shaped array and
    ``inverse`` applies T^-1; ``eigenvalues`` has the state's shape.
    """

    eigenvalues: np.ndarray
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OdeProblem:
    """An initial value problem dy/dt = rhs(t, y), y(times[0]) =
    initial_state, solved over ``times`` and recorded at each entry.

    ``times`` is 1-d, holds at least two entries, and is finite and
    strictly increasing; ``initial_state`` is 1-d and finite.  ``linear``,
    when given, names a part L y of ``rhs`` that is diagonal in a known
    basis, with one eigenvalue per component of the state; ``rhs`` stays
    the whole right-hand side L y + N(t, y).  Anything else raises
    ``ValueError``.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    times: np.ndarray
    initial_state: np.ndarray
    linear: LinearPart | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("times must be 1-d with at least two entries")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        object.__setattr__(self, "times", times)
        y = np.asarray(self.initial_state)
        if y.ndim != 1:
            raise ValueError("initial_state must be one-dimensional")
        if not np.all(np.isfinite(y)):
            raise ValueError("initial_state must be finite")
        if (self.linear is not None
                and np.shape(self.linear.eigenvalues) != y.shape):
            raise ValueError("linear.eigenvalues must have the state's shape")
        object.__setattr__(self, "initial_state", y)


@dataclass(frozen=True)
class SolverConfig:
    """Method choice and accuracy targets for :func:`solve`.

    The local error is measured against ``atol + rtol * |y|``
    componentwise (RMS norm); ``max_steps`` caps the accepted plus
    rejected steps of one solve.
    """

    method: str = "tsit5"
    rtol: float = 1e-8
    atol: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        # a list or dict is no method name, and is unhashable
        if not (isinstance(self.method, str) and self.method in _TABLEAUS):
            raise ValueError(
                f"unknown method {self.method!r}; "
                f"choose from {sorted(_TABLEAUS)}"
            )
        # NaN fails both comparisons
        if not (0 < self.rtol < math.inf and 0 <= self.atol < math.inf):
            raise ValueError("rtol must be finite and > 0, atol finite >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class SolveStats:
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0


@dataclass
class TimeSeries:
    """Recorded trajectory: ``states[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray
    stats: SolveStats | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states)
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise ValueError("times and states must have matching leading length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class _Tableau:
    c: np.ndarray
    a: np.ndarray          # strictly lower triangular stage coefficients
    b: np.ndarray          # weights of the propagated solution
    e: np.ndarray          # error weights (propagated minus embedded)
    error_order: int       # order of the embedded (lower) solution
    fsal: bool
    # Continuous extension b_i(theta) = sum_m dense[i, m-1] theta^m, m = 1..4,
    # or None when the pair has none.
    dense: np.ndarray | None = None


def _tsitouras_5_4() -> _Tableau:
    # Coefficients from Tsitouras (2011), as commonly tabulated in double
    # precision.  Row sums of `a` reproduce `c`; `b` row sums to 1.
    c = np.array([0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0])
    a = np.zeros((7, 7))
    a[1, 0] = 0.161
    a[2, :2] = [-0.008480655492356989, 0.335480655492357]
    a[3, :3] = [2.8971530571054935, -6.359448489975075, 4.3622954328695815]
    a[4, :4] = [
        5.325864828439257,
        -11.748883564062828,
        7.4955393428898365,
        -0.09249506636175525,
    ]
    a[5, :5] = [
        5.86145544294642,
        -12.92096931784711,
        8.159367898576159,
        -0.071584973281401,
        -0.028269050394068383,
    ]
    a[6, :6] = [
        0.09646076681806523,
        0.01,
        0.4798896504144996,
        1.379008574103742,
        -3.290069515436081,
        2.324710524099774,
    ]
    b = a[6].copy()  # first-same-as-last: last stage is the 5th order solution
    e = np.array([
        -0.001780011052225771,
        -0.0008164344596567469,
        0.007880878010261995,
        -0.1447110071732629,
        0.5823571654525552,
        -0.45808210592918697,
        1.0 / 66.0,
    ])
    # The fourth-order continuous extension published with the pair:
    # b(1) = b, and the order conditions up to 4 hold for every theta.
    dense = np.array([
        [1.0, -2.763706197274826, 2.9132554618219126, -1.0530884977290216],
        [0.0, 0.1317, -0.2234, 0.1017],
        [0.0, 3.9302962368947516, -5.941033872131505, 2.490627285651253],
        [0.0, -12.411077166933676, 30.33818863028232, -16.548102889244902],
        [0.0, 37.50931341651104, -88.1789048947664, 47.37952196281928],
        [0.0, -27.896526289197286, 65.09189467479366, -34.87065786149661],
        [0.0, 1.5, -4.0, 2.5],
    ])
    return _Tableau(c=c, a=a, b=b, e=e, error_order=4, fsal=True,
                    dense=dense)


def _fehlberg_7_8() -> _Tableau:
    c = np.array([
        0.0, 2 / 27, 1 / 9, 1 / 6, 5 / 12, 1 / 2, 5 / 6, 1 / 6, 2 / 3, 1 / 3,
        1.0, 0.0, 1.0,
    ])
    a = np.zeros((13, 13))
    a[1, 0] = 2 / 27
    a[2, :2] = [1 / 36, 1 / 12]
    a[3, :3] = [1 / 24, 0, 1 / 8]
    a[4, :4] = [5 / 12, 0, -25 / 16, 25 / 16]
    a[5, :5] = [1 / 20, 0, 0, 1 / 4, 1 / 5]
    a[6, :6] = [-25 / 108, 0, 0, 125 / 108, -65 / 27, 125 / 54]
    a[7, :7] = [31 / 300, 0, 0, 0, 61 / 225, -2 / 9, 13 / 900]
    a[8, :8] = [2, 0, 0, -53 / 6, 704 / 45, -107 / 9, 67 / 90, 3]
    a[9, :9] = [
        -91 / 108, 0, 0, 23 / 108, -976 / 135, 311 / 54, -19 / 60, 17 / 6,
        -1 / 12,
    ]
    a[10, :10] = [
        2383 / 4100, 0, 0, -341 / 164, 4496 / 1025, -301 / 82, 2133 / 4100,
        45 / 82, 45 / 164, 18 / 41,
    ]
    a[11, :11] = [
        3 / 205, 0, 0, 0, 0, -6 / 41, -3 / 205, -3 / 41, 3 / 41, 6 / 41, 0,
    ]
    a[12, :12] = [
        -1777 / 4100, 0, 0, -341 / 164, 4496 / 1025, -289 / 82, 2193 / 4100,
        51 / 82, 33 / 164, 12 / 41, 0, 1,
    ]
    # Propagate the 8th-order solution; the error estimate is the classical
    # difference of the pair, 41/840 (k1 + k11 - k12 - k13).
    b = np.array([
        0, 0, 0, 0, 0, 34 / 105, 9 / 35, 9 / 35, 9 / 280, 9 / 280, 0,
        41 / 840, 41 / 840,
    ])
    e = np.zeros(13)
    e[0] = 41 / 840
    e[10] = 41 / 840
    e[11] = -41 / 840
    e[12] = -41 / 840
    return _Tableau(c=c, a=a, b=b, e=e, error_order=7, fsal=False)


# The method names: a solver setting names its pair by one of these keys.
_TABLEAUS = {"tsit5": _tsitouras_5_4(), "rkf78": _fehlberg_7_8()}

#: Named tolerance presets for the production runs.  At rtol 1e-13 a
#: fifth-order step must be short, so the tight field preset takes the
#: eighth-order Fehlberg pair (fig4's anti-damped run: 31 steps, not 258).
#: Runs look a preset up when they solve, so replacing an entry reaches them.
SOLVER_PRESETS: dict[str, SolverConfig] = {
    "pcdnse": SolverConfig(method="tsit5", rtol=1e-8, atol=1e-8),
    "pcdnse_tight": SolverConfig(method="rkf78", rtol=1e-13, atol=1e-12),
    "langevin": SolverConfig(method="rkf78", rtol=1e-12, atol=1e-12),
    "collective": SolverConfig(method="tsit5", rtol=1e-10, atol=1e-8),
    "two_soliton": SolverConfig(method="tsit5", rtol=1e-10, atol=1e-8),
}


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                atol: float, rtol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((np.abs(err) / scale) ** 2)))


def _initial_step(rhs, t0, y0, f0, t1, order, atol, rtol, stats) -> float:
    # Classical starting-step heuristic (Hairer, Norsett, Wanner, II.4).
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((np.abs(y0) / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((np.abs(f0) / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    if not h0 > 0.0:                     # d0 / d1 underflowed, or is NaN
        raise StepUnderflowError(
            f"initial step size is {h0!r} at t={t0!r}", stats)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    stats.n_rhs += 1
    d2 = float(np.sqrt(np.mean((np.abs(f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (order + 1))
    return min(100 * h0, h1, t1 - t0)


class _Stages:
    """The stages of ``tab`` on y itself.

    k[j] is stage j's slope; k[0] carries rhs(t, y) between steps.
    """

    def __init__(self, tab: _Tableau, rhs, stats: SolveStats,
                 y: np.ndarray, f0: np.ndarray) -> None:
        self.tab, self.rhs, self.stats = tab, rhs, stats
        self.k = np.empty((len(tab.c), y.size), dtype=y.dtype)
        self.k[0] = f0
        self.k0_valid = True             # k[0] holds rhs(t, y) for this (t, y)

    def trial(self, t: float, y: np.ndarray, h: float
              ) -> tuple[np.ndarray, np.ndarray]:
        """The propagated state after a step h from (t, y), and its error."""
        tab, k, rhs = self.tab, self.k, self.rhs
        n_stages = len(tab.c)
        if not self.k0_valid:
            k[0] = rhs(t, y)
            self.stats.n_rhs += 1
            self.k0_valid = True
        for i in range(1, n_stages):
            yi = y + h * (tab.a[i, :i] @ k[:i])
            k[i] = rhs(t + tab.c[i] * h, yi)
        self.stats.n_rhs += n_stages - 1
        return y + h * (tab.b @ k), h * (tab.e @ k)

    def interpolate(self, y: np.ndarray, h: float, theta: np.ndarray
                    ) -> np.ndarray:
        """The states y(t + theta h) inside the step h just tried from
        (t, y), one row per theta, from the tableau's continuous extension.

        Call before accept(): first-same-as-last reuse overwrites k[0].
        """
        r, k = self.tab.dense, self.k
        theta = theta[:, None]
        w = r[:, 3] * theta                  # b_i(theta) by Horner's rule
        for m in (2, 1, 0):
            w = (w + r[:, m]) * theta
        # Summed stage by stage, not with a BLAS product over k.
        acc = w[:, :1] * k[0]
        for i in range(1, len(k)):
            acc += w[:, i:i + 1] * k[i]
        return y + h * acc

    def accept(self) -> None:
        if self.tab.fsal:
            self.k[0] = self.k[-1]        # first-same-as-last stage reuse
        else:
            self.k0_valid = False


class _LawsonStages:
    """The stages of ``tab`` in integrating-factor (Lawson) form.

    In the basis yhat = T y the linear part is the factor E(s) = exp(lam s).
    The stages advance u(s) = E(-s) yhat(t + s), whose slope E(-s) Nhat
    holds only the rest Nhat = T f - lam yhat of the right-hand side, so
    the linear part is stepped exactly.  k[j] is stage j's pulled-back
    slope E(-c_j h) Nhat_j; k[0] carries Nhat(t, y) between steps.
    """

    def __init__(self, tab: _Tableau, rhs, linear: LinearPart,
                 stats: SolveStats, y: np.ndarray, f0: np.ndarray) -> None:
        self.tab, self.rhs, self.stats = tab, rhs, stats
        self.lam, self.forward, self.inverse = (
            linear.eigenvalues, linear.forward, linear.inverse)
        self.yhat = self.forward(y)
        self.k = np.empty((len(tab.c), y.size), dtype=complex)
        self.k[0] = self.forward(f0) - self.lam * self.yhat
        self.k0_valid = True
        # E(c h) is needed at every stage node c and at c = 1 for the step.
        # An exponential costs more than a transform of the same length, so
        # it is taken once per distinct eigenvalue (a parity-symmetric
        # operator has lam_k = lam_{n-k} in the Fourier basis).
        self.nodes = sorted(set(tab.c[1:].tolist()) | {1.0})
        self.distinct, self.index = np.unique(self.lam, return_inverse=True)
        self.pending: tuple[np.ndarray, np.ndarray | None] | None = None

    def trial(self, t: float, y: np.ndarray, h: float
              ) -> tuple[np.ndarray, np.ndarray]:
        """The propagated state after a step h from (t, y), and its error,
        both in the original variables."""
        tab, k, rhs, lam = self.tab, self.k, self.rhs, self.lam
        forward, inverse = self.forward, self.inverse
        n_stages = len(tab.c)
        if not self.k0_valid:
            k[0] = forward(rhs(t, y)) - lam * self.yhat
            self.stats.n_rhs += 1
            self.k0_valid = True
        growth = {c: np.exp(self.distinct * (c * h))[self.index]
                  for c in self.nodes}
        for i in range(1, n_stages):
            e = growth[tab.c[i]]
            yhat_i = e * (self.yhat + h * (tab.a[i, :i] @ k[:i]))
            y_i = inverse(yhat_i)
            nhat_i = forward(rhs(t + tab.c[i] * h, y_i)) - lam * yhat_i
            np.divide(nhat_i, e, out=k[i])
        self.stats.n_rhs += n_stages - 1
        e = growth[1.0]
        if tab.fsal:
            # c = 1 and a[-1] = b: the last stage is the propagated solution.
            self.pending = (yhat_i, nhat_i)
        else:
            yhat_i = e * (self.yhat + h * (tab.b @ k))
            y_i = inverse(yhat_i)
            self.pending = (yhat_i, None)
        return y_i, inverse(e * (h * (tab.e @ k)))

    def accept(self) -> None:
        self.yhat, nhat = self.pending
        if nhat is None:
            self.k0_valid = False
        else:
            self.k[0] = nhat


def solve(problem: OdeProblem, config: SolverConfig) -> TimeSeries:
    """Integrate ``problem`` over its time grid and return the trajectory.

    The solve starts at ``problem.times[0]``, stops at ``problem.times[-1]``
    and records the state at every entry of ``problem.times``, which the
    result's ``times`` equals bit for bit.  With ``problem.linear`` set,
    the steps are taken in Lawson form (see the module docstring).
    Identical inputs produce bit-identical output.

    Raises
    ------
    StepUnderflowError
        If error control forces the step below the resolution of the time
        variable, the first step is not positive (it underflows to zero or
        is NaN), or a rejected step's error estimate is not finite: each
        typically a sign of a defective or singular RHS, or of one that
        overflows.
    MaxStepsExceededError
        If more than ``config.max_steps`` steps (accepted plus rejected)
        would be needed.
    """
    tab = _TABLEAUS[config.method]
    rhs, times = problem.rhs, problem.times
    y = problem.initial_state
    # Steps come out in double precision, and complex in Lawson form.
    y = y.astype(np.result_type(
        y, float if problem.linear is None else complex))

    stats = SolveStats()
    t, t_end = float(times[0]), float(times[-1])
    states = np.empty((len(times), y.size), y.dtype)
    states[0] = y
    out_idx = 1                          # the next entry to record

    f0 = rhs(t, y)
    stats.n_rhs += 1
    if problem.linear is None:
        stages = _Stages(tab, rhs, stats, y, f0)
    else:
        stages = _LawsonStages(tab, rhs, problem.linear, stats, y, f0)
    # The one choice per solve: plain steps of a pair with a continuous
    # extension run free, the others are clipped at each entry.
    dense_output = tab.dense is not None and problem.linear is None

    exponent = 1.0 / (tab.error_order + 1)
    beta1 = 0.7 * exponent               # PI controller memory weights
    beta2 = 0.4 * exponent
    safety, fac_min, fac_max = 0.9, 0.2, 5.0

    dt = _initial_step(rhs, t, y, f0, t_end, tab.error_order, config.atol,
                       config.rtol, stats)
    err_prev = 1.0

    while t < t_end:
        if stats.n_accepted + stats.n_rejected >= config.max_steps:
            raise MaxStepsExceededError(
                f"exceeded max_steps={config.max_steps} at t={t!r}", stats)

        tiny = 4.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if dt < tiny:
            raise StepUnderflowError(
                f"step size {dt!r} underflowed at t={t!r}", stats)

        # Clip to land exactly on the next entry a step must reach.
        target = t_end if dense_output else float(times[out_idx])
        h = dt
        clipped = False
        if t + h >= target - tiny:
            h = target - t
            clipped = True

        y_new, err_vec = stages.trial(t, y, h)
        err = _error_norm(err_vec, y, y_new, config.atol, config.rtol)

        if err <= 1.0:
            stats.n_accepted += 1
            t_new = target if clipped else t + h
            if err == 0.0:
                factor = fac_max
            else:
                factor = min(fac_max, max(
                    fac_min, safety * err**(-beta1) * err_prev**beta2))
            err_prev = max(err, 1e-4)
            # Entries in (t, t_new) come from the interpolant, one at t_new
            # from the step itself (t < t_new, so times[stop - 1] is
            # recorded already unless it is t_new).
            stop = int(np.searchsorted(times, t_new, side="right"))
            hit = float(times[stop - 1]) == t_new
            inner = slice(out_idx, stop - 1 if hit else stop)
            if inner.stop > inner.start:
                states[inner] = stages.interpolate(
                    y, h, (times[inner] - t) / h)
            if hit:
                states[stop - 1] = y_new
            out_idx = stop
            t, y = t_new, y_new
            stages.accept()
            dt = h * factor
        else:
            # Rejection leaves (t, y) untouched: the first slope stays valid.
            stats.n_rejected += 1
            if not math.isfinite(err):
                # a shorter step is not known to mend an inf or NaN estimate
                raise StepUnderflowError(
                    f"error estimate {err!r} of a step {h!r} at t={t!r}",
                    stats)
            dt = h * min(1.0, max(fac_min, safety * err**(-exponent)))

    return TimeSeries(times.copy(), states, stats)


def solve_fixed_grid(problem: OdeProblem, config: SolverConfig,
                     n_outputs: int) -> TimeSeries:
    """Integrate over [times[0], times[-1]] of ``problem`` and record on a
    uniform grid of ``n_outputs`` points, both ends included."""
    grid = np.linspace(problem.times[0], problem.times[-1], n_outputs)
    return solve(replace(problem, times=grid), config)
