"""Dormand-Prince 5(4) integration with dense output, and no events.

This is a port, for shoot_leaf's one use, of scipy 1.17's RK45 stepper and
its OdeSolution lookup, for a forward time span: the RK45 step with scipy's
initial step, step-size control and RMS error norm, and the quartic dense
output looked up per step as OdeSolution does it.  In place of scipy's
events the run stops after the first step whose end state passes the
caller's test, and first_zero bisects that step for the caller's zero.
scipy is distributed under the BSD-3-Clause license.  Every numpy call has
the operand shapes of scipy's own, because the shape of an ``np.dot`` is
part of its arithmetic, so the results are bit-identical to scipy's; that
was checked against scipy 1.17.1 (tests/test_equivariant.py).

The module needs only numpy, where importing scipy.integrate also loads
scipy.optimize and scipy.interpolate.
"""

from types import SimpleNamespace

import numpy as np

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5    # -1 / (error estimator order 4 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Dormand & Prince (1980) tableau and Shampine's (1986) dense output.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _StepInterpolant:
    """Quartic interpolant of one step, from t_old to t_old + h."""

    def __init__(self, t_old, t, y_old, Q):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.Q = Q

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            p = np.cumprod(np.tile(x, 4))
            y = self.h * np.dot(self.Q, p)
            y += self.y_old
        else:
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            y = self.h * np.dot(self.Q, p)
            y += self.y_old[:, None]
        return y


class _Solution:
    """The step interpolants over the step ends ts.  A time on a step end
    takes the earlier step; times outside ts take the nearest step."""

    def __init__(self, ts, interpolants):
        self.ts = ts
        self.interpolants = interpolants

    def _segments(self, t):
        ind = np.searchsorted(self.ts, t, side="left")
        return np.clip(ind - 1, 0, len(self.interpolants) - 1)

    def __call__(self, t):
        """The state at a time t, or at each of an ascending array of
        times."""
        t = np.asarray(t)
        if t.ndim == 0:
            return self.interpolants[self._segments(t)](t)
        segments = self._segments(t)
        # Each step evaluates exactly its own run of times.
        cuts = np.flatnonzero(np.diff(segments)) + 1
        ys = [self.interpolants[seg](part) for seg, part in
              zip(segments[np.r_[0, cuts]], np.split(t, cuts))]
        return np.hstack(ys)


def solve_ivp(fun, t_span, y0, rtol, atol, stop):
    """Integrate y' = fun(t, y) from t_span[0] forward to t_span[1], and
    end after the first accepted step whose end state y passes stop(y).

    Returns a namespace with sol (the dense output, with the step ends in
    sol.ts), y (the state at the last step end), status (0 at the span's
    end, 1 on stop, -1 when the step size underflows) and message (scipy's
    text at status -1, else None).
    """
    t0, tf = map(float, t_span)
    if not t0 < tf:
        raise ValueError("the time span must increase")
    y = np.asarray(y0, dtype=float)

    def rhs(t, y):
        return np.asarray(fun(t, y), dtype=float)

    f = rhs(t0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, tf - t0)
    d2 = _rms((rhs(t0 + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, tf - t0)

    K = np.empty((7, y.size))
    t = t0
    ts = [t0]
    interpolants = []
    status = message = None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, _TOO_SMALL_STEP
                break
            t_new = t + h_abs
            if t_new > tf:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = rhs(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        interpolants.append(_StepInterpolant(t, t_new, y, K.T.dot(_P)))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if stop(y):
            status = 1
        elif t >= tf:
            status = 0

    return SimpleNamespace(sol=_Solution(np.array(ts), interpolants), y=y,
                           status=status, message=message)


def first_zero(sol, g):
    """The first time t of the last step of the dense output sol, from
    sol.ts[-2] to sol.ts[-1], at which g(sol(t)) <= 0, bisected until its
    bounds are adjacent floats; the step's end when g(sol(t)) stays
    positive there.  g must be positive at the step's start.  Only sol.ts
    and sol(t) are used, so sol may also be scipy's OdeSolution.
    """
    lo, hi = map(float, sol.ts[-2:])
    if g(sol(hi)) > 0:
        return hi
    while lo < (mid := (lo + hi) / 2) < hi:
        if g(sol(mid)) > 0:
            lo = mid
        else:
            hi = mid
    return hi
