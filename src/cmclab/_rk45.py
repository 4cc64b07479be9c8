"""Dormand-Prince 5(4) integration with dense output and terminal events.

This is a port, for shoot_leaf's one use, of scipy 1.17's
``solve_ivp(method="RK45", dense_output=True, events=...)`` for a forward
time span: the RK45 step with scipy's initial step, step-size control and
RMS error norm, the quartic dense output looked up per step as OdeSolution
does it, and event location by a line-for-line port of scipy's C
``brentq`` with xtol = rtol = 4 eps.  scipy is distributed under the
BSD-3-Clause license.  Every numpy call has the operand shapes of scipy's
own, because the shape of an ``np.dot`` is part of its arithmetic, so the
results are bit-identical to scipy's; that was checked against scipy
1.17.1 (tests/test_equivariant.py).

The module needs only numpy, where importing scipy.integrate also loads
scipy.optimize and scipy.interpolate.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np

_EPS = sys.float_info.epsilon
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
        t = np.asarray(t)
        if t.ndim == 0:
            return self.interpolants[self._segments(t)](t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = self._segments(t_sorted)
        # Each step evaluates exactly its own run of sorted times.
        cuts = np.flatnonzero(np.diff(segments)) + 1
        ys = [self.interpolants[seg](part) for seg, part in
              zip(segments[np.r_[0, cuts]], np.split(t_sorted, cuts))]
        return np.hstack(ys)[:, reverse]


def _brentq(f, xa, xb, xtol=4 * _EPS, rtol=4 * _EPS, maxiter=100):
    """A root of f in [xa, xb] whose ends have values of opposite sign:
    scipy's C brentq line for line, with the checks of its wrapper."""
    def call(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _active_events(g, g_new, direction):
    g, g_new = np.asarray(g), np.asarray(g_new)
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    mask = (up & (direction > 0) | down & (direction < 0)
            | (up | down) & (direction == 0))
    return np.nonzero(mask)[0]


def solve_ivp(fun, t_span, y0, rtol, atol, events=()):
    """Integrate y' = fun(t, y) from t_span[0] forward to t_span[1].

    Each event(t, y) must carry the attribute `terminal` = True, and may
    carry `direction` (take only zeros crossed downward if negative, upward
    if positive).  The run stops at the earliest zero of the first step in
    which any event crosses zero; on a tie, at the first in np.argsort
    order, scipy's choice when every event is terminal.  Returns a
    namespace with t_events (one array of zero times per event, only the
    stopping event's not empty), sol (the dense output, callable on a time
    or an array of times), status (0 at the span's end, 1 at an event, -1
    when the step size underflows) and message (scipy's text at status -1,
    else None).
    """
    t0, tf = map(float, t_span)
    if not t0 < tf:
        raise ValueError("the time span must increase")
    if any(getattr(event, "terminal", False) is not True for event in events):
        raise ValueError("every event must be terminal")
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

    direction = np.array([getattr(e, "direction", 0) for e in events],
                         dtype=float)
    g = [event(t0, y0) for event in events]
    t_events = [[] for _ in events]
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

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= tf:
            status = 0
        sol = _StepInterpolant(t_old, t, y_old, K.T.dot(_P))
        interpolants.append(sol)

        g_new = [event(t, y) for event in events]
        active = _active_events(g, g_new, direction)
        if active.size > 0:
            roots = np.asarray([
                _brentq(lambda s, event=events[i]: event(s, sol(s)), t_old, t)
                for i in active])
            first = np.argsort(roots)[0]
            t = roots[first]
            t_events[active[first]].append(t)
            status = 1
        g = g_new

        # A terminal zero on the previous step end adds no step.
        if len(ts) > 1 and ts[-1] == t:
            interpolants.pop()
        else:
            ts.append(t)

    return SimpleNamespace(
        t_events=[np.asarray(te) for te in t_events],
        sol=_Solution(np.array(ts), interpolants), status=status,
        message=message)
