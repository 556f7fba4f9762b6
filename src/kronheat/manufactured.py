"""Manufactured smooth solution of the heat equation test problem.

The reference solution is a scaled Gaussian centered at (1/4, -1/4)
multiplied by sin(pi x1 x2),

    u = 5/(2 pi t) * exp(-((x1 - 1/4)^2 + (x2 + 1/4)^2)/(4 t)) * sin(pi x1 x2).

The Gaussian factor solves the heat equation exactly, so the source
f = dt u - laplace u involves only the cross terms with the sine factor.
The center lies inside the removed quadrant of the L-shaped domain, so u
is smooth up to the boundary and decays to zero as t -> 0.

``ExactFields`` evaluates u, its derivatives and the source at many
scalar times on one point set at a time, as the load projection and the
Dirichlet lift do on theirs and the error norms do on each triangle
block in turn, without recomputing what does not depend on t.
"""

import numpy as np

from .errors import DimensionMismatch, UsageError

__all__ = ["CENTER", "ExactFields"]

CENTER = (0.25, -0.25)

# exp(-x) is subnormal beyond x = 708.4, and numpy's exp takes a slow path
# near there; ExactFields sets its Gaussian to 0 where x passes this cut
_EXP_CUT = 700.0


def _read_only(buffer):
    # a buffer and a read-only view of it
    view = buffer.view()
    view.flags.writeable = False
    return buffer, view


class ExactFields:
    """The manufactured solution, its derivatives and source, memoized.

    The bound methods take ``(x1, x2, t)`` for a scalar ``t`` and x1 and
    x2 of one shape, and return arrays of that shape (a mismatch raises
    ``DimensionMismatch``): ``u`` returns u, ``grad`` the pair
    (du/dx1, du/dx2), ``dt`` du/dt, and ``source`` the heat source
    dt u - laplace u,

        f = G * (pi ((x1 - 1/4) x2 + (x2 + 1/4) x1) cos(pi x1 x2) / t
                 + pi^2 (x1^2 + x2^2) sin(pi x1 x2)),

    since the heat operator annihilates the Gaussian factor G.  Kept
    between calls:

    - the t-independent factors (``x - CENTER``, ``r2``, ``sin(pi x1 x2)``
      and ``pi cos(pi x1 x2)``) of the last point set, keyed by the
      identity of the ``x1`` and ``x2`` float arrays, which are held
      until a new pair arrives (other inputs are converted on every
      call, so they never match); the old pair's factors are freed
      before the new pair's are formed.  Arrays passed in must therefore
      not be modified in place between calls.  The two factors only the
      source uses, its buffer and one for its Gaussian factor are formed
      on its first call for a point set;
    - one buffer per returned field, allocated once per point set (the
      Gaussian factor of ``u``, ``grad`` and ``dt`` passes through
      ``u``'s), and
      ``u``, ``grad`` and ``dt`` at the last ``t``: the three at one time
      point cost a single ``exp`` per point together.  ``source`` takes
      its own ``exp`` on every call, as the load and the error norms
      never evaluate at the same point set and time.

    Where ``r2 / (4 t)`` passes a cut of 700, the Gaussian is exactly 0
    rather than a value below exp(-700), about 1e-304, that would soon
    turn subnormal and slow down ``exp`` and every product.  The smallest
    and largest ``r2`` of the point set decide per ``t`` whether to clamp
    the exponent at the cut, and whether every field is 0 at ``t``, with
    no ``exp`` at all.

    The returned arrays are read-only views of those buffers, valid
    until the next call at another time or on another point set.
    """

    def __init__(self):
        self._points = None

    def u(self, x1, x2, t):
        return self._fields(x1, x2, t)[0]

    def grad(self, x1, x2, t):
        return self._fields(x1, x2, t)[1:3]

    def dt(self, x1, x2, t):
        return self._fields(x1, x2, t)[3]

    def source(self, x1, x2, t):
        self._use(x1, x2, t)
        if self._source is None:
            a1, a2 = self._points
            _, s, _, _, x2c, x1c = self._factors
            self._source = (
                (a1 - CENTER[0]) * x2c + (a2 - CENTER[1]) * x1c,
                np.pi**2 * (a1**2 + a2**2) * s, np.empty(a1.shape),
                *_read_only(np.empty(a1.shape)))
        cross_c, lap_s, g, f, view = self._source
        if self._vanishes(t):
            f.fill(0.0)
        else:
            np.multiply(cross_c, 1.0 / t, out=f)
            f += lap_s
            f *= self._gaussian(t, g)
        return view

    def _use(self, x1, x2, t):
        # switch to the point set (x1, x2), dropping the cached time
        if np.ndim(t) != 0:
            raise UsageError("ExactFields evaluates one scalar time per call")
        points = self._points
        if points is None or points[0] is not x1 or points[1] is not x2:
            a1, a2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
            if a1.shape != a2.shape:
                raise DimensionMismatch(
                    f"x1 of shape {a1.shape} and x2 of shape {a2.shape}")
            self._factors = self._source = None
            self._buffers = self._views = None
            self._points = (a1, a2)
            d1 = a1 - CENTER[0]
            d2 = a2 - CENTER[1]
            s = np.sin(np.pi * a1 * a2)
            c = np.pi * np.cos(np.pi * a1 * a2)
            r2 = d1**2 + d2**2
            self._factors = (r2, s, d1 * s, d2 * s, a2 * c, a1 * c)
            # NaN in r2 makes both comparisons with the cut false
            self._r2_range = (r2.min(initial=np.inf), r2.max(initial=-np.inf))
            # u, du/dx1, du/dx2, du/dt; 0-d for scalar points
            self._buffers, self._views = zip(
                *(_read_only(np.empty(a1.shape)) for _ in range(4)))
            self._fields_t = None

    def _vanishes(self, t):
        # every field is 0 at t: t <= 0, or r2 / (4 t) past the cut
        return t <= 0.0 or self._r2_range[0] * (0.25 / t) > _EXP_CUT

    def _gaussian(self, t, g):
        # G = 5/(2 pi t) exp(-r2 / (4 t)) into g at one t > 0, and 0
        # where r2 / (4 t) passes the cut
        np.multiply(self._factors[0], -0.25 / t, out=g)
        if self._r2_range[1] * (0.25 / t) > _EXP_CUT:
            below = g < -_EXP_CUT
            np.maximum(g, -_EXP_CUT, out=g)
            np.exp(g, out=g)
            g[below] = 0.0
        else:
            np.exp(g, out=g)
        g *= 5.0 / (2.0 * np.pi * t)
        return g

    def _fields(self, x1, x2, t):
        # (u, du/dx1, du/dx2, du/dt) at one time from the cached factors;
        # the gradient is G (x2 pi cos - d1 sin / (2t)) and its mirror
        self._use(x1, x2, t)
        if t != self._fields_t:
            r2, s, d1s, d2s, x2c, x1c = self._factors
            u, g1, g2, u_t = self._buffers
            if self._vanishes(t):
                for field in (u, g1, g2, u_t):
                    field.fill(0.0)
            else:
                # G in u's buffer until the gradient has taken it
                g = self._gaussian(t, u)
                np.multiply(d1s, -0.5 / t, out=g1)
                g1 += x2c
                g1 *= g
                np.multiply(d2s, -0.5 / t, out=g2)
                g2 += x1c
                g2 *= g
                u *= s
                np.multiply(r2, 0.25 / t**2, out=u_t)
                u_t -= 1.0 / t
                u_t *= u
            self._fields_t = t
        return self._views
