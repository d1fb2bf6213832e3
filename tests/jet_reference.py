"""The scalar radial 2-jet: the reference evaluator of ``page.Jet``.

``Jet`` is a 2-jet of one radius whose parts are floats, numpy arrays or long
doubles; ``page._sqrt``, ``_sin`` and ``_cos`` call its own methods, so the
profile functions run on it as they run on a sweep.  With it come the
closed-form formulas of one orbit, written out again on its parts: on floats
they are what a batched sweep (``page.orbit_entries``, ``orbit_spectra`` and
``transgression``) must reproduce bit for bit, and on arrays and long doubles
they check the derivatives and the double-precision values.
"""

from __future__ import annotations

from fourcurv.page import FORMULA_ULPS, OrbitSpectra, _cos, _sin, _sqrt


class Jet:
    """A radial 2-jet ``(f, f', f'')`` in forward mode: ``+ - * /`` with numbers
    or jets, and ``page._sqrt``, ``_sin`` and ``_cos``.  A number is a constant
    jet.  The parts are floats, or arrays, on which numpy does the work."""

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f, self.d1, self.d2 = f, d1, d2

    def __iter__(self):
        return iter((self.f, self.d1, self.d2))

    def __add__(self, other):
        o = lift(other)
        return Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + -lift(other)

    def __rsub__(self, other):
        return lift(other) + -self

    def __mul__(self, other):
        o = lift(other)
        return Jet(self.f * o.f, self.d1 * o.f + self.f * o.d1,
                   self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = lift(other)
        q = self.f / o.f
        q1 = (self.d1 - q * o.d1) / o.f
        return Jet(q, q1, (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.f)

    def __rtruediv__(self, other):
        return lift(other) / self

    def sqrt(self):
        s = _sqrt(self.f)
        s1 = self.d1 / (2.0 * s)
        return Jet(s, s1, (self.d2 - 2.0 * s1 * s1) / (2.0 * s))

    def sin(self):
        s, c = _sin(self.f), _cos(self.f)
        return Jet(s, c * self.d1, c * self.d2 - s * self.d1 * self.d1)

    def cos(self):
        s, c = _sin(self.f), _cos(self.f)
        return Jet(c, -s * self.d1, -s * self.d2 - c * self.d1 * self.d1)


def lift(x) -> Jet:
    return x if isinstance(x, Jet) else Jet(x)


def jets(m, r) -> tuple[Jet, Jet, Jet]:
    """The radial 2-jets of the profiles u, v and w of ``m`` at the radius r."""
    x = Jet(r, 1.0)
    return lift(m.u(x)), lift(m.v(x)), lift(m.w(x))


def orbit_entries(m, r) -> tuple[tuple[float, ...], float]:
    """``((a, b, c, d, e), err)`` of the orbit through r, as ``page.orbit_entries``
    documents them."""
    (u0, u1, _), (v0, v1, v2), (w0, w1, w2) = jets(m, r)
    uu, vv = u0 * u0, v0 * v0
    y, z = w0 / vv, v1 / (u0 * v0)
    terms = (
        (-v2 / (uu * v0), u1 * v1 / (uu * u0 * v0)),
        (-w2 / (uu * w0), u1 * w1 / (uu * u0 * w0)),
        (1.0 / vv, -0.75 * (y * y), -(z * z)),
        (0.25 * (y * y), -v1 * w1 / (uu * v0 * w0)),
        (-w1 / (u0 * vv), w0 * v1 / (u0 * vv * v0)),  # 2e
    )
    a, b, c, d, e2 = map(sum, terms)
    err = FORMULA_ULPS * max(sum(map(abs, t)) for t in terms)
    return (a, b, c, d, 0.5 * e2), err


def orbit_spectra(m, r) -> OrbitSpectra:
    """The diagonal SD/ASD blocks of the orbit through r."""
    (a, b, c, d, e), err = orbit_entries(m, r)
    ad, bc = a + d, b + c
    p, pm, p3, m3 = 0.5 * ad + e, 0.5 * ad - e, 0.5 * bc - 2.0 * e, 0.5 * bc + 2.0 * e
    beta, beta3 = 0.5 * (a - d), 0.5 * (b - c)
    return OrbitSpectra((p, p, p3), (beta, beta, beta3), (pm, pm, m3),
                        4.0 * ad + 2.0 * bc, err)


def transgression(m, r) -> tuple[float, float]:
    """``(Phi_chi, Phi_tau)`` at the radius r."""
    (u, _, _), (v, v1, _), (w, w1, _) = jets(m, r)
    P, Q, x = v1 / u, w1 / u, w / v
    xx, y = x * x, Q - x * P
    return Q * (-2.0 + 1.5 * xx + 2.0 * P * P) - xx * x * P, xx - 0.5 * xx * xx - y * y
