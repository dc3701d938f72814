"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain rationals are represented by ``fractions.Fraction`` (already canonical:
lowest terms, positive denominator).  Elements of Q(i) with a nonzero
imaginary part are represented by :class:`GaussianRational`; every arithmetic
operation collapses back to ``Fraction`` as soon as the imaginary part
vanishes, so a value has exactly one representation and ``==`` on scalars is
reliable everywhere (including as dict values).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class GaussianRational:
    """a + b*i with a, b in Q and b != 0.

    Construction with b == 0 is rejected; use :func:`make_scalar`, which
    returns a plain ``Fraction`` in that case.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re = Fraction(re)
        im = Fraction(im)
        if im == 0:
            raise ValueError("GaussianRational requires a nonzero imaginary part")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __hash__(self):
        return hash((self.re, self.im))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        # a real number can never equal us: im != 0 by construction
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __bool__(self):
        return True

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return make_scalar(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return make_scalar(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return make_scalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Fraction(0)
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            return self * GaussianRational(other.re / n, -other.im / n)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n = self.re * self.re + self.im * self.im
            return make_scalar(other * self.re / n, -other * self.im / n)
        return NotImplemented

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_scalar(self)


Scalar = Union[Fraction, GaussianRational]


def make_scalar(re, im=0) -> Scalar:
    """Build the canonical scalar with the given real and imaginary parts."""
    im = Fraction(im)
    if im == 0:
        return Fraction(re)
    return GaussianRational(re, im)


def as_scalar(value) -> Scalar:
    """Coerce an int / Fraction / GaussianRational to a canonical scalar."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_parts(value) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of a scalar, both as Fractions."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(value) -> Scalar | None:
    """An exact square root within Q(i), or None when none exists there."""
    if isinstance(value, GaussianRational):
        a, b = value.re, value.im
        norm = _fraction_sqrt(a * a + b * b)
        if norm is None:
            return None
        re2 = (a + norm) / 2
        re = _fraction_sqrt(re2)
        if re is None or re == 0:
            return None
        return make_scalar(re, b / (2 * re))
    q = Fraction(value)
    root = _fraction_sqrt(q)
    if root is not None:
        return root
    if q < 0:
        root = _fraction_sqrt(-q)
        if root is not None:
            return make_scalar(0, root)
    return None


def _render_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def render_scalar(value) -> str:
    """Canonical expression string: reparses to the same scalar."""
    re, im = scalar_parts(value)
    if im == 0:
        return _render_fraction(re)
    if im == 1:
        im_str = "i"
    elif im == -1:
        im_str = "-i"
    else:
        im_str = f"{_render_fraction(im)}*i"
    if re == 0:
        return im_str
    joiner = "+" if not im_str.startswith("-") else "-"
    return f"{_render_fraction(re)}{joiner}{im_str.lstrip('-')}"
