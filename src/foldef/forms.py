"""Exterior calculus on polynomial differential forms.

A k-form stores one coefficient polynomial per strictly increasing k-tuple of
variable indices.  The total degree of a homogeneous k-form is defined as
(coefficient degree) + k, so the exterior derivative, the wedge product and
contraction with the radial field all preserve total degree, and Euler's
identity reads i_R(dp) = deg(p) * p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Poly
from .scalars import as_scalar

Index = tuple[int, ...]

_SCALARS = (int, Fraction)


def _merge_indices(left: Index, right: Index) -> tuple[Index, int] | None:
    """Sorted union of two disjoint increasing tuples with the merge sign.

    Returns None when the tuples share an index (the wedge vanishes).
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # moving right[j] past the remaining len(left) - i factors
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class Form:
    """An alternating polynomial form of fixed arity."""

    __slots__ = ("ambient_dim", "arity", "components")

    def __init__(self, ambient_dim: int, arity: int, components: dict[Index, Poly] | None = None):
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        if arity < 0:
            raise ValueError("arity must be >= 0")
        clean: dict[Index, Poly] = {}
        for key, poly in (components or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise ValueError(f"component key {key} does not have arity {arity}")
            if any(not 0 <= i < ambient_dim for i in key):
                raise ValueError(f"component key {key} out of range")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"component key {key} is not strictly increasing")
            if poly.ambient_dim != ambient_dim:
                raise ValueError("component polynomial has wrong ambient dimension")
            if not poly.is_zero():
                clean[key] = poly
        if arity > ambient_dim and clean:
            raise ValueError("a nonzero form cannot have arity above the dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int, arity: int) -> "Form":
        return cls(ambient_dim, arity, {})

    @classmethod
    def from_poly(cls, poly: Poly) -> "Form":
        return cls(poly.ambient_dim, 0, {(): poly})

    @classmethod
    def one_form(cls, coefficients: Sequence[Poly]) -> "Form":
        """Build sum(coefficients[i] * dx_i) from one polynomial per variable."""
        if not coefficients:
            raise ValueError("need at least one coefficient")
        n = coefficients[0].ambient_dim
        if len(coefficients) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coefficients)}")
        return cls(n, 1, {(i,): p for i, p in enumerate(coefficients)})

    @classmethod
    def d_var(cls, ambient_dim: int, index: int) -> "Form":
        """The coordinate differential dx_index."""
        return cls(ambient_dim, 1, {(index,): Poly.constant(ambient_dim, 1)})

    # -- structure --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.arity == other.arity
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.arity, frozenset(self.components.items())))

    def component(self, key: Iterable[int]) -> Poly:
        return self.components.get(tuple(key), Poly.zero(self.ambient_dim))

    def sorted_components(self) -> list[tuple[Index, Poly]]:
        return sorted(self.components.items())

    def total_degree(self) -> int | None:
        """Common (coefficient degree + arity) over all components, else None.

        None also for the zero form, whose degree is indeterminate.
        """
        degrees = set()
        for poly in self.components.values():
            d = poly.homogeneous_degree()
            if not isinstance(d, int):
                return None
            degrees.add(d + self.arity)
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def is_homogeneous(self, total_degree: int | None = None) -> bool:
        d = self.total_degree()
        if d is None:
            return self.is_zero()
        return total_degree is None or d == total_degree

    def coefficient_degrees(self) -> list[int]:
        """Sorted distinct total degrees of coefficient monomials (degree report)."""
        degrees = set()
        for poly in self.components.values():
            degrees.update(sum(m) for m in poly.terms)
        return sorted(degrees)

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        out = dict(self.components)
        for key, poly in other.components.items():
            merged = out.get(key)
            out[key] = poly if merged is None else merged + poly
        return Form(self.ambient_dim, self.arity, out)

    def __neg__(self):
        return Form(self.ambient_dim, self.arity, {k: -p for k, p in self.components.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __mul__(self, factor):
        """Scale by an exact scalar or multiply by a polynomial."""
        if isinstance(factor, Poly):
            return Form(
                self.ambient_dim,
                self.arity,
                {k: p * factor for k, p in self.components.items()},
            )
        factor = as_scalar(factor)
        return Form(
            self.ambient_dim,
            self.arity,
            {k: p * factor for k, p in self.components.items()},
        )

    __rmul__ = __mul__

    # -- exterior algebra -----------------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        arity = self.arity + other.arity
        out: dict[Index, Poly] = {}
        for ka, pa in self.components.items():
            for kb, pb in other.components.items():
                merged = _merge_indices(ka, kb)
                if merged is None:
                    continue
                key, sign = merged
                term = pa * pb if sign == 1 else -(pa * pb)
                existing = out.get(key)
                out[key] = term if existing is None else existing + term
        return Form(self.ambient_dim, arity, out)

    def d(self) -> "Form":
        """Exterior derivative."""
        out: dict[Index, Poly] = {}
        for key, poly in self.components.items():
            for i in range(self.ambient_dim):
                if i in key:
                    continue
                dpoly = poly.diff(i)
                if dpoly.is_zero():
                    continue
                pos = sum(1 for k in key if k < i)
                new_key = tuple(sorted(key + (i,)))
                signed = dpoly if pos % 2 == 0 else -dpoly
                existing = out.get(new_key)
                out[new_key] = signed if existing is None else existing + signed
        return Form(self.ambient_dim, self.arity + 1, out)

    def __repr__(self):
        from .expressions import render_form

        if self.arity == 1:
            return f"Form({render_form(self)!r})"
        return f"Form(n={self.ambient_dim}, arity={self.arity}, {len(self.components)} components)"


class VectorField:
    """A polynomial vector field, one coefficient per coordinate direction."""

    __slots__ = ("ambient_dim", "components")

    def __init__(self, components: Sequence[Poly]):
        if not components:
            raise ValueError("need at least one component")
        n = components[0].ambient_dim
        if len(components) != n or any(p.ambient_dim != n for p in components):
            raise ValueError("vector field needs exactly one component per variable")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def ext_d(a: Form | Poly) -> Form:
    if isinstance(a, Poly):
        a = Form.from_poly(a)
    return a.d()


def contract(field: VectorField, a: Form) -> Form:
    """Interior product i_X(a); an anti-derivation of degree -1."""
    if a.arity == 0:
        raise ValueError("cannot contract a 0-form")
    if field.ambient_dim != a.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    out: dict[Index, Poly] = {}
    for key, poly in a.components.items():
        for pos, idx in enumerate(key):
            coeff = field.components[idx]
            if coeff.is_zero():
                continue
            term = poly * coeff if pos % 2 == 0 else -(poly * coeff)
            new_key = key[:pos] + key[pos + 1 :]
            existing = out.get(new_key)
            out[new_key] = term if existing is None else existing + term
    return Form(a.ambient_dim, a.arity - 1, out)


def radial_field(n: int) -> VectorField:
    """R = sum(x_i d/dx_i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return VectorField([Poly.variable(n, i) for i in range(n)])


def lie_radial(a: Form) -> Form:
    """L_R(a) = d(i_R a) + i_R(d a); equals (total degree) * a when homogeneous."""
    field = radial_field(a.ambient_dim)
    result = contract(field, a.d())
    if a.arity >= 1:
        result = result + ext_d(contract(field, a))
    return result


def cartan_check(a: Form, total_degree: int) -> bool:
    """Whether L_R(a) = total_degree * a; requires a homogeneous of that degree."""
    if not a.is_homogeneous(total_degree):
        raise ValueError(f"form is not homogeneous of total degree {total_degree}")
    scaled = a * Fraction(total_degree)
    return lie_radial(a) == scaled
