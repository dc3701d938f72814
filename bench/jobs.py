"""Seeded job generators for the three benchmark workloads.

A workload is an endless stream of rounds.  Round ``k`` of workload ``w``
under seed ``s`` is drawn from ``Random(f"{w}:{s}:{k}")``, so the same seed
always gives the same jobs, and every round holds the same job shapes in the
same order (only coefficients, eigenvalues and variable placement change).
No spec is repeated across rounds, so a cache keyed on inputs gains nothing
between rounds.

The generators build command lines as plain strings; they import nothing
from ``foldef`` so that a change to the program or to its tests cannot shift
a workload.  Every draw is taken as it comes: nothing is filtered for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from random import Random

WORKLOADS = ("structured", "dense", "small")

# A job whose status must be 0 ("ok"), or may also be the verdict failure
# status 1 ("verdict"); status 2, an exception or a timeout is always a failure.
OK, VERDICT = "ok", "verdict"


@dataclass(frozen=True)
class Job:
    workload: str
    round: int
    index: int
    kind: str
    argv: tuple[str, ...]
    expect: str


# ---------------------------------------------------------------------------
# polynomial text; a polynomial is a list of (coefficient, exponents) terms
# and a coefficient is an int or a Gaussian pair (re, im) of ints
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "z", "w"]


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _scale(c, k: int):
    return (c[0] * k, c[1] * k) if isinstance(c, tuple) else c * k


def _coeff_text(c) -> str:
    if isinstance(c, tuple):
        re, im = c
        if im == 0:
            return str(re)
        body = f"{re}+{im}*i" if re else f"{im}*i"
        return f"({body})".replace("+-", "-")
    return str(c)


def scalar_text(c) -> str:
    """A coefficient as an argument; a leading '-' would read as an option."""
    text = _coeff_text(c)
    return f"({text})" if text.startswith("-") else text


def poly_text(terms, names) -> str:
    """Sum of terms, parenthesized when it would start with '-'."""
    pieces = []
    for c, exps in terms:
        factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
        pieces.append("*".join([_coeff_text(c)] + factors))
    return scalar_text(" + ".join(pieces).replace("+ -", "- ") or "0")


def _diff(terms, i: int):
    return [(_scale(c, e[i]), e[:i] + (e[i] - 1,) + e[i + 1 :]) for c, e in terms if e[i]]


def one_form_text(pairs, names) -> str:
    """sum(cofactor * d(f)) over (cofactor text, f terms) pairs, expanded over dx_i."""
    out = []
    for cofactor, f in pairs:
        for i, name in enumerate(names):
            partial = _diff(f, i)
            if partial:
                out.append(f"({cofactor})*({poly_text(partial, names)})*d{name}")
    return " + ".join(out)


def log_form_text(factors, eigen, names) -> str:
    """sum(lam_k * prod(f_j, j != k) * df_k)."""
    pairs = []
    for k, lam in enumerate(eigen):
        cofactor = [scalar_text(lam)] + [f"({poly_text(f, names)})" for j, f in enumerate(factors) if j != k]
        pairs.append(("*".join(cofactor), factors[k]))
    return one_form_text(pairs, names)


def _nonzero(rng: Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _distinct_nonzero(rng: Random, count: int, bound: int) -> list[int]:
    return rng.sample([v for v in range(-bound, bound + 1) if v], count)


def _gaussian(rng: Random, bound: int) -> tuple[int, int]:
    while True:
        value = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if value != (0, 0):
            return value


def _proportional(f, g) -> bool:
    """Whether two term lists are scalar multiples of each other."""

    def num(c):
        return complex(*c) if isinstance(c, tuple) else c  # exact for these small integers

    a, b = {e: num(c) for c, e in f}, {e: num(c) for c, e in g}
    keys = set(a) | set(b)
    return all(a.get(p, 0) * b.get(q, 0) == a.get(q, 0) * b.get(p, 0) for p in keys for q in keys)


def _times(a: dict, terms) -> dict:
    """a * terms, with a as {exponents: coefficient} and terms as (coefficient, exponents) pairs."""
    out = {}
    for e, c in a.items():
        for d, f in terms:
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + c * (complex(*d) if isinstance(d, tuple) else d)
    return out


def _log_form_vanishes(factors, eigen, n: int) -> bool:
    """Whether sum(lam_k * prod(f_j, j != k) * df_k) is the zero form.

    It is when the factors are powers of one polynomial (say z and z^2) and
    the eigenvalues cancel.  Such a spec defines no foliation: ``check``
    reports it as not generic, but ``projectivize`` rejects it as input, so
    that generator redraws it.  A rational spec (f1, f2, r, s) realizes the
    log form of (f1, f2) with eigenvalues (-s, r).
    """
    total = {}
    for k, lam in enumerate(eigen):
        cofactor = {(0,) * n: complex(*lam) if isinstance(lam, tuple) else lam}
        for j, f in enumerate(factors):
            if j != k:
                cofactor = _times(cofactor, f)
        for i in range(n):
            for e, c in _times(cofactor, _diff(factors[k], i)).items():
                total[i, e] = total.get((i, e), 0) + c
    return not any(total.values())


def _sign(rng: Random) -> int:
    return rng.choice((1, -1))


# Eigenvalue magnitudes.  Elimination cost grows with the size of the
# entries, so a seed permutes these and draws their signs but never changes
# their sizes; otherwise the seed, not the program, would set the timings.
MAGNITUDES = (1, 2, 5, 11)


def _signed_magnitudes(rng: Random, count: int) -> list[int]:
    return [_sign(rng) * m for m in rng.sample(MAGNITUDES[:count], count)]


def _spec_args(names, factors, eigen) -> list[str]:
    return [
        "--vars", ",".join(names),
        "--logarithmic", *(poly_text(f, names) for f in factors),
        "--eigenvalues", *(scalar_text(v) for v in eigen),
    ]


def _decompose_args(names, factors, eigen) -> list[str]:
    return [
        "decompose", "--vars", ",".join(names), "--form", log_form_text(factors, eigen, names),
        "--factors", *(poly_text(f, names) for f in factors), "--mults", *("1" for _ in factors),
    ]


# ---------------------------------------------------------------------------
# structured: coordinate hyperplanes and products of distinct variables
# ---------------------------------------------------------------------------

# Groupings of x, y, z, w into monomial factors.  Both have total degree 4,
# so every spec's matrices have the same shapes (224x80 up to 880x80).
STRUCTURED_GROUPINGS = ((1, 1, 1, 1), (2, 1, 1))


def _structured_spec(rng: Random, grouping):
    order = list(range(4))
    rng.shuffle(order)
    factors, start = [], 0
    for size in grouping:
        exps = [0] * 4
        for v in order[start : start + size]:
            exps[v] = 1
        factors.append([(1, tuple(exps))])
        start += size
    return factors, _signed_magnitudes(rng, len(factors))


def _fermat_projective(rng: Random) -> list[str]:
    """Projectivized d(a*x^3 + b*y^3 + c*z^3) in x,y,z,w: descends, degree 4.

    Deformed at degree 5, which puts these jobs among the relcohom, deform and
    coro1 jobs: two thirds of a round then take about the same time, and the
    median and the tail percentile fall inside that group rather than on the
    gap below it.
    """
    a = _signed_magnitudes(rng, 3)
    terms = [f"({3 * c}*{v}^2*w)*d{v}" for c, v in zip(a, "xyz")]
    potential = [(-3 * c, tuple(3 * (j == i) for j in range(4))) for i, c in enumerate(a)]
    terms.append(f"({poly_text(potential, NAMES)})*dw")
    return ["deform", "--vars", "x,y,z,w", "--form", " + ".join(terms), "--degree", "5", "--projective"]


def structured_round(rng: Random):
    jobs = []
    for grouping in STRUCTURED_GROUPINGS:
        factors, eigen = _structured_spec(rng, grouping)
        spec = _spec_args(NAMES, factors, eigen)
        seed = str(rng.randint(0, 999))
        jobs += [
            ("verify-logarithmic", ["verify", "logarithmic", *spec, "--seed", seed], VERDICT),
            ("verify-coro1", ["verify", "coro1", *spec], VERDICT),
            ("relcohom", ["relcohom", *spec], OK),
            ("deform", ["deform", *spec, "--degree", "5"], OK),
            ("decompose", _decompose_args(NAMES, factors, eigen), OK),
        ]
    jobs += [("deform-projective", _fermat_projective(rng), OK) for _ in range(2)]
    return jobs


# ---------------------------------------------------------------------------
# dense: every monomial of every factor carries a random coefficient
# ---------------------------------------------------------------------------

# (variables, factor degrees, over Q(i), job kind).  The 4-variable (1,1,2)
# specs are deformed at degree 3 (a dense 140x40 block): at their own degree
# (224x80) one job takes 6-7 s, a run would hold two of them, and every
# timing would swing with the load on the machine.  The cheap check,
# decompose and projectivize jobs make every layer show a time.
DENSE_SHAPES = (
    (3, (1, 1, 1), True, "check"),
    (3, (1, 1, 2), False, "decompose"),
    (3, (1, 1, 2), True, "projectivize"),
    (3, (1, 1, 2), False, "deform"),
    (3, (1, 1, 2), False, "verify-logarithmic"),
    (3, (1, 2, 2), False, "deform"),
    (3, (1, 2, 2), False, "verify-logarithmic"),
    (4, (1, 1, 1), False, "deform"),
    (4, (1, 1, 1), False, "verify-logarithmic"),
    (3, (1, 1, 2), True, "deform"),
    (3, (1, 1, 2), True, "verify-logarithmic"),
    (4, (1, 1, 2), False, "deform"),
)


def _dense_spec(rng: Random, n: int, degrees, gaussian: bool):
    """Pairwise non-proportional factors (proportional ones make no valid spec)."""

    def draw():
        return _gaussian(rng, 2) if gaussian else _nonzero(rng, 3)

    factors = []
    for d in degrees:
        while True:
            f = [(draw(), m) for m in _monomials(n, d)]
            if not any(_proportional(f, g) for g in factors):
                factors.append(f)
                break
    eigen = _signed_magnitudes(rng, len(degrees))
    if gaussian:
        eigen = [(v, _sign(rng)) for v in eigen]
    return factors, eigen


def dense_round(rng: Random):
    jobs = []
    for n, degrees, gaussian, kind in DENSE_SHAPES:
        names = NAMES[:n]
        factors, eigen = _dense_spec(rng, n, degrees, gaussian)
        spec = _spec_args(names, factors, eigen)
        if kind == "deform":
            argv = ["deform", *spec] + (["--degree", "3"] if n == 4 and sum(degrees) == 4 else [])
        elif kind == "verify-logarithmic":
            argv = ["verify", "logarithmic", *spec]
        elif kind == "check":
            argv = ["check", *spec, "--seed", str(rng.randint(0, 999))]
        elif kind == "projectivize":
            argv = ["projectivize", *spec]
        else:
            argv = _decompose_args(names, factors, eigen)
        jobs.append((kind, argv, VERDICT if kind in ("verify-logarithmic", "check") else OK))
    return jobs


# ---------------------------------------------------------------------------
# small: interactive-size jobs over every subcommand
# ---------------------------------------------------------------------------


def _small_names(rng: Random) -> list[str]:
    return NAMES[: rng.choice((3, 4))]


def _sparse_poly(rng: Random, n: int, degree: int):
    monos = _monomials(n, degree)
    return [(_nonzero(rng, 3), m) for m in rng.sample(monos, min(len(monos), rng.randint(1, 3)))]


def _linear(rng: Random, n: int):
    while True:
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        if any(coeffs):
            return [(c, _unit(n, i)) for i, c in enumerate(coeffs) if c]


def _linear_factors(rng: Random, n: int, count: int):
    factors = []
    while len(factors) < count:
        f = _linear(rng, n)
        if not any(_proportional(f, g) for g in factors):
            factors.append(f)
    return factors


def _combine(a: int, f, b: int, g):
    """a*f + b*g for linear term lists."""
    total = {}
    for k, h in ((a, f), (b, g)):
        for c, e in h:
            total[e] = total.get(e, 0) + k * c
    return [(c, e) for e, c in sorted(total.items(), reverse=True) if c]


def _small_check(rng: Random):
    names = _small_names(rng)
    count = rng.choice((2, 3))
    factors = [_sparse_poly(rng, len(names), rng.choice((1, 2))) for _ in range(count)]
    eigen = _distinct_nonzero(rng, count, 6)
    return ["check", *_spec_args(names, factors, eigen), "--seed", str(rng.randint(0, 999))]


def _small_projectivize(rng: Random):
    names = _small_names(rng)
    while True:
        f1, f2 = (_sparse_poly(rng, len(names), rng.choice((1, 2))) for _ in range(2))
        r, s = _distinct_nonzero(rng, 2, 6)
        if not _log_form_vanishes([f1, f2], [-s, r], len(names)):
            break
    return ["projectivize", "--vars", ",".join(names), "--rational", poly_text(f1, names),
            poly_text(f2, names), "--eigenvalues", scalar_text(r), scalar_text(s)]


def _small_decompose(rng: Random):
    names = _small_names(rng)
    count = rng.choice((2, 3))
    return _decompose_args(names, _linear_factors(rng, len(names), count), _distinct_nonzero(rng, count, 6))


def _small_affine_def(rng: Random):
    """eta: the same linear factors with other eigenvalues, a deformation of omega."""
    names = _small_names(rng)
    count = rng.choice((2, 3))
    factors = _linear_factors(rng, len(names), count)
    eigen, other = (_distinct_nonzero(rng, count, 6) for _ in range(2))
    return ["verify", "affine-def", *_spec_args(names, factors, eigen), "--eta", log_form_text(factors, other, names)]


def _small_dicritical(rng: Random):
    """omega = l1*dl2 - l2*dl1 and eta = d(m1*m2) with m1, m2 independent in span(l1, l2)."""
    names = _small_names(rng)
    l1, l2 = _linear_factors(rng, len(names), 2)
    while True:
        a, b, c, d = (_nonzero(rng, 2) for _ in range(4))
        if a * d != b * c:
            break
    m1, m2 = _combine(a, l1, b, l2), _combine(c, l1, d, l2)
    omega = one_form_text([(poly_text(l1, names), l2), (f"-1*({poly_text(l2, names)})", l1)], names)
    eta = one_form_text([(poly_text(m2, names), m1), (poly_text(m1, names), m2)], names)
    return ["verify", "dicritical", "--vars", ",".join(names), "--form", omega, "--eta", eta,
            "--factors", poly_text(m1, names), poly_text(m2, names), "--mults", "1", "1"]


def _small_rational(rng: Random, command: list[str]):
    names = NAMES[:3] if command[0] == "deform" else _small_names(rng)
    f1, f2 = (_sparse_poly(rng, len(names), 1) for _ in range(2))
    r, s = _distinct_nonzero(rng, 2, 6)
    return [*command, "--vars", ",".join(names), "--rational", poly_text(f1, names), poly_text(f2, names),
            "--eigenvalues", scalar_text(r), scalar_text(s)]


def _small_exact(rng: Random, command: list[str]):
    names = NAMES[:3]
    extra = ["--degree", "3", "--quotient"] if command[0] == "deform" else []
    return [*command, "--vars", ",".join(names), "--exact", poly_text(_sparse_poly(rng, 3, 3), names), *extra]


SMALL_JOBS = (
    ("check", _small_check, VERDICT),
    ("check", _small_check, VERDICT),
    ("projectivize", _small_projectivize, OK),
    ("decompose", _small_decompose, OK),
    ("verify-dicritical", _small_dicritical, OK),
    ("verify-affine-def", _small_affine_def, OK),
    ("verify-rational", lambda rng: _small_rational(rng, ["verify", "rational"]), VERDICT),
    ("verify-exact", lambda rng: _small_exact(rng, ["verify", "exact"]), VERDICT),
    ("deform", lambda rng: _small_rational(rng, ["deform"]), OK),
    ("deform", lambda rng: _small_exact(rng, ["deform"]), OK),
)


def small_round(rng: Random):
    return [(kind, make(rng), expect) for kind, make, expect in SMALL_JOBS]


_ROUNDS = {"structured": structured_round, "dense": dense_round, "small": small_round}


def round_jobs(workload: str, seed: int, k: int) -> list[Job]:
    """The jobs of round ``k``; a pure function of its arguments."""
    rng = Random(f"{workload}:{seed}:{k}")
    return [
        Job(workload, k, index, kind, tuple(argv), expect)
        for index, (kind, argv, expect) in enumerate(_ROUNDS[workload](rng))
    ]


# Tiny jobs over every subcommand, run before timing so that lazy set-up
# (argparse, regex compilation, imports inside functions) is done.
WARMUP = (
    ("check", "--vars", "x,y,z", "--logarithmic", "x", "y", "z", "--eigenvalues", "1", "2", "5", "--seed", "7"),
    ("deform", "--vars", "x,y,z", "--exact", "x^3 + y^3 + z^3", "--degree", "3", "--quotient"),
    ("relcohom", "--vars", "x,y,z", "--rational", "x", "y", "--eigenvalues", "1", "2", "--degree", "2"),
    ("projectivize", "--vars", "x,y,z", "--rational", "x", "y", "--eigenvalues", "1", "2"),
    ("verify", "logarithmic", "--vars", "x,y,z", "--logarithmic", "x", "y", "z", "--eigenvalues", "1", "2", "5"),
    ("verify", "coro1", "--vars", "x,y,z", "--rational", "x", "y", "--eigenvalues", "1", "2"),
    ("verify", "affine-def", "--vars", "x,y,z", "--rational", "x", "y", "--eigenvalues", "1", "2", "--eta", "x*dx"),
    ("verify", "dicritical", "--vars", "x,y,z", "--form", "x*dy - y*dx", "--eta", "y*dx + x*dy",
     "--factors", "x", "y", "--mults", "1", "1"),
    ("decompose", "--vars", "x,y,z", "--form", "x*dy - y*dx", "--factors", "x", "y", "--mults", "1", "1"),
)
