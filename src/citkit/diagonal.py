"""Deterministic zeroness for sums of powers of one sparse polynomial.

For f = sum(g^{d_i}) the Galois orbit of g(zeta_n) is explored under the
multipliers up to a generator bound G(n); more than max(d_i) distinct
conjugates certifies nonzeroness outright.  Otherwise the value's degree
is at most d, a separation bound for nonzero algebraic integers of that
degree and height applies, and one rigorous numeric evaluation against
the bound decides.  Zero verdicts from the numeric branch depend on the
generator bound covering Z_n^* (a GRH-backed choice) and are flagged.

Also houses the power-of-linear-form duality expansion and Kronecker
substitution used to reduce multivariate identity testing to this shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .circuit import SparsePoly
from .ffcit import Verdict
from .numeric import BallComplex, refine, render_root_sum
from .numutil import ceil_log2
from .sparse import conjugates_equal


@dataclass(frozen=True)
class DiagonalInstance:
    g: SparsePoly
    powers: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not self.powers or any(d < 1 for d in self.powers):
            raise ValueError("powers must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def max_power(self) -> int:
        return max(self.powers)

    @property
    def coeff_l1(self) -> int:
        return sum(abs(c) for c, _ in self.g.terms)


@dataclass(frozen=True)
class SeparationBound:
    """log2 of a lower bound for |f(zeta_n)| when nonzero (degree <= d)."""

    log2_eps: int


@dataclass(frozen=True)
class OrbitResult:
    exceeded: bool
    representatives: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class DiagonalResult:
    verdict: Verdict
    grh_conditional: bool
    orbit_exceeded: bool


@dataclass(frozen=True)
class DualityTerm:
    beta: Fraction
    alphas: tuple[Fraction, ...]
    power: int


def generator_bound(n: int, multiplier: float = 3, heuristic: bool = False) -> int:
    """Multiplier bound G such that units up to G should generate Z_n^*.

    Default: max(16, ceil(multiplier * log2(n)^2)).  The heuristic mode
    uses log2(n) * ln(ln n) instead.
    """
    if n < 3:
        raise ValueError("generator bound needs n >= 3")
    if heuristic:
        return max(16, math.ceil(math.log2(n) * math.log(math.log(n))))
    return max(16, math.ceil(multiplier * math.log2(n) ** 2))


def orbit(instance: DiagonalInstance, bound: int) -> OrbitResult:
    """BFS orbit of g(zeta_n) under units k <= bound, capped at max_power.

    Classes are value-equality classes of conjugates, decided exactly by
    the sparse engine (with a cheap canonical-term shortcut); returns
    early with exceeded=True once more than max(d_i) classes exist.
    """
    n = instance.n
    d = instance.max_power
    g = instance.g.reduce_exponents(n)
    if n <= 2 or g.is_zero():
        return OrbitResult(False, (1 % n or 1,))

    def canon(a: int):
        return g.substitute_power(a).reduce_exponents(n).terms

    gens = [k for k in range(2, min(bound, n - 1) + 1) if math.gcd(k, n) == 1]
    classes: list[list] = [[1, canon(1)]]
    frontier = [0]
    while frontier:
        nxt = []
        for ci in frontier:
            rep = classes[ci][0]
            for k in gens:
                b = rep * k % n
                key = canon(b)
                found = None
                for idx, (r, ckey) in enumerate(classes):
                    if ckey == key or conjugates_equal(g, n, b, r):
                        found = idx
                        break
                if found is None:
                    classes.append([b, key])
                    if len(classes) > d:
                        return OrbitResult(True, ())
                    nxt.append(len(classes) - 1)
                elif b < classes[found][0]:
                    classes[found][0] = b
        frontier = nxt
    return OrbitResult(False, tuple(sorted(c[0] for c in classes)))


def separation_bound(instance: DiagonalInstance) -> SeparationBound:
    """Outward-rounded log2 of 2 / (d^(d+1) * H^d), H = 2^d * s * M^d.

    Only the exponent is ever materialized; the true bound is at least
    2^log2_eps.
    """
    d = instance.max_power
    s = len(instance.powers)
    m1 = max(instance.coeff_l1, 1)
    height = (1 << d) * s * m1**d
    return SeparationBound(1 - (d + 1) * ceil_log2(max(d, 1)) - d * ceil_log2(height))


def _ball_pow(base, k: int, prec: int):
    acc = kernels.ball_make(1, 0, 0, 0)
    while k:
        if k & 1:
            acc = kernels.ball_mul(acc, base, prec)
        base = kernels.ball_mul(base, base, prec)
        k >>= 1
    return acc


def _eval_f_ball(instance: DiagonalInstance, bits: int) -> BallComplex:
    g = instance.g.reduce_exponents(instance.n)
    gball = render_root_sum(instance.n, [(c, k) for c, k in g.terms], bits)
    prec = bits + 32
    packed = gball.packed()
    acc = kernels.ball_make(0, 0, 0, 0)
    for d in instance.powers:
        acc = kernels.ball_add(acc, _ball_pow(packed, d, prec), prec)
    return BallComplex.from_packed(acc)


@dataclass(frozen=True)
class DiagonalConfig:
    multiplier: float = 3
    heuristic: bool = False


def diagonal_cit(
    instance: DiagonalInstance, config: DiagonalConfig | None = None
) -> DiagonalResult:
    """Orbit cap then rigorous numeric thresholding against the separation bound."""
    config = config or DiagonalConfig()
    n = instance.n
    g = instance.g.reduce_exponents(n)
    if g.is_zero():
        return DiagonalResult(Verdict.ZERO, False, False)
    if n <= 2:
        # zeta_n is rational; evaluate exactly
        root = 1 if n == 1 else -1
        gval = sum(c * root**k for c, k in g.terms)
        fval = sum(gval**d for d in instance.powers)
        verdict = Verdict.ZERO if fval == 0 else Verdict.NONZERO
        return DiagonalResult(verdict, False, False)
    orb = orbit(instance, generator_bound(n, config.multiplier, config.heuristic))
    if orb.exceeded:
        return DiagonalResult(Verdict.NONZERO, False, True)
    sep = separation_bound(instance)
    # magnitude headroom: |f| <= s * M^d
    mag = ceil_log2(len(instance.powers) * max(instance.coeff_l1, 1) ** instance.max_power) + 1
    bits = -sep.log2_eps + mag + 64
    ball = refine(
        lambda b: _eval_f_ball(instance, b), bits, 2 * bits, sep.log2_eps - 2
    )
    if ball.mid_abs_lt_pow2(sep.log2_eps - 1):
        return DiagonalResult(Verdict.ZERO, True, False)
    return DiagonalResult(Verdict.NONZERO, False, False)


def _lagrange_top_weights(nodes: list[Fraction], target: int) -> list[Fraction]:
    """Coefficient of z^target in each Lagrange basis polynomial."""
    full = [Fraction(1)]
    for x in nodes:
        full = [
            (full[i - 1] if i else Fraction(0)) - x * (full[i] if i < len(full) else Fraction(0))
            for i in range(len(full) + 1)
        ]
    weights = []
    for i, xi in enumerate(nodes):
        # numerator = full / (z - xi), synthetic division top-down
        num: list[Fraction] = []
        acc = Fraction(0)
        for c in reversed(full):
            acc = c + acc * xi
            num.append(acc)
        num = num[:-1]  # final acc is the (zero) remainder
        num.reverse()
        denom = Fraction(1)
        for t, xt in enumerate(nodes):
            if t != i:
                denom *= xi - xt
        weights.append(num[target] / denom)
    return weights


def duality_expand(coeffs, d: int) -> list[DualityTerm]:
    """Rewrite (a_1 u_1 + ... + a_m u_m)^d as a combination of products
    of shifted single variables, prod_r (u_r + alpha_ir)^j.

    Interpolation nodes are 0, 1, ..., m*d; requires every a_r nonzero.
    """
    a = [Fraction(x) for x in coeffs]
    m = len(a)
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if any(x == 0 for x in a):
        raise ValueError("drop zero-coefficient variables first")
    nodes = [Fraction(i) for i in range(m * d + 1)]
    weights = _lagrange_top_weights(nodes, (m - 1) * d)
    prod_a = Fraction(1)
    for x in a:
        prod_a *= x
    out = []
    for i, xi in enumerate(nodes):
        wi = weights[i]
        if wi == 0:
            continue
        alphas = tuple(xi / ar for ar in a)
        for j in range(d + 1):
            beta = wi * math.comb(d, j) * (-(xi**m)) ** (d - j) * prod_a**j
            if beta != 0:
                out.append(DualityTerm(beta, alphas, j))
    return out


def kronecker_substitute(terms, bound: int) -> SparsePoly:
    """Map x_r -> x^(bound^(r-1)); injective while every degree < bound."""
    out = []
    for c, exps in terms:
        k = 0
        scale = 1
        for e in exps:
            if not 0 <= e < bound:
                raise ValueError("individual degree bound violated")
            k += e * scale
            scale *= bound
        out.append((c, k))
    return SparsePoly.from_terms(out)


def parse_diagonal(text: str) -> DiagonalInstance:
    """Parse the diagonal instance file format.

    Header line ``n <int>``, a ``g:`` section of ``coeff exponent`` lines,
    then ``powers: d1 d2 ...`` with each d_i validated against the file
    length (the powers are promised in unary).
    """
    n: int | None = None
    terms: list[tuple[int, int]] = []
    powers: list[int] | None = None
    in_g = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n ") or line == "n":
            n = int(line.split()[1])
            in_g = False
        elif line == "g:":
            in_g = True
        elif line.startswith("powers:"):
            powers = [int(t) for t in line[len("powers:") :].split()]
            in_g = False
        elif in_g:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'coeff exponent'")
            terms.append((int(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None or powers is None:
        raise ValueError("diagonal file needs an n header and a powers line")
    limit = len(text)
    for dpow in powers:
        if dpow < 1 or dpow > limit:
            raise ValueError("powers must be positive and at most the file length")
    return DiagonalInstance(SparsePoly.from_terms(terms), tuple(powers), n)
