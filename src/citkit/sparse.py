"""Exact, deterministic zeroness for sparse polynomials at zeta_n.

Works entirely with the s-dimensional space of vanishing coefficient
vectors {a : sum a_i zeta_n^{k_i} = 0}.  The order n is split into primes
at most s and a residual with only larger prime factors.  The orthogonal
complement of each factor's vanishing space is the row space of explicit
0/+-1 constraint rows on the s coordinates; the complement of the full
space is the coordinatewise (Hadamard) product of these row spaces, and one
orthogonal complement at the end gives the vanishing space itself.

Every vector involved is integral, so the linear algebra is fraction-free
Gauss-Jordan elimination over the integers: rows are combined by
cross-multiplying with the pivots divided by their gcd, and each new row is
divided by its content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .circuit import SparsePoly
from .ffcit import Verdict
from .numutil import primes_upto


@dataclass(frozen=True)
class RationalSubspace:
    """Subspace of Q^s held by its canonical integer basis.

    The basis is the reduced row echelon form with each row scaled to a
    primitive integer vector whose pivot is positive, so two subspaces are
    equal exactly when their bases are.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "RationalSubspace":
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, _rref(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "RationalSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "RationalSubspace":
        eye = (
            tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)
        )
        return cls(ambient_dim, tuple(eye))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        v = _integer_row(vector)
        for row in self.basis:
            pc = _pivot(row)
            if v[pc]:
                v = _eliminate(v, row, pc)
        return not any(v)


@dataclass(frozen=True)
class PartialFactorization:
    """n = prod(p^e for small factors) * residual, residual's factors > s."""

    small: tuple[tuple[int, int], ...]
    residual: int

    def product(self) -> int:
        out = self.residual
        for p, e in self.small:
            out *= p**e
        return out


def _pivot(row) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise ValueError("zero row in basis")


def _integer_row(v) -> list[int]:
    """v scaled by a positive integer that clears its denominators."""
    v = list(v)
    if set(map(type, v)) <= {int}:
        return v
    q = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in q))
    return [int(x * den) for x in q]


def _eliminate(w: list[int], row, pc: int) -> list[int]:
    """w with column pc cleared by the row whose pivot (> 0) sits there.

    Cross-multiplies by the pivot and w[pc] over their gcd, so w keeps the
    sign of its other entries, then divides by the content.
    """
    d, x = row[pc], w[pc]
    g = math.gcd(d, x)
    a, b = d // g, x // g
    out = [a * u - b * t for u, t in zip(w, row)]
    c = math.gcd(*out)
    return [u // c for u in out] if c > 1 else out


def _rref(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the row span, by fraction-free Gauss-Jordan.

    Rows are inserted one at a time: each is reduced by the pivot rows so
    far, made primitive with a positive pivot, and then cleared from the
    column of its pivot in every earlier row.  Rational entries are scaled
    to integers once, on entry.
    """
    pivots: dict[int, list[int]] = {}
    for v in rows:
        if not any(v):
            continue
        v = _integer_row(v)
        for pc, row in pivots.items():
            if v[pc]:
                v = _eliminate(v, row, pc)
        if not any(v):
            continue
        pc = _pivot(v)
        c = math.gcd(*v) if v[pc] > 0 else -math.gcd(*v)
        v = [x // c for x in v]
        for q, row in list(pivots.items()):
            if row[pc]:
                pivots[q] = _eliminate(row, v, pc)
        pivots[pc] = v
        if len(pivots) == len(v):
            break
    return tuple(tuple(pivots[pc]) for pc in sorted(pivots))


def partial_factor(n: int, s: int) -> PartialFactorization:
    """Trial-divide n by every prime <= s."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    small = []
    m = n
    for p in primes_upto(s):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            small.append((p, e))
    return PartialFactorization(tuple(small), m)


def collapse_map(k, modulus: int):
    """Distinct residues of k mod modulus plus the 0/1 summation matrix.

    Returns (k_prime, T) where T is t x s with T[i][j] = 1 iff
    k[j] = k_prime[i] (mod modulus).
    """
    residues = [ki % modulus for ki in k]
    k_prime = tuple(sorted(set(residues)))
    index = {r: i for i, r in enumerate(k_prime)}
    T = [[0] * len(k) for _ in k_prime]
    for j, r in enumerate(residues):
        T[index[r]][j] = 1
    return k_prime, tuple(tuple(row) for row in T)


def _prime_power_rows(k, p: int, e: int) -> list[list[int]]:
    """0/+-1 rows spanning the orthogonal complement of the p^e vanishing space.

    A vector vanishes at zeta_{p^e} exactly when, on the residues mod p^e,
    its class sums agree within each class mod p^{e-1} and are zero on
    classes with fewer than p residues.  Each row is one such condition,
    written on the original coordinates.
    """
    modulus = p**e
    classes: dict[int, dict[int, list[int]]] = {}
    for j, kj in enumerate(k):
        r = kj % modulus
        classes.setdefault(r % (modulus // p), {}).setdefault(r, []).append(j)
    rows = []
    for residues in classes.values():
        groups = list(residues.values())
        if len(groups) < p:
            pairs = [(g, ()) for g in groups]
        else:
            pairs = [(groups[0], g) for g in groups[1:]]
        for plus, minus in pairs:
            row = [0] * len(k)
            for j in plus:
                row[j] = 1
            for j in minus:
                row[j] = -1
            rows.append(row)
    return rows


def vanish_space_prime_power(k, p: int, e: int) -> RationalSubspace:
    """Vanishing space of (zeta_{p^e}^{k_i}) as a subspace of Q^len(k)."""
    rows = _prime_power_rows(k, p, e)
    return orth_complement(RationalSubspace.from_vectors(len(k), rows))


def vanish_space_residual(k, m: int) -> RationalSubspace:
    """Vanishing space for modulus m, all of whose prime factors exceed len(k).

    Coordinates congruent mod m must sum to zero, so the complement is the
    row space of the collapse map; raises if the precondition on m's
    factors fails.
    """
    for p in primes_upto(len(k)):
        if m % p == 0:
            raise ValueError(f"residual has small prime factor {p}")
    _, T = collapse_map(k, m)
    return orth_complement(RationalSubspace.from_vectors(len(k), T))


def orth_complement(space: RationalSubspace) -> RationalSubspace:
    """Exact orthogonal complement; dims add up to the ambient dimension.

    Each non-pivot column f of the canonical basis gives one kernel vector:
    L at f and -row[f] * L / row[pc] at each pivot pc, where L is the lcm of
    the pivots it needs.
    """
    s = space.ambient_dim
    if space.dim == 0:
        return RationalSubspace.full(s)
    pivots = {_pivot(row): row for row in space.basis}
    vectors = []
    for free in range(s):
        if free in pivots:
            continue
        used = [(pc, row) for pc, row in pivots.items() if row[free]]
        lcm = math.lcm(*(row[pc] for pc, row in used))
        v = [0] * s
        v[free] = lcm
        for pc, row in used:
            v[pc] = -row[free] * (lcm // row[pc])
        vectors.append(v)
    return RationalSubspace.from_vectors(s, vectors)


def hadamard_product(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    """Span of coordinatewise products of basis vectors."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    prods = [
        [a * b for a, b in zip(bu, bv)] for bu in u.basis for bv in v.basis
    ]
    if not prods:
        return RationalSubspace.zero(u.ambient_dim)
    return RationalSubspace.from_vectors(u.ambient_dim, prods)


def vanish_space(n: int, k) -> RationalSubspace:
    """The space {a in Q^s : sum a_i zeta_n^{k_i} = 0}.

    Its complement is the Hadamard product of the factors' complements,
    each the row space of its constraint rows, so a single orthogonal
    complement finishes; exponents must be strictly increasing within
    [0, n).
    """
    k = tuple(k)
    s = len(k)
    if s == 0:
        return RationalSubspace.zero(0)
    if any(not 0 <= ki < n for ki in k) or any(a >= b for a, b in zip(k, k[1:])):
        raise ValueError("exponents must be strictly increasing in [0, n)")
    pf = partial_factor(n, s)
    rows = [_prime_power_rows(k, p, e) for p, e in pf.small]
    rows.append(collapse_map(k, pf.residual)[1])
    prod = RationalSubspace.from_vectors(s, rows[0])
    for r in rows[1:]:
        prod = hadamard_product(prod, RationalSubspace.from_vectors(s, r))
    return orth_complement(prod)


def sparse_cit(f: SparsePoly, n: int) -> Verdict:
    """Exact zeroness of f(zeta_n) for a sparse polynomial f."""
    g = f.reduce_exponents(n)
    if g.is_zero():
        return Verdict.ZERO
    coeffs = [c for c, _ in g.terms]
    exps = [k for _, k in g.terms]
    space = vanish_space(n, exps)
    return Verdict.ZERO if space.contains(coeffs) else Verdict.NONZERO


def conjugates_equal(g: SparsePoly, n: int, l: int, j: int) -> bool:
    """Whether g(zeta_n^l) = g(zeta_n^j) for unit exponents l, j."""
    if math.gcd(l, n) != 1 or math.gcd(j, n) != 1:
        raise ValueError("conjugate exponents must be coprime to n")
    diff = g.substitute_power(l) - g.substitute_power(j)
    return sparse_cit(diff, n) is Verdict.ZERO
