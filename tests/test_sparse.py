import math
import random
from fractions import Fraction

import pytest

from citkit import oracle
from citkit.circuit import SparsePoly, circuit_from_sparse
from citkit.ffcit import Verdict
from citkit.sparse import (
    RationalSubspace,
    collapse_map,
    conjugates_equal,
    hadamard_product,
    orth_complement,
    partial_factor,
    sparse_cit,
    vanish_space,
    vanish_space_prime_power,
    vanish_space_residual,
)

from conftest import phi_poly, random_sparse, random_zero_sparse


def space(ambient, vecs):
    return RationalSubspace.from_vectors(ambient, vecs)


def test_partial_factor():
    assert partial_factor(12, 3) == partial_factor(12, 3)
    pf = partial_factor(12, 3)
    assert pf.small == ((2, 2), (3, 1)) and pf.residual == 1
    pf = partial_factor(35, 3)
    assert pf.small == () and pf.residual == 35
    pf = partial_factor(60, 3)
    assert pf.small == ((2, 2), (3, 1)) and pf.residual == 5
    assert pf.product() == 60


def test_collapse_map():
    kp, T = collapse_map((0, 1, 2), 2)
    assert kp == (0, 1)
    assert T == ((1, 0, 1), (0, 1, 0))
    kp, T = collapse_map((0, 1, 2), 100)
    assert T == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    kp, T = collapse_map((0, 7, 14), 7)
    assert kp == (0,) and T == ((1, 1, 1),)


def test_vanish_space_prime_power_examples():
    assert vanish_space_prime_power((0, 1, 2), 3, 1) == space(3, [(1, 1, 1)])
    got = vanish_space_prime_power((0, 1, 2), 2, 1)
    assert got == space(3, [(1, 0, -1), (0, 1, 1)])  # a1 + a3 = a2
    assert vanish_space_prime_power((0, 1), 5, 1).dim == 0


def test_vanish_space_residual_examples():
    assert vanish_space_residual((0, 1, 2), 35).dim == 0
    assert vanish_space_residual((0, 35), 35) == space(2, [(1, -1)])
    got = vanish_space_residual((0, 1, 2), 1)
    assert got == space(3, [(1, 0, -1), (0, 1, -1)])  # sum = 0
    with pytest.raises(ValueError):
        vanish_space_residual((0, 1, 2), 6)


def test_orth_complement():
    u = space(3, [(1, 1, 1)])
    c = orth_complement(u)
    assert c.dim == 2
    assert all(sum(v) == 0 for v in c.basis)
    assert orth_complement(space(3, [])).dim == 3
    assert orth_complement(c) == u  # involution up to canonical basis


def test_hadamard_examples():
    u = space(3, [(1, -1, 1)])
    v = space(3, [(1, -1, 0), (0, 1, -1)])
    assert hadamard_product(u, v) == space(3, [(1, 1, 0), (0, -1, -1)])
    ones = space(3, [(1, 1, 1)])
    w = space(3, [(2, 0, 1), (0, 1, 5)])
    assert hadamard_product(w, ones) == w
    assert hadamard_product(w, RationalSubspace.zero(3)).dim == 0
    with pytest.raises(ValueError):
        hadamard_product(space(2, [(1, 1)]), ones)


def test_hadamard_assoc_comm():
    rng = random.Random(8)
    for _ in range(15):
        amb = rng.randrange(2, 5)
        mk = lambda: space(
            amb,
            [
                [rng.randrange(-3, 4) for _ in range(amb)]
                for _ in range(rng.randrange(1, 3))
            ],
        )
        u, v, w = mk(), mk(), mk()
        assert hadamard_product(u, v) == hadamard_product(v, u)
        assert hadamard_product(hadamard_product(u, v), w) == hadamard_product(
            u, hadamard_product(v, w)
        )


def test_vanish_space_examples():
    assert vanish_space(6, (0, 1, 2)) == space(3, [(1, -1, 1)])
    assert vanish_space(5, (0, 1, 2, 3, 4)) == space(5, [(1, 1, 1, 1, 1)])
    assert vanish_space(35, (0, 1, 2)).dim == 0
    with pytest.raises(ValueError):
        vanish_space(6, (0, 0, 1))


def test_vanish_space_dim_complement():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randrange(2, 100)
        s = rng.randrange(1, 7)
        k = tuple(sorted(rng.sample(range(n), min(s, n))))
        v = vanish_space(n, k)
        assert v.dim + orth_complement(v).dim == len(k)


def _reference_rref(rows: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Textbook Gauss-Jordan over Fraction, pivots scaled to 1; the reference
    the integer elimination in citkit.sparse is checked against."""
    if not rows:
        return ()
    ncols = len(rows[0])
    rows = [[Fraction(x) for x in r] for r in rows]
    lead = 0
    for col in range(ncols):
        best = None
        for r in range(lead, len(rows)):
            x = rows[r][col]
            if x and (best is None or abs(x.numerator) > abs(rows[best][col].numerator)):
                best = r
        if best is None:
            continue
        rows[lead], rows[best] = rows[best], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [x / pv for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return tuple(tuple(r) for r in rows[:lead])


def _lead(row) -> int:
    return next(i for i, x in enumerate(row) if x)


def _reference_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} read off the reference RREF."""
    R = _reference_rref(rows)
    pivots = {_lead(row): row for row in R}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for pc, row in pivots.items():
            v[pc] = -row[free]
        basis.append(v)
    return basis


def _in_reference_span(v, R) -> bool:
    v = [Fraction(x) for x in v]
    for row in R:
        f = v[_lead(row)]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def _oracle_kernel(n: int, k: tuple[int, ...]) -> RationalSubspace:
    """Independent kernel: embed each zeta_n^{k_i} in the power basis and
    solve the rational linear system with the reference elimination."""
    cols = [oracle.root_power(n, ki, cap=256).coeffs for ki in k]
    rows = [[Fraction(cols[j][i]) for j in range(len(k))] for i in range(len(cols[0]))]
    return RationalSubspace.from_vectors(len(k), _reference_kernel(rows, len(k)))


def _random_matrix(rng: random.Random) -> tuple[int, list[list[int]]]:
    """Integer or 0/+-1 rows, often rank-deficient, sometimes with zero rows."""
    ncols = rng.randrange(1, 9)
    entries = (-1, 0, 0, 1) if rng.random() < 0.5 else range(-6, 7)
    rows = [
        [rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randrange(0, 7))
    ]
    for _ in range(rng.randrange(0, 3)):
        if len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            x, y = rng.randrange(-3, 4), rng.randrange(-3, 4)
            rows.append([x * p + y * q for p, q in zip(a, b)])
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    rng.shuffle(rows)
    return ncols, rows


def test_from_vectors_matches_reference_rref():
    rng = random.Random(41)
    deficient = 0
    for _ in range(300):
        ncols, rows = _random_matrix(rng)
        got = RationalSubspace.from_vectors(ncols, rows)
        ref = _reference_rref(rows)
        deficient += len(ref) < len(rows)
        assert got.dim == len(ref)
        # mutual containment
        assert all(_in_reference_span(row, ref) for row in got.basis)
        assert all(got.contains(row) for row in ref)
        # the integer basis is the reference RREF, rows made primitive with
        # a positive pivot
        for g, r in zip(got.basis, ref):
            pc = _lead(g)
            assert all(type(x) is int for x in g)
            assert g[pc] > 0 and math.gcd(*g) == 1
            assert [Fraction(x, g[pc]) for x in g] == list(r)
    assert deficient > 100


def test_kernel_correctness_random():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(2, 129)
        s = rng.randrange(1, 7)
        k = tuple(sorted(rng.sample(range(n), min(s, n))))
        assert vanish_space(n, k) == _oracle_kernel(n, k)


def test_span_identity_on_coprime_splits():
    """Complement of the composite space equals the product of the factor
    complements, on coprime factorizations n = n1 * n2."""
    rng = random.Random(23)
    for n1, n2 in ((4, 9), (8, 3), (5, 4), (9, 8), (7, 4)):
        n = n1 * n2
        for _ in range(6):
            s = rng.randrange(1, 6)
            k = tuple(sorted(rng.sample(range(n), s)))
            left = orth_complement(_oracle_kernel(n, k))
            right = hadamard_product(
                orth_complement(_oracle_kernel(n1, k)),
                orth_complement(_oracle_kernel(n2, k)),
            )
            assert left == right


def test_sparse_cit_examples():
    phi6 = phi_poly(6)
    assert sparse_cit(phi6, 6) is Verdict.ZERO
    assert sparse_cit(phi6, 12) is Verdict.NONZERO
    for n in (4, 10, 36):
        f = SparsePoly(((1, 0), (1, n // 2)))
        assert sparse_cit(f, n) is Verdict.ZERO
    assert sparse_cit(SparsePoly(()), 9) is Verdict.ZERO


def test_sparse_cit_oracle_agreement():
    from conftest import SMALL_PHI_N

    rng = random.Random(99)
    for _ in range(500):
        n = rng.randrange(1, 129)
        if rng.random() < 0.3:
            n = rng.choice(SMALL_PHI_N)
            f = random_zero_sparse(rng, n)
        else:
            f = random_sparse(rng, max(n, 2), 8)
        expected = Verdict.ZERO
        if not f.is_zero():
            c = circuit_from_sparse(f)
            expected = (
                Verdict.ZERO
                if oracle.eval_circuit_exact(c, n, cap=256).is_zero()
                else Verdict.NONZERO
            )
        assert sparse_cit(f, n) is expected


def test_conjugates_equal():
    x = SparsePoly(((1, 1),))
    assert conjugates_equal(x, 5, 2, 2)
    assert not conjugates_equal(x, 5, 1, 2)
    g = SparsePoly(((1, 1), (1, 4)))
    assert conjugates_equal(g, 5, 1, 4)
    with pytest.raises(ValueError):
        conjugates_equal(x, 6, 2, 1)


def test_conjugates_equal_matches_oracle():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(3, 40)
        g = random_sparse(rng, n, 4)
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        l, j = rng.choice(units), rng.choice(units)
        c = circuit_from_sparse(g)
        base = oracle.eval_circuit_exact(c, n)
        expected = oracle.conjugate(base, l) == oracle.conjugate(base, j)
        assert conjugates_equal(g, n, l, j) == expected


def test_large_coset_sum_verdicts_by_construction():
    """s ~ 160 at n = 30030 = 2*3*5*7*11*13: a sum of p-cosets
    {a + j n/p}, each with one coefficient, vanishes; one more term c x^k on
    an unused exponent makes it nonzero."""
    n = 30030
    rng = random.Random(160)
    acc: dict[int, int] = {}
    while len(acc) < 160:
        p = rng.choice((2, 3, 5, 7, 11, 13))
        a, c = rng.randrange(n // p), rng.choice((-3, -2, -1, 1, 2, 3))
        for j in range(p):
            acc[a + j * (n // p)] = acc.get(a + j * (n // p), 0) + c
    f = SparsePoly.from_terms((c, k) for k, c in acc.items())
    assert len(f.terms) >= 150
    assert sparse_cit(f, n) is Verdict.ZERO
    k = rng.choice([k for k in range(n) if k not in acc])
    g = SparsePoly.from_terms(list(f.terms) + [(rng.choice((-1, 1, 5)), k)])
    assert len(g.terms) == len(f.terms) + 1
    assert sparse_cit(g, n) is Verdict.NONZERO
