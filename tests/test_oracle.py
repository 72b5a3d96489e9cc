import math
import random
from fractions import Fraction

import pytest

from citkit import oracle
from citkit.circuit import ProblemInstance, circuit_from_sparse
from citkit.kernels import poly_mul
from citkit.numutil import divisors, euler_phi
from citkit.oracle import (
    CapExceeded,
    CycloElem,
    all_conjugate_values,
    conjugate,
    cyclotomic_poly,
    eval_circuit_exact,
    norm,
    reduce_poly,
    resultant,
    root_power,
)

from conftest import phi_circuit, sparse_of_dense


def test_cyclotomic_known_values():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_degree_is_phi():
    for n in range(1, 80):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)


def test_product_identity():
    for n in (1, 2, 6, 12, 30, 36, 100, 128):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, cyclotomic_poly(n=d))
        expect = [0] * (n + 1)
        expect[0], expect[n] = -1, 1
        assert prod == expect


def test_cap():
    with pytest.raises(CapExceeded):
        cyclotomic_poly(257, cap=16)
    assert len(cyclotomic_poly(257, cap=256)) == 257


def test_reduce_examples():
    assert reduce_poly([1, 1, 1], 3).is_zero()
    assert reduce_poly([1, 0, -1, 0, 1], 12).is_zero()
    assert reduce_poly([0, 0, 1], 4).coeffs == (-1, 0)


def test_eval_circuit_exact():
    assert not eval_circuit_exact(phi_circuit(6), 12).is_zero()
    assert eval_circuit_exact(phi_circuit(12), 12).is_zero()


def test_exponents_reduced_mod_n():
    big = circuit_from_sparse(
        sparse_of_dense([0]).from_terms([(1, 2**30), (-1, 2**30 % 12)])
    )
    assert eval_circuit_exact(big, 12).is_zero()


def test_conjugate_examples():
    assert conjugate(root_power(4, 1), 3).coeffs == (0, -1)
    elem = reduce_poly([3, -2, 1], 7)
    assert conjugate(elem, 1) == elem
    with pytest.raises(ValueError):
        conjugate(elem, 7)


def test_conjugate_group_action():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice([5, 7, 8, 9, 12, 15])
        elem = reduce_poly([rng.randrange(-5, 6) for _ in range(n)], n)
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        a, b = rng.choice(units), rng.choice(units)
        assert conjugate(conjugate(elem, a), b) == conjugate(elem, a * b % n)


def test_norm_examples():
    assert norm(CycloElem(4, (1, 1))) == 2  # (1+i)(1-i)
    assert norm(oracle.zero_elem(9)) == 0
    assert norm(oracle.from_int(3, 2)) == 4  # 2^phi(3)


def test_norm_multiplicative():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.choice([5, 7, 8, 12])
        a = reduce_poly([rng.randrange(-3, 4) for _ in range(n)], n)
        b = reduce_poly([rng.randrange(-3, 4) for _ in range(n)], n)
        assert norm(a * b) == norm(a) * norm(b)


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant; reference for the resultant."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det(rows)


def test_resultant_against_sylvester():
    rng = random.Random(3)
    for _ in range(60):
        f = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 7))]
        g = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 7))]
        if not any(f) or not any(g) or f[-1] == 0 or g[-1] == 0:
            continue
        assert resultant(f, g) == _sylvester_resultant(f, g)


def test_resultant_worked_case_root_product():
    """res(5x - 1, 5x^3 - 4x^2 - 3x - 1) = 5^3 g(1/5) = -215.

    Coefficient lists run from the constant term up.  sympy 1.14 gives +215
    for both argument orders, which cannot both hold, since
    res(f, g) = (-1)^(deg f deg g) res(g, f); the Sylvester determinant and
    the root-product formula agree with citkit."""
    f, g = [-1, 5], [-1, -3, -4, 5]
    root = Fraction(1, 5)
    g_at_root = sum(Fraction(c) * root**i for i, c in enumerate(g))
    assert 5**3 * g_at_root == -215
    assert resultant(f, g) == -215 == _sylvester_resultant(f, g)
    assert resultant(g, f) == 215 == _sylvester_resultant(g, f)


def test_resultant_antisymmetry_odd_degrees():
    """Swapping two odd-degree arguments flips the sign, including the
    deg f < deg g path that swaps them internally."""
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        df = rng.choice((1, 3, 5))
        dg = rng.choice((3, 5, 7))
        if df >= dg:
            continue
        f = [rng.randrange(-5, 6) for _ in range(df)] + [rng.choice((-3, -1, 1, 2, 5))]
        g = [rng.randrange(-5, 6) for _ in range(dg)] + [rng.choice((-4, -1, 1, 3))]
        res = resultant(f, g)
        assert res == -resultant(g, f)
        assert res == _sylvester_resultant(f, g)
        checked += 1


def test_all_conjugates():
    vals = all_conjugate_values(phi_circuit(12), 12)
    assert set(vals) == {1, 5, 7, 11}
    assert all(v.is_zero() for v in vals.values())
    x = circuit_from_sparse(sparse_of_dense([0, 1]))
    vals = all_conjugate_values(x, 5)
    assert len({v.coeffs for v in vals.values()}) == 4
    const = circuit_from_sparse(sparse_of_dense([7]))
    vals = all_conjugate_values(const, 8)
    assert all(v.coeffs[0] == 7 and not any(v.coeffs[1:]) for v in vals.values())


def test_norm_bound(fixture_suite):
    """|N(value)| stays below 2^(2^(2s)), compared via bit lengths."""
    for inst, _ in fixture_suite[:12]:
        if euler_phi(inst.n) > 32:
            continue
        val = eval_circuit_exact(inst.circuit, inst.n)
        bits = abs(norm(val)).bit_length()
        assert bits <= (1 << (2 * inst.s)) + 1


def _primitive_roots_in_fp(p: int, n: int) -> list[int]:
    """All elements of order n in F_p^*, via one brute-force generator."""
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            gen = g
            break
    return [pow(gen, k * (p - 1) // n, p) for k in range(n) if math.gcd(k, n) == 1]


@pytest.mark.parametrize("n", [6, 12])
def test_soundness_sweep(n):
    """Zero values reduce to zero at every primitive root in every F_p,
    and zero residues of nonzero values mark primes dividing the norm."""
    from citkit.ffcit import eval_circuit_mod

    zero_c = phi_circuit(n)
    nonzero_c = phi_circuit(6 if n == 12 else 3)
    nz_val = eval_circuit_exact(nonzero_c, n)
    nz_norm = norm(nz_val)
    assert nz_norm != 0
    for p in range(2, 400):
        if (p - 1) % n != 0 or not all(p % q for q in range(2, int(p**0.5) + 1)):
            continue
        for omega in _primitive_roots_in_fp(p, n):
            assert eval_circuit_mod(zero_c, p, omega) == 0
            if eval_circuit_mod(nonzero_c, p, omega) == 0:
                assert nz_norm % p == 0
