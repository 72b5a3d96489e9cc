import math
import random
from fractions import Fraction

import mpmath
import pytest

from citkit import numeric, oracle
from citkit.circuit import (
    Circuit,
    CircuitKind,
    InputGate,
    ProductGate,
    SparsePoly,
    SumGate,
    circuit_from_sparse,
    classify,
)
from citkit.ffcit import Verdict
from citkit.numeric import (
    BallComplex,
    PrecisionBudget,
    approx_pi,
    approx_root_of_unity,
    cit_numeric,
    eval_circuit_ball,
    refine,
    render_root_sum,
    run_numeric_trial,
    sample_conjugate_exponent,
)
from citkit.numutil import split_rng

from conftest import build_circuit_corpus, instance, phi_circuit, sparse_of_dense


def _atan_frac(invx: int, terms: int) -> tuple[Fraction, Fraction]:
    """Exact partial sum and a tail bound for arctan(1/invx)."""
    s = Fraction(0)
    x = Fraction(1, invx)
    for k in range(terms):
        s += (-1) ** k * x ** (2 * k + 1) / (2 * k + 1)
    tail = x ** (2 * terms + 1) / (2 * terms + 1)
    return s, tail


def test_pi_against_independent_series():
    """Reference: pi/4 = arctan(1/2) + arctan(1/3), summed exactly."""
    ref, tail = _atan_frac(2, 150)
    ref3, tail3 = _atan_frac(3, 150)
    ref = 4 * (ref + ref3)
    err = 4 * (tail + tail3)
    for bits in (10, 64, 200):
        ball = approx_pi(bits)
        assert ball.radius <= Fraction(1, 2**bits)
        assert abs(ball.mid_re - ref) <= ball.radius + err


def test_pi_monotone_radius():
    assert approx_pi(64).radius <= approx_pi(32).radius
    assert approx_pi(1).radius <= Fraction(1, 2)


def test_quarter_turn_roots_exact():
    for n, ell, re, im in ((1, 0, 1, 0), (4, 1, 0, 1), (2, 1, -1, 0), (4, 3, 0, -1)):
        b = approx_root_of_unity(n, ell, 50)
        assert (b.re_man, b.im_man, b.rad_man, b.exp) == (re, im, 0, 0)


@pytest.mark.parametrize("n,ell,bits", [(3, 1, 40), (7, 2, 80), (12, 5, 64), (360, 77, 100)])
def test_roots_against_mpmath(n, ell, bits):
    mpmath.mp.prec = bits + 80
    ref = mpmath.e ** (2j * mpmath.pi * ell / n)
    ball = approx_root_of_unity(n, ell, bits)
    assert ball.radius <= Fraction(1, 2**bits)
    err = abs(complex(ref) - complex(float(ball.mid_re), float(ball.mid_im)))
    assert err <= float(ball.radius) + 1e-12


def test_root_radius_guarantee_many():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randrange(2, 1000)
        ell = rng.randrange(n)
        bits = rng.choice([16, 64, 300])
        assert approx_root_of_unity(n, ell, bits).radius <= Fraction(1, 2**bits)


def test_sample_conjugate_tiny_path():
    rng = random.Random(1)
    seen = set()
    for _ in range(400):
        a = sample_conjugate_exponent(6, rng)
        assert math.gcd(a, 6) == 1
        seen.add(a)
    assert seen == {1, 5}


def test_sample_conjugate_power_of_two():
    rng = random.Random(2)
    n = 1 << 40
    for _ in range(50):
        assert sample_conjugate_exponent(n, rng) % 2 == 1


def test_sample_conjugate_acceptance_predicate_big_n():
    """Accepted values share no small prime divisor with n (direct check)."""
    n = 9699690  # 2*3*5*7*11*13*17*19
    rng = random.Random(3)
    bound = 10 * math.log2(n)
    small = [p for p in (2, 3, 5, 7, 11, 13, 17, 19) if p < bound]
    for _ in range(300):
        a = sample_conjugate_exponent(n, rng)
        assert all(a % p for p in small)


def test_eval_ball_constant():
    c = circuit_from_sparse(SparsePoly(((5, 0),)))
    ball = eval_circuit_ball(c, 7, 1, PrecisionBudget.for_size(8))
    assert (ball.re_man, ball.im_man, ball.rad_man) == (5, 0, 0)


def test_eval_ball_phi12_contains_zero():
    inst = instance(phi_circuit(12), 12)
    budget = PrecisionBudget.for_size(inst.s)
    ball = eval_circuit_ball(inst.circuit, 12, 1, budget)
    assert ball.mid_abs_lt_pow2(-budget.threshold_exponent)
    assert ball.rad_lt_pow2(-(budget.threshold_exponent + 1))


def test_radius_guarantee_on_fixtures(fixture_suite):
    for inst, _ in fixture_suite[:15]:
        from citkit.circuit import CircuitKind, classify

        if classify(inst.circuit).kind is CircuitKind.GENERAL:
            continue
        budget = PrecisionBudget.for_size(inst.s)
        a = sample_conjugate_exponent(inst.n, random.Random(0))
        ball = eval_circuit_ball(inst.circuit, inst.n, a, budget)
        assert ball.rad_lt_pow2(-(budget.threshold_exponent + 1))


def test_enclosure_soundness_all_conjugates():
    """The exact conjugate value (rendered finely) lies in every ball."""
    for n, circ in ((12, phi_circuit(6)), (9, phi_circuit(9)), (10, phi_circuit(5))):
        inst = instance(circ, n)
        budget = PrecisionBudget.for_size(inst.s)
        vals = oracle.all_conjugate_values(circ, n)
        for a, exact in vals.items():
            ball = eval_circuit_ball(circ, n, a, budget)
            pairs = [(c, k) for k, c in enumerate(exact.coeffs)]
            fine = render_root_sum(n, pairs, 4 * (4 * inst.s + 1))
            # distance between midpoints must be covered by the radii
            dre = ball.mid_re - fine.mid_re
            dim = ball.mid_im - fine.mid_im
            assert dre * dre + dim * dim <= (ball.radius + fine.radius) ** 2


def test_cit_numeric_verdicts():
    assert cit_numeric(instance(phi_circuit(12), 12), random.Random(1)) is Verdict.ZERO
    assert (
        cit_numeric(instance(phi_circuit(6), 12), random.Random(1)) is Verdict.NONZERO
    )


def test_cit_numeric_huge_exponents():
    f = SparsePoly.from_terms([(1, 2**30), (-1, 2**30 % 12)])
    inst = instance(circuit_from_sparse(f), 12)
    assert cit_numeric(inst, random.Random(2)) is Verdict.ZERO


def test_cit_numeric_rejects_general_circuits():
    from citkit.circuit import ProductGate

    gates = [InputGate(1)]
    for i in range(40):
        gates.append(ProductGate((i, i)))
    inst = instance(Circuit(tuple(gates), 40), 5)
    with pytest.raises(ValueError):
        cit_numeric(inst, random.Random(0))


def test_deterministic_replay():
    inst = instance(phi_circuit(6), 12)
    t1: list = []
    t2: list = []
    v1 = cit_numeric(inst, random.Random(42), transcript=t1)
    v2 = cit_numeric(inst, random.Random(42), transcript=t2)
    assert v1 == v2
    assert [(a, v) for a, _, v in t1] == [(a, v) for a, _, v in t2]


def test_single_trial_error_rate(fixture_suite):
    errors = total = 0
    for idx, (inst, is_zero) in enumerate(fixture_suite[:25]):
        from citkit.circuit import CircuitKind, classify

        if classify(inst.circuit).kind is CircuitKind.GENERAL:
            continue
        budget = PrecisionBudget.for_size(inst.s)
        for t in range(25):
            _, _, verdict = run_numeric_trial(inst, split_rng(500 + idx, t), budget)
            total += 1
            if (verdict is Verdict.ZERO) != is_zero:
                errors += 1
    assert total >= 400
    assert errors / total <= 0.45


def test_sample_conjugate_units_for_large_n():
    """Above 2^16 too, every sample is a unit of Z_n."""
    for n in (9699690, 2**17 * 3 * 5, 999983 * 2):
        rng = random.Random(n)
        for _ in range(200):
            assert math.gcd(sample_conjugate_exponent(n, rng), n) == 1


def _recording_leaf_bits(monkeypatch) -> list:
    bits: list = []
    inner = numeric._eval_ball_once

    def recorder(circuit, n, a, leaf_bits, prec):
        bits.append(leaf_bits)
        return inner(circuit, n, a, leaf_bits, prec)

    monkeypatch.setattr(numeric, "_eval_ball_once", recorder)
    return bits


def test_coset_zero_meets_target_far_below_worst_case(monkeypatch):
    """x^e (1 + x^10 + x^20) at n = 30 with a 46-bit e: one evaluation, at
    a small fraction of the s^2 + 5s + 1 worst-case leaf precision."""
    e = 30 * 2**40 + 7
    circ = circuit_from_sparse(SparsePoly.from_terms([(1, e), (1, e + 10), (1, e + 20)]))
    inst = instance(circ, 30)
    budget = PrecisionBudget.for_size(inst.s)
    bits = _recording_leaf_bits(monkeypatch)
    ball = eval_circuit_ball(circ, 30, 7, budget)
    assert ball.rad_lt_pow2(-(budget.threshold_exponent + 1))
    assert ball.mid_abs_lt_pow2(-budget.threshold_exponent)
    assert len(bits) == 1
    assert bits[0] < budget.eps_exponent // 8


def _power_circuit(base: int, k: int) -> Circuit:
    """(base + x)^k as k products of one sum gate."""
    gates = [InputGate(0), InputGate(1), SumGate(((base, 0), (1, 1)))]
    gates.append(ProductGate((2,) * k))
    return Circuit(tuple(gates), 3)


def test_growing_products_double_and_still_enclose(monkeypatch):
    """|(5 + x)^6| is about 2^14, so 8 leaf bits leave a radius far above
    the target and refine must double; every final ball encloses the exact
    conjugate value.  eval_circuit_ball itself starts above the growth
    (its start counts log2 of the coefficient mass) and needs one try."""
    n, circ = 7, _power_circuit(5, 6)
    inst = instance(circ, n)
    budget = PrecisionBudget.for_size(inst.s)
    target = -(budget.threshold_exponent + 1)
    s = inst.s
    bits = _recording_leaf_bits(monkeypatch)
    for a, exact in oracle.all_conjugate_values(circ, n).items():
        bits.clear()
        ball = refine(
            lambda b: BallComplex.from_packed(numeric._eval_ball_once(circ, n, a, b, b + 2 * s)),
            8,
            2 * budget.eps_exponent,
            target,
        )
        assert len(bits) >= 3 and bits[0] == 8 and bits[1] == 16
        assert ball.rad_lt_pow2(target)
        fine = render_root_sum(n, [(c, k) for k, c in enumerate(exact.coeffs)], 4 * (-target))
        dre = ball.mid_re - fine.mid_re
        dim = ball.mid_im - fine.mid_im
        assert dre * dre + dim * dim <= (ball.radius + fine.radius) ** 2
        bits.clear()
        eval_circuit_ball(circ, n, a, budget)
        assert len(bits) == 1


def test_refine_raises_at_cap():
    with pytest.raises(numeric.PrecisionExhausted):
        refine(lambda b: BallComplex(0, 0, 1, 0), 8, 64, -10)


def test_numeric_verdicts_match_oracle_on_corpus():
    checked = 0
    for idx, (inst, is_zero) in enumerate(build_circuit_corpus(60, seed=31)):
        if classify(inst.circuit).kind is CircuitKind.GENERAL:
            continue
        verdict = cit_numeric(inst, random.Random(idx))
        assert (verdict is Verdict.ZERO) == is_zero
        checked += 1
    assert checked >= 30
