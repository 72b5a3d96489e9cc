import math
import random

import pytest

from citkit.circuit import ProblemInstance
from citkit.ffcit import (
    NonZeroCertificate,
    Verdict,
    cit_ff,
    eval_circuit_mod,
    make_certificate,
    miller_rabin,
    primitive_nth_root,
    run_ff_trial,
    sample_generator_candidate,
    sample_prime_1mod_n,
    verify_certificate,
)
from citkit.numutil import is_prime_det, primes_upto, split_rng

from conftest import phi_circuit, instance


def test_miller_rabin_basics():
    rng = random.Random(1)
    assert miller_rabin(13, 64, rng)
    assert not miller_rabin(12, 64, rng)
    assert not miller_rabin(1, 64, rng)
    # strong pseudoprime to small bases, certified composite by its factors
    assert 151 * 751 * 28351 == 3215031751
    assert not miller_rabin(3215031751, 64, random.Random(9))


def test_miller_rabin_agrees_with_deterministic():
    rng = random.Random(2)
    for q in range(2, 3000):
        assert miller_rabin(q, 32, rng) == is_prime_det(q)


def test_sample_prime_residue_class():
    rng = random.Random(3)
    for n, s in ((12, 6), (1, 3), (4, 2), (30, 8)):
        p = sample_prime_1mod_n(n, s, rng)
        assert p is not None
        assert p <= 1 << (5 * s)
        assert p % n == 1 % n
        assert is_prime_det(p)


def test_sample_prime_n4_s2_lands_in_enumerated_set():
    """Admissible set for n=4, s=2: primes = 1 mod 4 up to 2^10."""
    admissible = {p for p in primes_upto(1024) if p % 4 == 1}
    for seed in range(20):
        p = sample_prime_1mod_n(4, 2, random.Random(seed))
        assert p in admissible


def test_sample_prime_infeasible_range():
    # s=1 gives cap 32; no prime = 1 mod 97 that small
    assert sample_prime_1mod_n(97, 1, random.Random(0)) is None


def test_generator_filter_p13():
    # 4 has order 6 and must be rejected; 2 generates F_13^*
    assert pow(4, 6, 13) == 1
    seen = set()
    for seed in range(60):
        h = sample_generator_candidate(13, random.Random(seed))
        seen.add(h)
        assert pow(h, 6, 13) != 1 and pow(h, 4, 13) != 1
    assert 4 not in seen
    assert sample_generator_candidate(3, random.Random(0)) == 2


def test_primitive_nth_root():
    assert primitive_nth_root(13, 4, 12) == 4
    assert primitive_nth_root(13, 2, 12) == 2
    assert primitive_nth_root(13, 1, 12) == 1
    with pytest.raises(ValueError):
        primitive_nth_root(13, 2, 5)


def test_worked_example_two_sided_error():
    """With p=13 and the bad non-generator omega=4, the verdicts invert."""
    phi12 = phi_circuit(12)
    phi6 = phi_circuit(6)
    assert eval_circuit_mod(phi12, 13, 4) == 7
    assert eval_circuit_mod(phi6, 13, 4) == 0
    assert eval_circuit_mod(phi12, 13, 2) == 0
    assert eval_circuit_mod(phi6, 13, 2) == 3


def test_cit_ff_verdicts():
    assert cit_ff(instance(phi_circuit(12), 12), random.Random(7)) is Verdict.ZERO
    assert cit_ff(instance(phi_circuit(6), 12), random.Random(7)) is Verdict.NONZERO


def test_cit_ff_zero_polynomial_always_zero():
    from citkit.circuit import Circuit, InputGate, SumGate

    zero = Circuit((InputGate(1), SumGate(((0, 0),))), 1)
    for seed in range(10):
        assert cit_ff(instance(zero, 9), random.Random(seed)) is Verdict.ZERO


def test_zero_instances_never_report_nonzero_per_trial(fixture_suite):
    """Transcript-level one-sidedness on oracle-zero fixtures."""
    for inst, is_zero in fixture_suite:
        if not is_zero:
            continue
        for t in range(40):
            tr = run_ff_trial(inst, split_rng(99, t))
            if tr is not None:
                assert tr.verdict is Verdict.ZERO


def test_empirical_single_trial_error(fixture_suite):
    errors = total = 0
    for idx, (inst, is_zero) in enumerate(fixture_suite[:25]):
        for t in range(40):
            tr = run_ff_trial(inst, split_rng(1000 + idx, t))
            if tr is None:
                continue
            total += 1
            if (tr.verdict is Verdict.ZERO) != is_zero:
                errors += 1
    assert total >= 900
    assert errors / total <= 0.2


def test_certificate_roundtrip_and_tamper():
    inst = instance(phi_circuit(6), 12)
    cert = make_certificate(inst, random.Random(1))
    assert cert is not None
    assert verify_certificate(inst, cert)
    # every field tampered individually flips the verdict
    assert not verify_certificate(
        inst, NonZeroCertificate(cert.p + 2, cert.factors, cert.h)
    )
    assert not verify_certificate(
        inst, NonZeroCertificate(cert.p, cert.factors[1:], cert.h)
    )
    assert not verify_certificate(inst, NonZeroCertificate(cert.p, cert.factors, 4))
    # JSON round trip
    assert NonZeroCertificate.from_json(cert.to_json()) == cert


def test_certificate_fails_on_true_zero():
    inst = instance(phi_circuit(12), 12)
    assert make_certificate(inst, random.Random(1), p_cap=5000) is None


def test_certificate_search_is_bounded_on_zero(monkeypatch):
    """x^1009 - 1 vanishes, so no certificate exists; the search stops after
    CERTIFICATE_MAX_PRIMES factorisations instead of scanning to 64 n^2."""
    from citkit import ffcit
    from citkit.circuit import circuit_from_sparse, SparsePoly

    calls = []
    real = ffcit.factorize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ffcit, "factorize", counting)
    n = 1009
    inst = instance(circuit_from_sparse(SparsePoly(((1, n), (-1, 0)))), n)
    assert make_certificate(inst, random.Random(1)) is None
    assert 0 < len(calls) <= ffcit.CERTIFICATE_MAX_PRIMES


def test_certificate_constant_one():
    from citkit.circuit import Circuit, InputGate, SumGate

    one = Circuit((InputGate(0), SumGate(((1, 0),))), 1)
    inst = instance(one, 2)
    cert = make_certificate(inst, random.Random(4))
    assert cert is not None and verify_certificate(inst, cert)


def test_verify_is_deterministic_and_never_raises():
    inst = instance(phi_circuit(6), 12)
    junk = NonZeroCertificate(0, ((4, 1),), -3)
    assert verify_certificate(inst, junk) is False
    cert = make_certificate(inst, random.Random(1))
    assert all(verify_certificate(inst, cert) for _ in range(3))


def test_coprime_sampling_conditional_probability():
    """Exact enumeration over m = 510510 = 2*3*5*7*11*13*17."""
    m = 510510
    bound = 10 * math.log2(m)
    small = [p for p in primes_upto(int(bound) + 1) if m % p == 0]
    hits = cond = 0
    for k in range(1, m):
        if all(k % p for p in small):
            cond += 1
            if math.gcd(k, m) == 1:
                hits += 1
    assert cond > 0
    assert hits / cond > 0.9
