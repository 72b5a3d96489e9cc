"""Monte Carlo zeroness testing in F_p plus nonzeroness certificates.

The randomized test evaluates the circuit in a prime field F_p with
p = 1 (mod n), at a primitive n-th root of unity obtained from a sampled
generator candidate.  A trial can wrongly report Zero when the sampled
candidate fails to generate F_p^* or when p divides the norm of the true
value; majority voting over independent trials drives the error down.

Certificates of nonzeroness carry (p, factorization of p-1, generator h)
and are checked fully deterministically.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass

from .circuit import Circuit, InputGate, ProductGate, ProblemInstance, SumGate
from .numutil import (
    _mr_witness,
    factorize,
    is_prime_det,
    primes_upto,
    split_rng,
)

MR_ROUNDS = 64
DEFAULT_TRIALS = 15
# make_certificate gives up after factoring p - 1 for this many primes p
CERTIFICATE_MAX_PRIMES = 256


class Verdict(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    INCONCLUSIVE = "Inconclusive"
    EQUAL = "Equal"
    NOT_EQUAL = "NotEqual"


@dataclass(frozen=True)
class FfTrialTranscript:
    p: int
    h: int
    omega: int
    residue: int
    verdict: Verdict


@dataclass(frozen=True)
class NonZeroCertificate:
    p: int
    factors: tuple[tuple[int, int], ...]  # (prime q, multiplicity)
    h: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": str(self.p),
                "factors": [[str(q), str(a)] for q, a in self.factors],
                "h": str(self.h),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "NonZeroCertificate":
        obj = json.loads(text)
        return cls(
            int(obj["p"]),
            tuple((int(q), int(a)) for q, a in obj["factors"]),
            int(obj["h"]),
        )


def miller_rabin(q: int, rounds: int = MR_ROUNDS, rng: random.Random | None = None) -> bool:
    """Probable-prime test; a composite verdict is always correct."""
    if q < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if q == p:
            return True
        if q % p == 0:
            return False
    rng = rng or random.Random(0xC0FFEE)
    return not any(
        _mr_witness(q, rng.randrange(2, q - 1)) for _ in range(rounds)
    )


def sample_prime_1mod_n(
    n: int, s: int, rng: random.Random, max_retries: int | None = None
) -> int | None:
    """A uniform prime p <= 2^(5s) with p = 1 (mod n), by rejection.

    Samples uniformly from the residue class and keeps the first probable
    prime; returns None after the retry budget (default 600*s draws).
    """
    if max_retries is None:
        max_retries = 600 * s
    bound = 1 << (5 * s)
    lo = (2 - 1 + n - 1) // n  # smallest j with 1 + j*n >= 2
    hi = (bound - 1) // n  # largest j with 1 + j*n <= bound
    if hi < lo:
        return None
    for _ in range(max_retries):
        q = 1 + rng.randrange(lo, hi + 1) * n
        if miller_rabin(q, MR_ROUNDS, rng):
            return q
    return None


def _small_filter_primes(p: int) -> list[int]:
    """Prime divisors q of p-1 with q < 10*log2(p-1)."""
    bound = int(10 * math.log2(p - 1)) + 1 if p > 2 else 2
    return [q for q in primes_upto(bound) if (p - 1) % q == 0]


def sample_generator_candidate(
    p: int, rng: random.Random, max_retries: int = 4096
) -> int | None:
    """Uniform sample from the elements passing the small-order filter.

    Accepts a in F_p^* with a^((p-1)/q) != 1 for every prime q < 10*log2(p-1)
    dividing p-1; such an a generates F_p^* with probability >= 0.9.
    """
    if p == 2:
        return 1
    small = _small_filter_primes(p)
    for _ in range(max_retries):
        a = rng.randrange(1, p)
        if all(pow(a, (p - 1) // q, p) != 1 for q in small):
            return a
    return None


def primitive_nth_root(p: int, h: int, n: int) -> int:
    """h^((p-1)/n) mod p; a primitive n-th root whenever h generates F_p^*."""
    if (p - 1) % n != 0:
        raise ValueError(f"{n} does not divide {p} - 1")
    return pow(h, (p - 1) // n, p)


def eval_circuit_mod(circuit: Circuit, p: int, omega: int) -> int:
    """Evaluate the circuit at x = omega in F_p.

    Monomial exponents are reduced mod p-1 (Fermat; omega is a unit).
    """
    vals = [0] * len(circuit.gates)
    for idx, g in enumerate(circuit.gates):
        if isinstance(g, InputGate):
            vals[idx] = pow(omega, g.exponent % (p - 1), p) if p > 2 else omega % p
        elif isinstance(g, SumGate):
            vals[idx] = sum(w * vals[j] for w, j in g.addends) % p
        elif isinstance(g, ProductGate):
            acc = 1
            for j in g.factors:
                acc = acc * vals[j] % p
            vals[idx] = acc
    return vals[circuit.output]


def run_ff_trial(instance: ProblemInstance, rng: random.Random) -> FfTrialTranscript | None:
    """One independent trial; None when prime or generator sampling fails."""
    p = sample_prime_1mod_n(instance.n, instance.s, rng)
    if p is None:
        return None
    h = sample_generator_candidate(p, rng)
    if h is None:
        return None
    omega = primitive_nth_root(p, h, instance.n)
    residue = eval_circuit_mod(instance.circuit, p, omega)
    verdict = Verdict.ZERO if residue == 0 else Verdict.NONZERO
    return FfTrialTranscript(p, h, omega, residue, verdict)


def cit_ff(
    instance: ProblemInstance,
    rng: random.Random,
    trials: int = DEFAULT_TRIALS,
    transcripts: list[FfTrialTranscript] | None = None,
) -> Verdict:
    """Majority verdict over independent trials.

    Inconclusive when sampling failed in at least half the trials or the
    vote ties.
    """
    base = rng.getrandbits(64)
    zero = nonzero = failures = 0
    for t in range(trials):
        tr = run_ff_trial(instance, split_rng(base, t))
        if tr is None:
            failures += 1
            continue
        if transcripts is not None:
            transcripts.append(tr)
        if tr.verdict is Verdict.ZERO:
            zero += 1
        else:
            nonzero += 1
    if failures * 2 >= trials or zero == nonzero:
        return Verdict.INCONCLUSIVE
    return Verdict.ZERO if zero > nonzero else Verdict.NONZERO


def make_certificate(
    instance: ProblemInstance,
    rng: random.Random | None = None,
    p_cap: int | None = None,
    rho_budget: int = 10**6,
) -> NonZeroCertificate | None:
    """Search a verifiable witness that the instance value is nonzero.

    Scans primes p = 1 (mod n) with fully factorable p-1, finds a verified
    generator h, and accepts when the circuit is nonzero at h^((p-1)/n).
    Returns None when the search budget runs out: p passes p_cap, or p - 1
    has been factored for CERTIFICATE_MAX_PRIMES primes (in particular
    whenever the value is actually zero).
    """
    rng = rng or random.Random(7)
    n = instance.n
    if p_cap is None:
        p_cap = max(1 << 20, 64 * n * n)
    p = 1 + n if n > 1 else 2
    factored = 0
    while p <= p_cap and factored < CERTIFICATE_MAX_PRIMES:
        if is_prime_det(p):
            factored += 1
            try:
                fac = factorize(p - 1, rng, rho_budget)
            except RuntimeError:
                fac = None
            if fac:
                h = _find_generator(p, fac, rng)
                if h is not None:
                    omega = primitive_nth_root(p, h, n)
                    if eval_circuit_mod(instance.circuit, p, omega) != 0:
                        factors = tuple(sorted(fac.items()))
                        return NonZeroCertificate(p, factors, h)
        p += n if n > 1 else 1
    return None


def _find_generator(p: int, fac: dict[int, int], rng: random.Random) -> int | None:
    if p == 2:
        return 1
    for _ in range(512):
        h = rng.randrange(2, p)
        if all(pow(h, (p - 1) // q, p) != 1 for q in fac):
            return h
    return None


def verify_certificate(instance: ProblemInstance, cert: NonZeroCertificate) -> bool:
    """Deterministic check of every certificate invariant; never raises."""
    try:
        p, factors, h = cert.p, cert.factors, cert.h
        if p < 2 or not is_prime_det(p):
            return False
        if (p - 1) % instance.n != 0:
            return False
        prod = 1
        for q, a in factors:
            if a < 1 or q < 2 or not is_prime_det(q):
                return False
            prod *= q**a
        if prod != p - 1:
            return False
        if not 1 <= h < p:
            return False
        if p > 2 and any(pow(h, (p - 1) // q, p) == 1 for q, _ in factors):
            return False
        omega = primitive_nth_root(p, h, instance.n)
        return eval_circuit_mod(instance.circuit, p, omega) != 0
    except Exception:
        return False
