"""The hot kernels.

Two families live here:

* dyadic complex ball arithmetic on packed tuples ``(re, im, rad, exp)``,
  encoding the disc of radius ``rad * 2**exp`` around
  ``(re + im*i) * 2**exp`` with integer (or mpz) components, and
* dense integer polynomial convolution / reduction by a monic modulus.

Every ball operation rounds outward: the result tuple always encloses the
exact image of the operand sets.
"""

from __future__ import annotations

from ._intbase import isqrt, mpz

Ball = tuple  # (re_man, im_man, rad_man, exp); rad_man >= 0


def ball_make(re: int, im: int, rad: int, exp: int) -> Ball:
    return (mpz(re), mpz(im), mpz(rad), exp)


def ball_normalize(b: Ball, prec: int) -> Ball:
    """Shrink mantissas to at most prec bits, absorbing the loss in rad."""
    re, im, rad, e = b
    m = max(abs(re).bit_length(), abs(im).bit_length(), rad.bit_length())
    if m <= prec:
        return b
    sh = m - prec
    # Floor shifts move each midpoint coordinate by < 1 new ulp and may
    # shrink rad by < 1 new ulp; +3 covers all three.
    return (re >> sh, im >> sh, (rad >> sh) + 3, e + sh)


def ball_add(x: Ball, y: Ball, prec: int) -> Ball:
    rex, imx, rx, ex = x
    rey, imy, ry, ey = y
    if not (rex or imx or rx):
        return y
    if not (rey or imy or ry):
        return x
    if ex == ey:
        return ball_normalize((rex + rey, imx + imy, rx + ry, ex), prec)
    if ex < ey:
        rex, imx, rx, ex, rey, imy, ry, ey = rey, imy, ry, ey, rex, imx, rx, ex
    # Now ex > ey. If y is below 2^-(prec+8) of x's magnitude, absorb it into
    # rad at the scale of x widened to a prec-bit mantissa, so a short exact x
    # (say 1) does not round a tiny y up to one ulp of its own.
    d = ex - ey
    mag_y = abs(rey) + abs(imy) + ry
    m = max(abs(rex).bit_length(), abs(imx).bit_length(), rx.bit_length())
    if mag_y.bit_length() - d < m - (prec + 8):
        w = max(prec - m, 0)
        return ball_normalize(
            (rex << w, imx << w, (rx << w) + (mag_y >> (d - w)) + 1, ex - w), prec
        )
    return ball_normalize(
        ((rex << d) + rey, (imx << d) + imy, (rx << d) + ry, ey), prec
    )


def ball_mul(x: Ball, y: Ball, prec: int) -> Ball:
    rex, imx, rx, ex = x
    rey, imy, ry, ey = y
    re = rex * rey - imx * imy
    im = rex * imy + imx * rey
    rad = 0
    if rx or ry:
        mx = isqrt(rex * rex + imx * imx) + 1
        my = isqrt(rey * rey + imy * imy) + 1
        rad = mx * ry + my * rx + rx * ry
    return ball_normalize((re, im, rad, ex + ey), prec)


def ball_scale_int(x: Ball, k: int, prec: int) -> Ball:
    re, im, rad, e = x
    return ball_normalize((re * k, im * k, rad * abs(k), e), prec)


def ball_div_uint(x: Ball, k: int, prec: int) -> Ball:
    """Divide by a positive integer; floor error folded into rad."""
    re, im, rad, e = x
    return ball_normalize((re // k, im // k, rad // k + 3, e), prec)


def poly_mul(a: list, b: list) -> list:
    """Dense convolution of integer coefficient vectors."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def poly_rem_monic(a: list, m: list) -> list:
    """Remainder of a modulo a monic polynomial m (in place on a copy)."""
    dm = len(m) - 1
    r = list(a)
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            base = i - dm
            for j in range(dm):
                if m[j]:
                    r[base + j] -= c * m[j]
    del r[dm:]
    while r and not r[-1]:
        r.pop()
    return r
