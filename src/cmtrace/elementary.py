"""Fixed-point pi, ln 2 and q = e^(2 pi i tau), in integers at any precision
the package asks for.

The constants.  PI = floor(pi 2^BITS) and LN2 = floor(ln 2 2^BITS), BITS =
1024.  The largest request is a trace-precision q at 200 digits, about 770
bits: dps_to_prec(215) = 718, plus bit_length(NMAX_CAP), the fixed-point
guard, the baby steps' extra bits and the guard bits below; the period
lattice rounds pi to at most dps_to_prec(225) = 751 bits.  So BITS leaves
about 200 bits of margin under DIGITS_CAP, and a request above BITS - 64
bits is an InputError, not a fallback.  Rounded to nearest at prec <=
BITS - 64 bits, PI gives pi rounded to nearest, mpf_pi(prec, round_nearest):
PI differs from pi 2^BITS by less than 1, so the two could round apart only
at a tie, which would need 64 zero bits of pi in a row; the tests check
every prec.

q from integers (q_scaled).  tau = (-b + i sqrt|D|) / (2a) for integers a
> 0 > D (a FormPoint, cmtrace.modparam).  With s = isqrt(max(0, bits -
128)) // 3 halvings (none up to 128 bits, 8 at 774, 9 at most) and w = bits
+ s + 12, numbers are integers scaled by 2^w, u = 2^-w.  t = 2 pi Im tau =
pi sqrt|D| / a is floor(PI isqrt(|D| 4^w) / (a 2^BITS)), within (pi + 1 + t
2^(w - BITS)) u < 5 u.  k = t / ln 2 rounded to nearest and r = t - k ln 2,
k LN2 cut once to w bits: e^-t = 2^-k e^-r, r within 7 u (k < 2^(BITS - w))
and |r| < 0.35.  4 Re tau = -2b / a = j + f exactly, j an integer, -1/2 <=
f < 1/2, and e^(2 pi i Re tau) = i^j e^(i theta), theta = pi f / 2 within
1.01 u, |theta| <= pi / 4.  Each argument is cut to X = -r / 2^s or theta /
2^s (floor), an error of 2^s u once the result is squared s times, and one
even/odd Taylor recurrence (_series) sums e^X = cosh X + sinh X, or cos X
and sin X: the terms X^n / n! two at a time, T = X^(2i) / (2i)! and T / (2i
+ 1), one w-bit product by X^2 per pair and two divisions by small
integers, until a term is 0, so the degree follows from w alone (N1 = 18
terms for e^X and N2 = 23 for cis at w = 80, N1 + N2 <= 133 up to w = BITS -
64).  The first term is exact and each later one within 2.4 u, as X^2 <=
0.62; the first term cut to 0 is below 2.4 u, and the terms after it fall
by a factor 0.31 or more, so each sum drops less than 4 u.  So e^X is
within (2.4 N1 + 9) u, relatively (3.5 N1 + 13) u as e^X >= e^-0.35 > 0.7,
and cos X + i sin X within (2.4 N2 + 9) u in norm.  A squaring or complex
squaring cut to w bits maps a relative error d to at most 2.01 d + 1.43 u,
so after s <= 9 of them the error is 1.05 2^s (d + 1.43 u).  With the
errors of the arguments, e^-r is within 2^s (3.5 N1 + 24) u relatively and
e^(i theta) within 2^s (2.5 N2 + 13) u, and the exact products m c and m
sn leave q within 2^s (3.5 (N1 + N2) + 37) u < 2^(s + 9) u = 2^-(bits + 3)
relatively, each part and |q| too.  At f = 0, that is at a | 2b, theta is 0
and the recurrence gives cos = 1 and sin = 0 exactly, which the squarings
keep: q is exactly real for even j (a | b) and exactly imaginary for odd j.
The tests hold q to mpmath at random points and precisions, and to libmp's
exp and cos-sin (tests/oracles.py).
"""

from math import isqrt

from .errors import InputError

BITS = 1024
PI = int("3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89"
         "452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b5470917"
         "9216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e96"
         "ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e69", 16)
LN2 = int("b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2b"
          "e7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b825"
          "3e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b"
          "72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c6", 16)


def _series(x: int, w: int, sign: int) -> tuple[int, int]:
    """(cosh X, sinh X) for sign = 1 and (cos X, sin X) for sign = -1, X = x 2^-w,
    |X| < 1, at w bits: the Taylor terms two at a time until one is 0
    (module docstring)."""
    x2, a, k, c0, c1, s0, s1 = x * x >> w, 1 << w, 1, 0, 0, 0, 0
    while a:                                    # n = 0, 1, 2, 3 mod 4 into c0, s0, c1, s1
        c0, a = c0 + a, a // k
        s0, a = s0 + a, (a * x2 >> w) // (k + 1)
        c1, a = c1 + a, a // (k + 2)
        s1, a = s1 + a, (a * x2 >> w) // (k + 3)
        k += 4
    return c0 + sign * c1, (s0 + sign * s1) * x >> w


def q_scaled(point, bits: int) -> tuple[int, int, int, int]:
    """(re, im, m, e): q = e^(2 pi i tau) is (re + i im) / 2^e and |q| is m / 2^e,
    within 2^-(bits + 3) |q|, at tau = (-b + i sqrt|disc|) / (2a) for the
    integers (a, b, disc) of point, a > 0 > disc; exactly real at a | b and
    exactly imaginary at a | 2b otherwise (module docstring)."""
    a, b, disc = point
    s = isqrt(max(0, bits - 128)) // 3          # halvings
    w = bits + s + 12
    if w > BITS - 64:
        raise InputError(f"q at {bits} bits is beyond the {BITS}-bit constants")
    t = PI * isqrt(-disc << 2 * w) // (a << BITS)          # 2 pi Im tau = pi sqrt|disc| / a
    k = ((t << BITS - w + 1) + LN2) // (2 * LN2)            # e^-t = 2^-k e^-r
    r = t - (k * LN2 >> BITS - w)
    j = (a - 4 * b) // (2 * a)                              # 4 Re tau = -2b / a = j + f
    theta = PI * (-2 * b - j * a) // (a << BITS - w + 1)    # pi f / 2
    m = sum(_series(-r >> s, w, 1))
    c, sn = _series(theta >> s, w, -1)
    for _ in range(s):
        m, c, sn = m * m >> w, (c + sn) * (c - sn) >> w, c * sn >> w - 1
    re, im = ((c, sn), (-sn, c), (-c, -sn), (sn, -c))[j % 4]      # times i^j
    return m * re, m * im, m << w, 2 * w + k
