"""Dense polynomial arithmetic over Z/p and the canonical modulus search.

Polynomials are ascending coefficient tuples with no trailing zeros; () is
the zero polynomial.  The modulus presenting GF(p^n) is the first irreducible
monic degree-n polynomial in counter order (constant coefficient varying
fastest), so every run and every process agrees on the presentation.  A
packed-bitmask path keeps the p = 2 search usable at degrees 32 and 64.
"""

from __future__ import annotations

import math

from .errors import CapExceeded


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Passing every base proves m prime below 3317044064679887385961981
    (Sorenson and Webster, 2015).  At or above that bound, an m with none of
    the bases as a factor raises CapExceeded: its primality is not decided.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if m < 2:
        return False
    for b in bases:
        if m % b == 0:
            return m == b
    if m < 43 * 43:
        return True
    if m >= 3317044064679887385961981:
        raise CapExceeded(f"primality of a {m.bit_length()}-bit integer is not decided "
                          f"at or above 3317044064679887385961981")
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in bases:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, k: int) -> int:
    """The integer k-th root floor(q^(1/k)) of q >= 1: Newton's method from
    a float estimate good to about 48 bits."""
    e = math.log2(q) / k
    shift = max(0, int(e) - 48)
    r = (int(2 ** (e - shift)) + 1) << shift
    while True:
        t = ((k - 1) * r + q // r ** (k - 1)) // k
        if abs(t - r) <= 1:
            break
        r = t
    while r ** k > q:
        r -= 1
    while (r + 1) ** k <= q:
        r += 1
    return r


def prime_power(q: int):
    """Return (p, n) with q = p^n for prime p, or None.

    The least divisor below 1024, if any, is the only candidate p.  Else p >
    1023, so n <= log_1024 q: take exact k-th roots for prime k in that
    range while any exists.  The last root r is then no perfect power, and q
    is a prime power iff r is prime.
    """
    if q < 2:
        return None
    for d in range(2, 1024):
        if q % d == 0:
            n = 0
            while q % d == 0:
                q //= d
                n += 1
            return (d, n) if q == 1 else None
    n = 1
    k = 2
    while 1 << (10 * k) <= q:
        r = _iroot(q, k)
        if r ** k == q:
            q, n = r, n * k
        else:
            k += 1
            while not is_prime(k):
                k += 1
    return (q, n) if is_prime(q) else None


def prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def normalize(coeffs, p):
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return normalize(out, p)


def sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return normalize(out, p)


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return normalize(out, p)


def rem(a, m, p):
    """a mod m with m monic of degree >= 1."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                if m[i]:
                    a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return normalize(a, p)


def _mod_any(a, b, p):
    # remainder for a possibly non-monic divisor b
    lead_inv = pow(b[-1], -1, p)
    monic = tuple((x * lead_inv) % p for x in b)
    return rem(a, monic, p)


def gcd(a, b, p):
    while b:
        a, b = b, _mod_any(a, b, p)
    if not a:
        return ()
    lead_inv = pow(a[-1], -1, p)
    return tuple((x * lead_inv) % p for x in a)


def powmod(base, e, m, p):
    result = (1,)
    base = rem(base, m, p)
    while e:
        if e & 1:
            result = rem(mul(result, base, p), m, p)
        e >>= 1
        if e:
            base = rem(mul(base, base, p), m, p)
    return result


# ---------------------------------------------------------------------------
# packed path for p = 2: a polynomial is its coefficient bitmask


def pack2(coeffs) -> int:
    v = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            v |= 1 << i
    return v


def _mul2(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _sqr2(a: int) -> int:
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (i << 1)
        a >>= 1
        i += 1
    return r


def _rem2(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm and a:
        a ^= m << (a.bit_length() - dm)
    return a


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, _rem2(a, b)
    return a


def _powmod2(base: int, e: int, m: int) -> int:
    result = 1
    base = _rem2(base, m)
    while e:
        if e & 1:
            result = _rem2(_mul2(result, base), m)
        e >>= 1
        if e:
            base = _rem2(_sqr2(base), m)
    return result


def _is_irreducible2(f: int, n: int) -> bool:
    x = 2
    for d in prime_divisors(n):
        t = _powmod2(x, 1 << (n // d), f)
        if _gcd2(f, t ^ x) != 1:
            return False
    return _powmod2(x, 1 << n, f) == x


# ---------------------------------------------------------------------------


def is_irreducible(f, p) -> bool:
    """Rabin's test for a monic polynomial f over Z/p."""
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if f[0] == 0:
        return False
    if p == 2:
        return _is_irreducible2(pack2(f), n)
    x = (0, 1)
    for d in prime_divisors(n):
        t = powmod(x, p ** (n // d), f, p)
        if gcd(sub(t, x, p), f, p) != (1,):
            return False
    return powmod(x, p ** n, f, p) == x


_MODULI: dict = {}


def least_irreducible(p: int, n: int):
    """First irreducible monic degree-n polynomial over Z/p in counter order."""
    key = (p, n)
    cached = _MODULI.get(key)
    if cached is not None:
        return cached
    if n == 1:
        _MODULI[key] = (0, 1)
        return (0, 1)
    small = range(min(p, 64))
    for m in range(p ** n):
        if m % p == 0:
            continue  # zero constant term means x divides
        digits = []
        t = m
        for _ in range(n):
            digits.append(t % p)
            t //= p
        cand = tuple(digits) + (1,)
        if p <= 64 and any(_eval_int(cand, r, p) == 0 for r in small):
            continue
        if is_irreducible(cand, p):
            _MODULI[key] = cand
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {n} over Z/{p}")


def _eval_int(coeffs, r, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % p
    return acc
