"""Reference arithmetic for the benchmark's checks, independent of qlinset.

Elements of F_{p^m} = F_p[x]/(modulus) are tuples of m coefficients, low
degree first.  Products are schoolbook multiplication followed by reduction
by the modulus, and g^k is x^k by square-and-multiply; nothing here reads
the program's log, antilog or Zech tables.  The program encodes 0 as index 0
and g^k as index k + 1; `element` and `index_of` translate between the two.

Only small fields (at most a few thousand elements) are enumerated whole;
wide fields are checked at sampled points.
"""

from __future__ import annotations


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class RefField:
    """F_{q^n}, q = p^h, as polynomials over F_p modulo a monic `modulus`."""

    def __init__(self, p: int, h: int, n: int, modulus):
        self.p, self.h, self.n = p, h, n
        self.m = h * n
        self.q = p**h
        self.size = p**self.m
        self.order = self.size - 1
        self.mod = tuple(int(c) % p for c in modulus)
        if len(self.mod) != self.m + 1 or self.mod[-1] != 1:
            raise ValueError("modulus must be monic of degree h*n")
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)
        self.x = self._reduce([0, 1])
        self._elem_cache: dict[int, tuple] = {}
        self._index: dict[tuple, int] | None = None

    # ------------------------------------------------------------ arithmetic

    def _reduce(self, c) -> tuple:
        p, m, mod = self.p, self.m, self.mod
        c = list(c)
        for i in range(len(c) - 1, m - 1, -1):
            lead = c[i] % p
            if lead:
                for j in range(m):
                    c[i - m + j] = (c[i - m + j] - lead * mod[j]) % p
            c[i] = 0
        c = [v % p for v in c[:m]]
        return tuple(c + [0] * (m - len(c)))

    def add(self, a, b) -> tuple:
        p = self.p
        return tuple((u + v) % p for u, v in zip(a, b))

    def neg(self, a) -> tuple:
        p = self.p
        return tuple((-u) % p for u in a)

    def sub(self, a, b) -> tuple:
        return self.add(a, self.neg(b))

    def mul(self, a, b) -> tuple:
        out = [0] * (2 * self.m - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    if v:
                        out[i + j] += u * v
        return self._reduce(out)

    def pow(self, a, e: int) -> tuple:
        result, base = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a) -> tuple:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 1)

    def div(self, a, b) -> tuple:
        return self.mul(a, self.inv(b))

    def frob(self, a, e: int) -> tuple:
        """a^(p^e)."""
        return self.pow(a, self.p**e)

    def norm(self, a) -> tuple:
        """N_{q^n/q}(a) = a^((q^n - 1)/(q - 1))."""
        return self.pow(a, self.order // (self.q - 1))

    # ------------------------------------------------------------- encoding

    def element(self, idx: int) -> tuple:
        """The element the program encodes as `idx` (0, or g^(idx-1))."""
        if idx == 0:
            return self.zero
        got = self._elem_cache.get(idx)
        if got is None:
            got = self.pow(self.x, idx - 1)
            if self.size <= 4096:
                self._elem_cache[idx] = got
        return got

    def packed(self, a) -> int:
        """Base-p integer sum c_i p^i of the coefficient tuple."""
        v = 0
        for c in reversed(a):
            v = v * self.p + c
        return v

    def index_of(self, a) -> int:
        """Program index of `a`; enumerates powers of x, so small fields only."""
        if self._index is None:
            if self.size > 4096:
                raise ValueError("index_of enumerates the field; use a small field")
            table = {self.zero: 0}
            cur = self.one
            for k in range(self.order):
                table[cur] = k + 1
                cur = self.mul(cur, self.x)
            self._index = table
        return self._index[a]

    def is_primitive_modulus(self) -> bool:
        """x has multiplicative order exactly p^m - 1 modulo the modulus."""
        if self.pow(self.x, self.order) != self.one:
            return False
        return all(
            self.pow(self.x, self.order // r) != self.one
            for r in prime_factors(self.order)
        )

    # ------------------------------------------------------ q-polynomials

    def frob_chain(self, x) -> list[tuple]:
        """[x, x^q, x^(q^2), ..., x^(q^(n-1))]."""
        out = [x]
        for _ in range(1, self.n):
            out.append(self.pow(out[-1], self.q))
        return out

    def ratio(self, coeffs, x) -> tuple:
        """f(x)/x for f = sum coeffs[i] x^(q^i), coeffs as elements, x != 0."""
        acc = self.zero
        for a, xq in zip(coeffs, self.frob_chain(x)):
            if a != self.zero:
                acc = self.add(acc, self.mul(a, xq))
        return self.div(acc, x)

    def image(self, coeff_idx) -> frozenset:
        """Program indices of Im(f(x)/x); enumerates the field."""
        coeffs = [self.element(c) for c in coeff_idx]
        return frozenset(
            self.index_of(self.ratio(coeffs, self.element(i)))
            for i in range(1, self.size)
        )

    def moebius(self, phi, z):
        """(c + d w)/(a + b w) with w = z^(p^e), or None where a + b w = 0.

        `phi` is (a, b, c, d, e) with a..d as elements and e an int.
        """
        a, b, c, d, e = phi
        w = self.frob(z, e)
        den = self.add(a, self.mul(b, w))
        if den == self.zero:
            return None
        return self.div(self.add(c, self.mul(d, w)), den)


def lex_least_primitive_modulus(p: int, m: int) -> tuple:
    """The least monic primitive polynomial of degree m over F_p, comparing
    coefficient vectors constant-first; pure search, small fields only."""
    for t in range(p ** (m - 1), p**m):
        low = [(t // p ** (m - 1 - i)) % p for i in range(m)]
        ref = RefField(p, 1, m, low + [1])
        if ref.is_primitive_modulus():
            return tuple(low + [1])
    raise ValueError(f"no primitive polynomial of degree {m} over F_{p}")
