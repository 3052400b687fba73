"""Finite-field engine for towers F_p <= F_q <= F_{q^s} <= F_{q^n}, q = p^h.

Only the top field F_{p^{h*n}} is materialized; intermediate fields are
recognized as Frobenius-fixed subsets.  Elements are encoded as plain ints:

    0      -> the zero element
    k + 1  -> g^k, where g is the fixed multiplicative generator
              (the root of the modulus), 0 <= k < p^{h*n} - 1

This makes scalar multiplication, inversion and Frobenius maps O(1) index
arithmetic; scalar addition goes through a single Zech-logarithm table.
The int encoding doubles as the canonical total order on elements (zero
first, then by discrete log).

The vector operations `vadd`, `vmul`, `vneg`, `vinv` and `vfrob` of a field
with at most MAX_TABLE_SIZE = 2^12 elements are one gather each from lookup
tables: flat size x size int16 sum and product tables (2 MB each at 2^10
elements, 32 MB each at 2^12) and one-dimensional negation, inverse and
per-exponent Frobenius tables.  The tables are built on the first vector
call, not with the field.  Larger fields do the same operations by index
and Zech arithmetic.  The gathers still win at the limit: on 2^18 random
operands at 4096 elements (2-core Xeon) a gather took 1.7 ms for `vadd` and
1.6 ms for `vmul`, against 9.4 ms and 2.6 ms by index and Zech arithmetic,
and the 0.1 s table build is repaid after about fifteen such sums.

Contexts are interned: while a context is alive, `build_field` returns that
one object for its (p, h, n) and resolved modulus, and a context pickles as a
call to `build_field`, so it keeps its identity in worker processes and never
sends its tables.  An unused context is freed with its tables.

The modulus is the lexicographically least primitive polynomial of degree
h*n over F_p, coefficient vectors compared low-degree-first, so field
construction is reproducible from (p, h, n) alone.  A caller-supplied
modulus can override the search, but it must itself be primitive because
the element encoding is built on discrete logs of its root.

Construction is vectorized.  The search tests candidates in ascending
batches of 16 growing to 4096: an F_p-root filter by Horner evaluation,
then x^order mod f for the whole batch by square-and-multiply on integer
arrays, then x^(order/r) for the few with x^order = 1; the first survivor
is the modulus, and a caller's modulus goes through the same test as a
batch of one.  The table of powers g^k is built by doubling, g^(L..2L-1) =
g^(0..L-1) · g^L, one F_p-linear pass per coefficient.  On a 2-core Xeon
build_field(3,1,10) takes about 0.1 s and build_field(2,1,24) about 1.6 s
at a peak RSS of about 430 MB.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DivisionByZero,
    InvalidModulus,
    NotADivisor,
    NotPrime,
    TooLarge,
)

MAX_FIELD_SIZE = 2**24
MAX_TABLE_SIZE = 2**12


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- the modulus search: batched polynomial arithmetic over F_p --------------
#
# A batch of K monic candidates f = x^m + c_{m-1} x^(m-1) + ... + c_0 is the
# (m, K) int64 array of their low coefficients, row i holding every c_i;
# residues mod f are (m, K) arrays in the same layout, one column per
# candidate, so that each step below is a whole-row numpy operation.
# Integer numpy only: the products are tiny, and a threaded float matmul
# costs more to start than they take.

def _times_x(r, neg_low, p):
    # x·r mod f: shift up one degree, then fold the x^m term through
    # x^m = -(c_0 + ... + c_{m-1} x^(m-1)) = neg_low
    out = np.empty_like(r)
    out[0] = 0
    out[1:] = r[:-1]
    out += r[-1] * neg_low
    return out % p


def _powers_of_x(low, p, e):
    """x^e mod f for every candidate column of `low`, by square-and-multiply."""
    m, K = low.shape
    neg_low = (-low) % p
    # fold[i] = x^(m+i) mod f, the reduction of degree m+i of a square
    fold = [neg_low]
    for _ in range(m - 2):
        fold.append(_times_x(fold[-1], neg_low, p))
    r = np.zeros((m, K), dtype=np.int64)
    r[0] = 1
    for bit in bin(e)[2:]:
        sq = np.zeros((2 * m - 1, K), dtype=np.int64)
        for i in range(m):
            sq[i:i + m] += r[i] * r
        sq %= p
        r = sq[:m]
        for i in range(m - 1):
            r += sq[m + i] * fold[i]
        r %= p
        if bit == "1":
            r = _times_x(r, neg_low, p)
    return r


def _primitive_columns(low, p, order):
    """Which candidates have x of multiplicative order exactly `order`.

    x generates the multiplicative group of F_p[x]/(f) iff x^order = 1 and
    x^(order/r) != 1 for every prime r | order; that also forces f to be
    irreducible.
    """
    one = np.zeros((low.shape[0], 1), dtype=np.int64)
    one[0] = 1
    ok = (_powers_of_x(low, p, order) == one).all(axis=0)
    for r in _prime_factors(order):
        cols = np.flatnonzero(ok)
        ok[cols] = ~(_powers_of_x(low[:, cols], p, order // r) == one).all(axis=0)
    return ok


def _search_modulus(p, m, order):
    """Lex-least monic primitive polynomial of degree m over F_p."""
    # Candidates t = p^(m-1) .. p^m - 1 in ascending batches, t's base-p
    # digits being (c_0, ..., c_{m-1}) most significant first: the
    # candidates below p^(m-1) have c_0 = 0 and are divisible by x.  The
    # batches grow so that an early answer costs one small batch.  For
    # m > 1 a root in F_p means a linear factor, which is cheaper to find
    # than the order of x.
    weights = p ** np.arange(m - 1, -1, -1, dtype=np.int64)[:, None]
    lo, batch = p ** (m - 1), 16
    while lo < p**m:
        t = np.arange(lo, min(lo + batch, p**m), dtype=np.int64)
        low = t // weights % p
        for a in range(1, p) if m > 1 else ():
            value = np.ones(low.shape[1], dtype=np.int64)
            for i in range(m - 1, -1, -1):
                value = (value * a + low[i]) % p
            low = low[:, value != 0]
        hits = np.flatnonzero(_primitive_columns(low, p, order))
        if hits.size:
            return low[:, hits[0]].tolist() + [1]
        lo, batch = lo + batch, min(2 * batch, 4096)
    raise RuntimeError(
        f"no primitive modulus of degree {m} over F_{p}; this cannot happen"
    )


def _packed_powers(p, m, low):
    """The packed table: entry 0 is the zero element, entry k + 1 holds g^k
    as its base-p coefficients x^0..x^(m-1), digit i worth p^i.

    Built by doubling: g^(L..2L-1) = g^(0..L-1) · g^L, and multiplying by
    g^L is F_p-linear on coefficient vectors, so each step is m passes over
    the first L powers, one per input coefficient.  During the build an
    element keeps coefficient j in bits [w*j, w*j + w).  For p = 2, w = 1
    (the packed form itself) and the passes XOR; for odd p, w leaves room
    to add two coefficients and reduce them mod p in every field at once.
    """
    size = p**m
    order = size - 1
    w = 1 if p == 2 else p.bit_length() + 1
    field = (1 << w) - 1
    shifts = w * np.arange(m, dtype=np.int64)
    ones = int((1 << shifts).sum())
    bias = ((1 << (w - 1)) - p) * ones
    neg_low = (-np.array(low, dtype=np.int64)[:, None]) % p
    scale = np.arange(p, dtype=np.int64)[:, None]
    pck = np.zeros(size, dtype=np.int64)
    alog = pck[1:]
    alog[0] = 1
    L = 1
    while L < order:
        # col = x^i · g^L = x^(L+i) for i = 0..m-1: the image of input coefficient i
        col = _times_x((alog[L - 1] >> shifts)[:, None] & field, neg_low, p)
        src = alog[:min(L, order - L)]
        dst = alog[L:L + src.size]
        tmp = np.empty_like(src)
        for i in range(m):
            np.right_shift(src, w * i, out=tmp)
            tmp &= field
            if p == 2:
                tmp *= int((col[:, 0] << shifts).sum())
                dst ^= tmp
            else:
                # scaled[c] = c · col with every coefficient reduced mod p
                scaled = ((scale * col[:, 0] % p) << shifts).sum(axis=1)
                dst += scaled.take(tmp)
                # a field holding c + c' >= p sets its top bit after + bias
                np.add(dst, bias, out=tmp)
                tmp >>= w - 1
                tmp &= ones
                tmp *= p
                dst -= tmp
            col = _times_x(col, neg_low, p)
        L += src.size
    if p > 2:
        for start in range(0, order, 1 << 20):
            block = alog[start:start + (1 << 20)]
            packed = np.zeros_like(block)
            for j in range(m):
                packed += (block >> (w * j) & field) * p**j
            block[:] = packed
    return pck


class _Tables(NamedTuple):
    """Lookup tables of a small field, indexed by element index."""

    add: np.ndarray  # flat size*size: add[a*size + b] = a + b
    mul: np.ndarray  # flat size*size: mul[a*size + b] = a * b
    neg: np.ndarray
    inv: np.ndarray  # inv[0] = 0
    frob: np.ndarray  # frob[e, a] = a^(p^e)


class FieldCtx:
    """Arithmetic context for F_{p^{h*n}} with its F_{p^h}-tower structure.

    Immutable after construction apart from the lookup tables built on the
    first vector call; all operations are pure, so a single context can be
    shared freely across worker processes or threads.
    """

    def __init__(self, p: int, h: int, n: int, modulus: list[int] | None = None):
        if _prime_factors(p) != [p]:
            raise NotPrime(f"p = {p} is not prime")
        if h < 1 or n < 1:
            raise InvalidModulus("h and n must be positive")
        m = h * n
        size = p**m
        if size > MAX_FIELD_SIZE:
            raise TooLarge(f"p^(h*n) = {size} exceeds table limit {MAX_FIELD_SIZE}")
        self.p = p
        self.h = h
        self.n = n
        self.m = m
        self.q = p**h
        self.size = size
        self.order = size - 1  # multiplicative group order

        if modulus is None:
            modulus = _search_modulus(p, m, self.order)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise InvalidModulus(f"modulus must be monic of degree {m}")
            if not _primitive_columns(np.array(modulus[:m])[:, None], p, self.order)[0]:
                raise InvalidModulus(
                    "supplied modulus is not primitive; element encoding "
                    "requires the modulus root to generate the multiplicative group"
                )
        self.modulus = tuple(modulus)

        self._build_tables()

        # g^(order/r) != 1 for every prime r | order: g is primitive
        for r in _prime_factors(self.order):
            if self._pck[1 + self.order // r] == 1:
                raise RuntimeError("modulus root is not primitive; construction bug")

        self.zero = 0
        self.one = 1
        self.gen = 2 if self.order > 1 else 1  # g = g^1; in F_2 it is g^0 = 1
        # -1 as an element: g^(order/2) in odd characteristic, 1 in char 2
        self.minus_one = 1 if p == 2 else (self.order // 2) + 1
        self._tab = None

    def __reduce__(self):
        # unpickling interns: the worker's context is its own build_field's
        return _unpickle_field, (self.p, self.h, self.n, list(self.modulus))

    def _build_tables(self):
        p, size, order = self.p, self.size, self.order
        # index -> packed and packed -> index, for conversions
        pck = _packed_powers(p, self.m, self.modulus[:-1])
        idx = np.zeros(size, dtype=np.int64)
        idx[pck[1:]] = np.arange(1, size, dtype=np.int64)
        if np.any(idx[1:] == 0):
            raise RuntimeError("log table incomplete; modulus root not primitive")

        # zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0 (idx[0] = 0);
        # adding 1 raises the constant coefficient, the low base-p digit.
        # In blocks, so that no temporary is as long as the field.
        zech = np.empty(order, dtype=np.int64)
        for start in range(0, order, 1 << 20):
            plus1 = pck[1 + start:1 + start + (1 << 20)] + 1
            plus1[plus1 % p == 0] -= p
            zech[start:start + plus1.size] = idx[plus1] - 1

        self._pck = pck
        self._idx = idx
        self._zech = zech
        # scalar add reads a Python list where the list is small; above
        # MAX_TABLE_SIZE it would cost more memory than the array itself
        self._zech_l = zech.tolist() if size <= MAX_TABLE_SIZE else None
        self._pe = [pow(self.p, e, order) if order > 1 else 0 for e in range(self.m)]

    # ---------------------------------------------------------------- misc

    @property
    def spec_string(self) -> str:
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.h}^{self.n}/{coeffs}"

    def __repr__(self):
        return f"FieldCtx({self.p}^{self.h}^{self.n}, |F|={self.size})"

    def elements(self):
        return range(self.size)

    def nonzero(self):
        return range(1, self.size)

    def fmt(self, e: int) -> str:
        if e == 0:
            return "0"
        return f"g^{e - 1}"

    def parse(self, s: str) -> int:
        s = s.strip()
        if s == "0":
            return 0
        if s == "1":
            return 1
        if s.startswith("g^"):
            k = int(s[2:])
            return k % self.order + 1
        raise ValueError(f"cannot parse field element {s!r}; use '0' or 'g^k'")

    def from_exp(self, k: int) -> int:
        """The element g^k."""
        return k % self.order + 1

    # ------------------------------------------------------------- scalars

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        i = a - 1
        j = b - 1
        k = (j - i) % self.order
        z = self._zech[k].item() if self._zech_l is None else self._zech_l[k]
        if z < 0:
            return 0
        return (i + z) % self.order + 1

    def neg(self, a: int) -> int:
        if a == 0 or self.p == 2:
            return a
        return (a - 1 + self.order // 2) % self.order + 1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return (a + b - 2) % self.order + 1

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return (self.order - (a - 1)) % self.order + 1

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_int(self, a: int, e: int) -> int:
        """a^e for an arbitrary integer exponent (negative allowed for a != 0)."""
        if a == 0:
            if e <= 0:
                raise DivisionByZero("0 cannot be raised to a non-positive power")
            return 0
        return (a - 1) * (e % self.order) % self.order + 1

    def frobenius(self, a: int, e: int) -> int:
        """a^(p^e) with 0 <= e < h*n."""
        if not 0 <= e < self.m:
            raise ValueError(f"frobenius exponent {e} outside [0, {self.m})")
        if a == 0:
            return 0
        return (a - 1) * self._pe[e] % self.order + 1

    def trace_rel(self, a: int, s: int) -> int:
        """Tr_{q^n/q^s}(a) = a + a^{q^s} + ... + a^{q^{n-s}}; requires s | n."""
        if s < 1 or self.n % s != 0:
            raise NotADivisor(f"s = {s} does not divide n = {self.n}")
        acc = 0
        step = (self.h * s) % self.m
        cur = a
        for _ in range(self.n // s):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur, step)
        return acc

    def norm_rel(self, a: int, s: int) -> int:
        """N_{q^n/q^s}(a) = a^{(q^n-1)/(q^s-1)}; requires s | n."""
        if s < 1 or self.n % s != 0:
            raise NotADivisor(f"s = {s} does not divide n = {self.n}")
        if a == 0:
            return 0
        qs = self.p ** (self.h * s)
        e = (self.size - 1) // (qs - 1)
        return self.pow_int(a, e)

    def subfield_degree(self, a: int) -> int:
        """Smallest d | h*n with a^(p^d) = a."""
        # the least such d is the degree of F_p(a), so it divides h*n
        return next(d for d in range(1, self.m + 1) if self.frobenius(a, d % self.m) == a)

    def in_subfield(self, a: int, s: int) -> bool:
        """True iff a lies in F_{q^s} (s | n), the fixed field of x -> x^{q^s}."""
        if s == self.n:
            return True
        return self.frobenius(a, (self.h * s) % self.m) == a

    # -------------------------------------------------------------- vectors
    #
    # Same encoding on numpy int64 arrays; inputs broadcast like numpy ops.
    # Small fields gather from lookup tables; the _*_ix methods compute the
    # same maps by index and Zech arithmetic for larger fields.

    def _tables(self) -> _Tables | None:
        """The lookup tables, built on first use; None above MAX_TABLE_SIZE."""
        if self._tab is None and self.size <= MAX_TABLE_SIZE:
            self._tab = self._build_lookup_tables()
        return self._tab

    def _build_lookup_tables(self) -> _Tables:
        size, order = self.size, self.order
        nz = np.arange(1, size, dtype=np.int16)
        mul = np.zeros((size, size), dtype=np.int16)
        # row g^i of the product table is the row of 1 = g^0 shifted by i
        mul[1:, 1:] = sliding_window_view(np.concatenate((nz, nz[:-1])), order)
        # g^i + g^j = g^i (1 + g^(j-i)): row g^i of the sum table is the row
        # of 1 shifted by i, then multiplied by g^i
        one_plus = np.where(self._zech < 0, 0, self._zech + 1).astype(np.int16)
        one_plus = np.concatenate((one_plus, one_plus))
        add = np.empty_like(mul)
        add[0] = add[:, 0] = np.arange(size)
        for i in range(order):
            add[i + 1, 1:] = mul[i + 1, one_plus[order - i:2 * order - i]]
        X = np.arange(size, dtype=np.int64)
        frob = np.stack([self._frob_ix(X, e) for e in range(self.m)])
        return _Tables(
            add.ravel(),
            mul.ravel(),
            self._neg_ix(X).astype(np.int16),
            self._inv_ix(X).astype(np.int16),
            frob.astype(np.int16),
        )

    def vadd(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        t = self._tables()
        if t is None:
            return self._add_ix(A, B)
        return t.add.take(A * self.size + B).astype(np.int64)

    def vneg(self, A):
        A = np.asarray(A, dtype=np.int64)
        if self.p == 2:
            return A
        t = self._tables()
        return self._neg_ix(A) if t is None else t.neg.take(A).astype(np.int64)

    def vmul(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        t = self._tables()
        if t is None:
            return self._mul_ix(A, B)
        return t.mul.take(A * self.size + B).astype(np.int64)

    def vinv(self, A):
        """Inverse on nonzero entries; zero entries pass through as zero."""
        A = np.asarray(A, dtype=np.int64)
        t = self._tables()
        return self._inv_ix(A) if t is None else t.inv.take(A).astype(np.int64)

    def vfrob(self, A, e: int):
        A = np.asarray(A, dtype=np.int64)
        e %= self.m
        t = self._tables()
        return self._frob_ix(A, e) if t is None else t.frob[e].take(A).astype(np.int64)

    def _add_ix(self, A, B):
        i = A - 1
        j = B - 1
        z = self._zech[(j - i) % self.order]
        s = np.where(z < 0, 0, (i + z) % self.order + 1)
        return np.where(A == 0, B, np.where(B == 0, A, s))

    def _neg_ix(self, A):
        if self.p == 2:
            return A
        return np.where(A == 0, 0, (A - 1 + self.order // 2) % self.order + 1)

    def _mul_ix(self, A, B):
        return np.where((A == 0) | (B == 0), 0, (A + B - 2) % self.order + 1)

    def _inv_ix(self, A):
        return np.where(A == 0, 0, (self.order - (A - 1)) % self.order + 1)

    def _frob_ix(self, A, e: int):
        return np.where(A == 0, 0, (A - 1) * self._pe[e] % self.order + 1)

    def vfold_add(self, A):
        """Field sum of A along its last axis (tree reduction); a 1-D A
        gives one element."""
        A = np.asarray(A, dtype=np.int64)
        if A.shape[-1] == 0:
            return np.zeros(A.shape[:-1], dtype=np.int64)
        while A.shape[-1] > 1:
            if A.shape[-1] & 1:
                A = np.concatenate([A, np.zeros(A.shape[:-1] + (1,), np.int64)], axis=-1)
            A = self.vadd(A[..., 0::2], A[..., 1::2])
        return A[..., 0]

    def packed(self, A):
        """Index encoding -> packed base-p coefficient encoding."""
        return self._pck[np.asarray(A, dtype=np.int64)]

    def unpacked(self, A):
        """Packed encoding -> index encoding."""
        return self._idx[np.asarray(A, dtype=np.int64)]


# weak values: a context lives while some caller or object holds it
_FIELDS: weakref.WeakValueDictionary[tuple, FieldCtx] = weakref.WeakValueDictionary()


def build_field(p: int, h: int, n: int, modulus: list[int] | None = None) -> FieldCtx:
    """The tower context; deterministic given (p, h, n).

    Interned per process: while a context is alive, the same (p, h, n) and
    resolved modulus give the same object, whether the modulus is passed or
    searched.
    """
    key = (p, h, n, None if modulus is None else tuple(modulus))
    ctx = _FIELDS.get(key)
    if ctx is None:
        ctx = FieldCtx(p, h, n, modulus)
        ctx = _FIELDS.setdefault((p, h, n, ctx.modulus), ctx)
        _FIELDS[key] = ctx
    return ctx


def _unpickle_field(p: int, h: int, n: int, modulus: list[int]) -> FieldCtx:
    # a module function of its own, so that pickle saves it by reference
    # even where build_field is wrapped
    return build_field(p, h, n, modulus)
