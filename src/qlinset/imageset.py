"""Image sets Im(f(x)/x), power sums, and exhaustive size surveys.

The dominant cost in every search is set comparison, so images are stored
as dense boolean membership arrays keyed by element index (slot 0 is the
zero element).  Tuple index t encodes (a_0, ..., a_{n-1}) with a_0 most
significant, so ascending t is lexicographic order on tuples and "lex-least
representative" is simply the smallest surviving t.

The exhaustive enumerators walk the coefficient-tuple space N^n one scalar
orbit at a time.  Scaling every coefficient by c = g^k gives Im(c f) =
c Im(f), so in a bitmask (bit e = element index e, bit e >= 1 = g^(e-1))
the image of g^k f is the image of f with bits 1..q^n-1 rotated by k and
bit 0 kept.  Each nonzero orbit has exactly q^n - 1 members and one
representative, the tuple whose first nonzero coefficient is 1 = g^0; it is
also the orbit's lex-least member.  Only representatives are evaluated
((32^5 - 1)/31 of them at q = 2, n = 5); every other mask is a rotation,
and the zero tuple's image is {0}.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from .errors import TooLargeForExhaustive
from .gf import FieldCtx, _prime_factors
from .qpoly import QPoly, ratio_exponents, ratio_values_at

_EXHAUSTIVE_GUARD = 2**32
_MASK_TUPLE_GUARD = 2**26
_CHUNK = 1 << 20  # tuples per block in the sampled survey and the subset filter
_REP_BLOCK = 1 << 18  # representatives per block of the orbit walk


class ImageSet:
    """A set of elements of F_{q^n} as a dense membership array.

    It holds any such set: ratio images {f(x)/x : x != 0}, and the slope
    images of them under the semilinear group (`moebius.moebius_image`).
    """

    __slots__ = ("ctx", "mask", "size")

    def __init__(self, ctx: FieldCtx, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (ctx.size,):
            raise ValueError("membership array must have one slot per field element")
        mask.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "size", int(mask.sum()))

    def __setattr__(self, *_):
        raise AttributeError("ImageSet is immutable")

    def __reduce__(self):
        return ImageSet, (self.ctx, self.mask)

    @classmethod
    def from_indices(cls, ctx: FieldCtx, indices) -> "ImageSet":
        mask = np.zeros(ctx.size, dtype=bool)
        mask[list(indices)] = True
        return cls(ctx, mask)

    def __len__(self):
        return self.size

    def __contains__(self, e: int) -> bool:
        # INF and other non-elements are never members
        return 0 <= e < self.ctx.size and bool(self.mask[e])

    def __eq__(self, other):
        return (
            isinstance(other, ImageSet)
            and self.ctx is other.ctx
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash(self.mask.tobytes())

    def indices(self) -> np.ndarray:
        """Sorted element indices of the members."""
        return np.flatnonzero(self.mask).astype(np.int64)

    def __repr__(self):
        return f"ImageSet(|S|={self.size} of {self.ctx.size})"


def image_of_ratio(f: QPoly) -> ImageSet:
    """Exact image set of f(x)/x over nonzero x (the zero map yields {0})."""
    ctx = f.ctx
    values = f.ratio_values()
    mask = np.zeros(ctx.size, dtype=bool)
    mask[values] = True
    return ImageSet(ctx, mask)


def images_equal(f: QPoly, g: QPoly) -> bool:
    if f.ctx is not g.ctx:
        raise ValueError("polynomials live in different field contexts")
    return image_of_ratio(f) == image_of_ratio(g)


def direction_bounds(ctx: FieldCtx) -> tuple[int, int]:
    """[q^(n-1)+1, (q^n-1)/(q-1)], the size window for strictly F_q-linear f."""
    return ctx.q ** (ctx.n - 1) + 1, (ctx.size - 1) // (ctx.q - 1)


def power_sum(f: QPoly, d: int) -> int:
    """sum over nonzero x of (f(x)/x)^d, computed exactly in the field."""
    ctx = f.ctx
    if not 1 <= d <= ctx.size - 1:
        raise ValueError(f"d = {d} outside [1, {ctx.size - 1}]")
    return _power_sum_from_values(ctx, f.ratio_values(), d)


def _power_sum_from_values(ctx: FieldCtx, values: np.ndarray, d: int) -> int:
    nz = values[values > 0] - 1
    if nz.size == 0:
        return 0
    idx = (nz * (d % ctx.order)) % ctx.order if ctx.order > 1 else nz * 0
    counts = np.bincount(idx, minlength=ctx.order) % ctx.p
    sup = np.flatnonzero(counts)
    elems = np.repeat(sup + 1, counts[sup])
    return ctx.vfold_add(elems)


def _power_sums_from_values(ctx: FieldCtx, values: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """sum over x of values[x]^d for every d in the array ds at once.

    With c_l the number of values equal to g^l, reduced mod p, the sum for d
    is sum_l c_l g^(l d): one exponent table (l d) mod (q^n - 1) over the
    distinct l, scaled by c_l and folded along the l axis with vadd.
    """
    logs, counts = np.unique(values[values > 0] - 1, return_counts=True)
    counts %= ctx.p
    logs, counts = logs[counts > 0], counts[counts > 0]
    if logs.size == 0:
        return np.zeros(len(ds), dtype=np.int64)
    # c_l as an element of the prime field: the element whose packed encoding is c_l
    terms = ctx.vmul(ctx._idx[counts], np.multiply.outer(ds, logs) % ctx.order + 1)
    while terms.shape[1] > 1:
        if terms.shape[1] & 1:
            terms = np.pad(terms, ((0, 0), (0, 1)))
        terms = ctx.vadd(terms[:, 0::2], terms[:, 1::2])
    return terms[:, 0]


# ------------------------------------------------------- tuple-space helpers

def tuple_to_coeffs(ctx: FieldCtx, t: int) -> tuple[int, ...]:
    N, n = ctx.size, ctx.n
    return tuple((t // N ** (n - 1 - i)) % N for i in range(n))


def coeffs_to_tuple(ctx: FieldCtx, coeffs) -> int:
    N, n = ctx.size, ctx.n
    return sum(int(c) * N ** (n - 1 - i) for i, c in enumerate(coeffs))


def poly_from_tuple(ctx: FieldCtx, t: int) -> QPoly:
    return QPoly(ctx, tuple_to_coeffs(ctx, t))


def _tuple_digits(ctx: FieldCtx, T: np.ndarray) -> list[np.ndarray]:
    N, n = ctx.size, ctx.n
    return [(T // N ** (n - 1 - i)) % N for i in range(n)]


def strict_linear_mask(ctx: FieldCtx, digits: list[np.ndarray]) -> np.ndarray:
    """Boolean mask of tuples whose polynomial is strictly F_q-linear.

    Strict linearity means gcd(n, {i > 0 : a_i != 0}) = 1: for every prime
    divisor l of n some coefficient with index not divisible by l is nonzero.
    """
    n = ctx.n
    some_high = np.zeros(digits[0].shape, dtype=bool)
    for i in range(1, n):
        some_high |= digits[i] != 0
    strict = some_high.copy()
    for ell in _prime_factors(n):
        hit = np.zeros(digits[0].shape, dtype=bool)
        for i in range(1, n):
            if i % ell:
                hit |= digits[i] != 0
        strict &= hit
    return strict


# ------------------------------------------------ exhaustive mask enumeration

def _mask_dtype(N: int):
    if N <= 16:
        return np.uint16
    if N <= 32:
        return np.uint32
    if N <= 64:
        return np.uint64
    return None


_TERM_TABLE_CACHE: "weakref.WeakKeyDictionary[FieldCtx, list]" = weakref.WeakKeyDictionary()


def _packed_term_tables(ctx: FieldCtx):
    # tabs[i][k][a] = packed value of a * g^(k*(q^i-1)) for element index a
    tabs = _TERM_TABLE_CACHE.get(ctx)
    if tabs is None:
        ordr = ctx.order
        ks = np.arange(ordr, dtype=np.int64)
        tabs = []
        for e in ratio_exponents(ctx):
            per_i = []
            for k in range(ordr):
                arr = np.zeros(ctx.size, dtype=np.int64)
                arr[1:] = ctx._pck[1 + (ks + k * e) % ordr]
                per_i.append(arr)
            tabs.append(per_i)
        _TERM_TABLE_CACHE[ctx] = tabs
    return tabs


def _chunk_ratio_masks(ctx: FieldCtx, T: np.ndarray, bit_table: np.ndarray) -> np.ndarray:
    """Image-set bitmask (bit position = element index) for each tuple in T."""
    digits = _tuple_digits(ctx, T)
    mask = np.zeros(T.size, dtype=bit_table.dtype)
    ordr, n = ctx.order, ctx.n
    if ctx.p == 2:
        tabs = _packed_term_tables(ctx)
        idx_of = ctx._idx
        for k in range(ordr):
            acc = tabs[0][k][digits[0]]
            for i in range(1, n):
                acc ^= tabs[i][k][digits[i]]
            mask |= bit_table[idx_of[acc]]
    else:
        for k in range(ordr):
            mask |= bit_table[ratio_values_at(ctx, digits, k)]
    return mask


def _bit_table(ctx: FieldCtx) -> np.ndarray:
    dt = _mask_dtype(ctx.size)
    if dt is None:
        raise TooLargeForExhaustive(
            f"field of size {ctx.size} too large for bitmask image enumeration"
        )
    return (1 << np.arange(ctx.size, dtype=np.uint64)).astype(dt)


def _representative_blocks(ctx: FieldCtx):
    """Ascending blocks of orbit representatives: the nonzero tuples whose
    first nonzero coefficient is 1 = g^0.

    With the leading coefficient at position j, the representatives are
    1 * N^(n-1-j) plus a free tail, the contiguous range [N^(n-1-j),
    2 N^(n-1-j)); later leading positions give smaller indices.
    """
    N, n = ctx.size, ctx.n
    for j in reversed(range(n)):
        lo = N ** (n - 1 - j)
        for start in range(lo, 2 * lo, _REP_BLOCK):
            yield np.arange(start, min(start + _REP_BLOCK, 2 * lo), dtype=np.int64)


def _scale_table(ctx: FieldCtx) -> np.ndarray:
    """scale[k, d] = element index of g^k * d."""
    scale = np.zeros((ctx.order, ctx.size), dtype=np.int64)
    ks = np.arange(ctx.order, dtype=np.int64)[:, None]
    scale[:, 1:] = (np.arange(ctx.order, dtype=np.int64) + ks) % ctx.order + 1
    return scale


def _scaled_tuples(ctx: FieldCtx, digits: list[np.ndarray], row: np.ndarray) -> np.ndarray:
    """Tuple index of c times each tuple, with row = scale[k] for c = g^k."""
    out = row[digits[0]]
    for d in digits[1:]:
        out *= ctx.size
        out += row[d]
    return out


def _rotate(masks, k: int, order: int):
    """Bitmask of Im(g^k f) from that of Im(f): bits 1..order rotate by k."""
    nonzero = ((1 << order) - 1) << 1
    hi = masks & nonzero
    return ((hi << k) | (hi >> (order - k))) & nonzero | (masks & 1)


def all_ratio_masks(ctx: FieldCtx) -> np.ndarray:
    """Image-set bitmask of every coefficient tuple, indexed by tuple index.

    Feasible only for fields of at most 64 elements and at most 2^26 tuples.
    One mask per scalar orbit is evaluated and the rest are rotations of it;
    the q=2, n=5 space (32^5 tuples, (32^5 - 1)/31 nonzero orbits) takes 1-2 s.
    """
    total = ctx.size**ctx.n
    if total > _MASK_TUPLE_GUARD:
        raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^26")
    bit = _bit_table(ctx)
    scale = _scale_table(ctx)
    out = np.empty(total, dtype=bit.dtype)
    out[0] = bit[0]
    for T in _representative_blocks(ctx):
        masks = _chunk_ratio_masks(ctx, T, bit)
        digits = _tuple_digits(ctx, T)
        for k in range(ctx.order):
            out[_scaled_tuples(ctx, digits, scale[k])] = _rotate(masks, k, ctx.order)
    return out


def mask_of_imageset(S: ImageSet) -> int:
    """The same bitmask encoding used by all_ratio_masks, for one set."""
    bit = _bit_table(S.ctx)
    acc = bit.dtype.type(0)
    for i in S.indices():
        acc |= bit[i]
    return int(acc)


def equal_image_tuples(ctx: FieldCtx, f: QPoly, masks: np.ndarray | None = None) -> np.ndarray:
    """Tuple indices of every g (any linearity) with Im(g(x)/x) = Im(f(x)/x).

    With `masks` (a cached all_ratio_masks array) this is a single vector
    compare.  Otherwise fields of <= 64 elements walk the orbit
    representatives: g^k r matches when the mask of r equals the target
    rotated by -k.  Larger fields run a subset filter over the tuple space
    followed by exact per-survivor verification.
    """
    total = ctx.size**ctx.n
    target = image_of_ratio(f)
    if masks is not None:
        return np.flatnonzero(masks == masks.dtype.type(mask_of_imageset(target)))
    if _mask_dtype(ctx.size) is not None and total <= _MASK_TUPLE_GUARD:
        return _equal_image_tuples_by_orbit(ctx, target)
    if total > _EXHAUSTIVE_GUARD:
        raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^32")
    return _equal_image_tuples_filtered(ctx, target)


def _equal_image_tuples_by_orbit(ctx: FieldCtx, target: ImageSet) -> np.ndarray:
    bit = _bit_table(ctx)
    tmask = mask_of_imageset(target)
    order = ctx.order
    wants = np.array([_rotate(tmask, -k % order, order) for k in range(order)], dtype=bit.dtype)
    scale = _scale_table(ctx)
    # the zero tuple is the one tuple whose image is {0}
    hits = [np.zeros(int(tmask == bit[0]), dtype=np.int64)]
    for T in _representative_blocks(ctx):
        masks = _chunk_ratio_masks(ctx, T, bit)
        keep = np.isin(masks, wants)
        if not keep.any():
            continue
        masks = masks[keep]
        digits = _tuple_digits(ctx, T[keep])
        for k in range(order):
            sel = masks == wants[k]
            if sel.any():
                hits.append(_scaled_tuples(ctx, [d[sel] for d in digits], scale[k]))
    return np.sort(np.concatenate(hits))


def _equal_image_tuples_filtered(ctx: FieldCtx, target: ImageSet) -> np.ndarray:
    """Subset-filter scan: keep tuples all of whose ratio values lie in the
    target, then verify exact set equality per survivor."""
    total = ctx.size**ctx.n
    tmask = target.mask
    hits = []
    for lo in range(0, total, _CHUNK):
        T = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        digits = _tuple_digits(ctx, T)
        alive = np.ones(T.size, dtype=bool)
        for k in range(ctx.order):
            alive &= tmask[ratio_values_at(ctx, digits, k)]
            if alive.mean() < 0.25 and alive.size > 1024:
                keep = np.flatnonzero(alive)
                T = T[keep]
                digits = [d[keep] for d in digits]
                alive = np.ones(T.size, dtype=bool)
        hits.extend(
            int(t)
            for t in T[alive]
            if image_of_ratio(poly_from_tuple(ctx, int(t))) == target
        )
    return np.asarray(sorted(hits), dtype=np.int64)


def adjoint_tuple_perm(ctx: FieldCtx, T: np.ndarray) -> np.ndarray:
    """Tuple index of the adjoint polynomial, vectorized over tuple indices."""
    digits = _tuple_digits(ctx, T)
    N, n = ctx.size, ctx.n
    out = np.zeros(T.shape, dtype=np.int64)
    ks = np.arange(ctx.order, dtype=np.int64)
    for i in range(n):
        j = (n - i) % n
        e = (ctx.h * j) % ctx.m
        fr = np.zeros(N, dtype=np.int64)
        fr[1:] = (ks * ctx._pe[e]) % ctx.order + 1
        out += fr[digits[i]] * N ** (n - 1 - j)
    return out


# ---------------------------------------------------------------- the survey

class SurveyRow(NamedTuple):
    size: int
    count: int
    representative: tuple[int, ...]


def survey_image_sizes(
    ctx: FieldCtx,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int = 0,
) -> list[SurveyRow]:
    """Histogram of |Im(f(x)/x)| over strictly F_q-linear f.

    Exhaustive mode covers every coefficient tuple (guarded at 2^32 tuples)
    by walking the scalar-orbit representatives: strictness and |Im| are
    scale-invariant and every nonzero orbit has q^n - 1 members, so each
    representative counts q^n - 1 times, and as the orbit's lex-least member
    it is the candidate for the size's representative.  Sample mode draws
    `samples` tuples from a seeded generator.  One lex-least representative
    tuple is kept per occurring size.
    """
    total = ctx.size**ctx.n
    if mode == "exhaustive":
        if total > _EXHAUSTIVE_GUARD:
            raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^32")
        blocks, weight = _representative_blocks(ctx), ctx.order
    elif mode == "sample":
        if not samples:
            raise ValueError("sample mode needs a positive sample count")
        rng = np.random.default_rng(seed)
        draw = rng.integers(0, total, size=samples, dtype=np.int64)
        blocks = (draw[lo : lo + _CHUNK] for lo in range(0, samples, _CHUNK))
        weight = 1
    else:
        raise ValueError(f"unknown survey mode {mode!r}")

    counts: dict[int, int] = {}
    reps: dict[int, int] = {}
    for T in blocks:
        digits = _tuple_digits(ctx, T)
        strict = strict_linear_mask(ctx, digits)
        if not strict.any():
            continue
        T = T[strict]
        sizes = _sizes_for_tuples(ctx, T)
        for s in np.unique(sizes):
            sel = sizes == s
            s = int(s)
            counts[s] = counts.get(s, 0) + weight * int(sel.sum())
            cand = int(T[sel].min())
            if s not in reps or cand < reps[s]:
                reps[s] = cand
    return [
        SurveyRow(s, counts[s], tuple_to_coeffs(ctx, reps[s])) for s in sorted(counts)
    ]


def _sizes_for_tuples(ctx: FieldCtx, T: np.ndarray) -> np.ndarray:
    if _mask_dtype(ctx.size) is not None:
        bit = _bit_table(ctx)
        return np.bitwise_count(_chunk_ratio_masks(ctx, T, bit)).astype(np.int64)
    # wide fields: materialize the value lists and count distinct per row
    digits = _tuple_digits(ctx, T)
    vals = np.empty((T.size, ctx.order), dtype=np.int64)
    for k in range(ctx.order):
        vals[:, k] = ratio_values_at(ctx, digits, k)
    vals.sort(axis=1)
    return 1 + np.count_nonzero(vals[:, 1:] != vals[:, :-1], axis=1)
