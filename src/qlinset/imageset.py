"""Image sets Im(f(x)/x), power sums, and exhaustive size surveys.

The dominant cost in every search is set comparison, so images are stored
as dense boolean membership arrays keyed by element index (slot 0 is the
zero element).  Tuple index t encodes (a_0, ..., a_{n-1}) with a_0 most
significant, so ascending t is lexicographic order on tuples and "lex-least
representative" is simply the smallest surviving t.

The tuple-space enumerators key every image, on every field, by one image
row: W = ceil(q^n / 32) little-endian uint32 words, where bit e of the row
(bit e % 32 of word e // 32) is element index e, and element index e >= 1
is g^(e-1).  Sizes are popcounts of rows, and equal images are equal rows.
The enumerators walk the coefficient-tuple space N^n one scalar orbit at a
time.  Scaling every coefficient by c = g^k gives Im(c f) = c Im(f), so
the image of g^k f is the image of f with elements 1..q^n-1 rotated by k
and element 0 kept.  Each nonzero orbit has exactly q^n - 1 members and one
representative, the tuple whose first nonzero coefficient is 1 = g^0; it is
also the orbit's lex-least member.  Only representatives are evaluated
((32^5 - 1)/31 of them at q = 2, n = 5); every other image is a rotation,
and the zero tuple's image is {0}.

One kernel, `_chunk_ratio_masks`, computes image rows on every field: f(x)/x
at x = g^k is the field sum of the gathers a_i g^(k e_i), one `vadd` chain
per k.  The representatives come in blocks that are open digit grids (a
leading 1, fixed digits, a range, then free digits on broadcast axes), so
the chain is an outer sum and only its last `vadd` is as long as the block;
flat tuple arrays pass their digits to the same kernel.  `all_ratio_masks`
fills every other orbit member by axis gathers on the tuple space viewed as
an (N,)*n cube.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import TooLargeForExhaustive
from .gf import FieldCtx, _prime_factors
from .qpoly import QPoly, ratio_exponents

_EXHAUSTIVE_GUARD = 2**32
_MASK_TUPLE_GUARD = 2**26
_CHUNK = 1 << 20  # words of image rows per block of the sampled survey
_REP_BLOCK = 1 << 18  # words of image rows per block of the orbit walk


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
        """The set of the elements with these int encodings; ValueError for
        an index outside [0, q^n), such as INF, which numpy would wrap."""
        idx = np.array(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= ctx.size):
            raise ValueError(f"element index outside [0, {ctx.size})")
        mask = np.zeros(ctx.size, dtype=bool)
        mask[idx] = True
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
    """Exact image set of f(x)/x over nonzero x (the zero map yields {0}).

    The values come from `QPoly.ratio_values`, f's whole-field table
    divided by x.
    """
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
    return int(_power_sums_from_values(ctx, f.ratio_values(), [d])[0])


def _power_sums_from_values(ctx: FieldCtx, values: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """sum over x of values[x]^d for every d in the array ds at once.

    With c_l the number of values equal to g^l, reduced mod p, the sum for d
    is sum_l c_l g^(l d): one exponent table (l d) mod (q^n - 1) over the
    distinct l, scaled by c_l and folded along the l axis with vadd.
    """
    logs, counts = np.unique(values[values > 0] - 1, return_counts=True)
    counts %= ctx.p
    logs, counts = logs[counts > 0], counts[counts > 0]
    # c_l as an element of the prime field: the element whose packed encoding is c_l
    terms = ctx.vmul(ctx._idx[counts], np.multiply.outer(ds, logs) % ctx.order + 1)
    return ctx.vfold_add(terms)


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


def strict_linear_mask(ctx: FieldCtx, digits: list) -> np.ndarray:
    """Boolean mask of tuples whose polynomial is strictly F_q-linear, in the
    shape the digit arrays (or ints) broadcast to.

    Strict linearity means gcd(n, {i > 0 : a_i != 0}) = 1: for every prime
    divisor l of n some coefficient with index not divisible by l is nonzero.
    """
    n = ctx.n
    shape = np.broadcast_shapes(*map(np.shape, digits))
    nonzero = [np.not_equal(d, 0) for d in digits]
    strict = np.zeros(shape, dtype=bool)
    for i in range(1, n):
        strict |= nonzero[i]
    for ell in _prime_factors(n):
        hit = np.zeros(shape, dtype=bool)
        for i in range(1, n):
            if i % ell:
                hit |= nonzero[i]
        strict &= hit
    return strict


# ------------------------------------------------ exhaustive mask enumeration

def _words(ctx: FieldCtx) -> int:
    """W, the number of 32-bit words in one image row."""
    return -(-ctx.size // 32)


def _pack_rows(members: np.ndarray) -> np.ndarray:
    """(R, q^n) membership arrays as (R, W) image rows."""
    members = np.pad(members, ((0, 0), (0, -members.shape[1] % 32)))
    return np.packbits(members, axis=1, bitorder="little").view("<u4")


def _chunk_ratio_masks(ctx: FieldCtx, digits: list, bit_table: np.ndarray) -> np.ndarray:
    """Image rows (bit e of a row = element index e) of the tuples whose
    coefficients a_i are digits[i], in the shape the digits broadcast to.

    The digits are flat arrays of one length (`_tuple_digits`) or an open
    grid (`_representative_blocks`).  f(x)/x at x = g^k is the field sum of
    the terms a_i g^(k e_i), each a gather from `_scale_row(ctx, k e_i)`;
    on an open grid the sum is an outer sum, and only its last vadd is as
    long as the block.
    """
    shape = np.broadcast_shapes(*map(np.shape, digits))
    rows = np.zeros(shape + bit_table.shape[1:], dtype=bit_table.dtype)
    es = ratio_exponents(ctx)
    for k in range(ctx.order):
        terms = (_scale_row(ctx, k * e)[d] for e, d in zip(es, digits))
        rows |= np.take(bit_table, functools.reduce(ctx.vadd, terms), axis=0)
    return rows


def _bit_table(ctx: FieldCtx) -> np.ndarray:
    """One-hot (q^n, W) table: row e is the image row of {e}."""
    e = np.arange(ctx.size)
    bit = np.zeros((ctx.size, _words(ctx)), dtype="<u4")
    bit[e, e >> 5] = 1 << (e & 31)
    return bit


def _representative_blocks(ctx: FieldCtx):
    """Ascending blocks (T, grid) of orbit representatives: the nonzero
    tuples whose first nonzero coefficient is 1 = g^0.

    With the leading 1 at position j, the representatives are the contiguous
    range [N^(n-1-j), 2 N^(n-1-j)); later leading positions give smaller
    indices.  In a block the last `free` digits are free, the digit before
    them runs over a range and the digits before that are fixed; `free` is
    n-1-j, or `most` if fewer, the most digits whose N^most image rows fit
    in _REP_BLOCK words.  grid[i] is digit i: an int, or an arange on its
    own broadcast axis, so the grid is open and T lists its tuple indices in
    C order.  A block holds at most _REP_BLOCK words.
    """
    N, n = ctx.size, ctx.n
    step = max(1, _REP_BLOCK // _words(ctx))
    most = 0
    while N ** (most + 1) <= step:
        most += 1
    for j in reversed(range(n)):
        free = min(n - 1 - j, most)
        span = N**free
        axes = [np.arange(N).reshape((N,) + (1,) * (free - 1 - a)) for a in range(free)]
        # h is the tuple index of the digits before the free ones
        lo = h = N ** (n - 1 - j - free)
        while h < 2 * lo:
            end = min(h + step // span, 2 * lo, (h // N + 1) * N)
            fixed = [h // N ** (n - free - 1 - i) % N for i in range(n - free - 1)]
            run = np.arange(h % N, h % N + end - h).reshape((end - h,) + (1,) * free)
            yield np.arange(h * span, end * span, dtype=np.int64), fixed + [run] + axes
            h = end


def _scale_row(ctx: FieldCtx, k: int) -> np.ndarray:
    """row[d] = element index of g^k * d."""
    row = np.zeros(ctx.size, dtype=np.int64)
    row[1:] = (np.arange(ctx.order, dtype=np.int64) + k) % ctx.order + 1
    return row


def _scaled_tuples(ctx: FieldCtx, digits: list[np.ndarray], row: np.ndarray) -> np.ndarray:
    """Tuple index of c times each tuple, with row = _scale_row(ctx, k) for c = g^k."""
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
    The image row of each tuple (one or two words) is read as one `<u4` or
    `<u8` integer, bit e = element index e.  One row per scalar orbit is
    evaluated, block by block of `_representative_blocks`.  The rest are
    rotations, filled by axis gathers on the tuple space viewed as an
    (N,)*n cube: the tuples whose first nonzero digit sits at j and is
    g^k are g^k times the representatives, so their slab is the slab of the
    representatives, rotated by k and read at `_scale_row(ctx, -k)` along
    every later axis.  The q = 2, n = 5 space (32^5 tuples, (32^5 - 1)/31
    nonzero orbits) takes about 0.8 s on a 2-core box.
    """
    N, n = ctx.size, ctx.n
    total = N**n
    if N > 64:
        raise TooLargeForExhaustive(f"field of size {N} has no 64-bit image mask")
    if total > _MASK_TUPLE_GUARD:
        raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^26")
    bit = _bit_table(ctx)
    as_int = np.dtype(f"<u{4 * bit.shape[1]}")
    out = np.empty(total, dtype=as_int)
    out[0] = 1
    for T, grid in _representative_blocks(ctx):
        rows = _chunk_ratio_masks(ctx, grid, bit).reshape(T.size, -1)
        out[T[0] : T[-1] + 1] = rows.view(as_int)[:, 0]
    cube = out.reshape((N,) * n)
    for j in range(n):
        slab = cube[(0,) * j]
        reps = slab[1, ...]
        bufs = np.empty_like(reps), np.empty_like(reps)
        for k in range(1, ctx.order):
            row, src = _scale_row(ctx, -k), _rotate(reps, k, ctx.order)
            for ax in range(reps.ndim):
                dst = slab[k + 1] if ax == reps.ndim - 1 else bufs[ax % 2]
                src = np.take(src, row, axis=ax, out=dst, mode="clip")
            slab[k + 1] = src  # already in place unless the slab is 0-d
    return out


def mask_of_imageset(S: ImageSet) -> int:
    """The same bitmask encoding used by all_ratio_masks, for one set."""
    return int.from_bytes(np.packbits(S.mask, bitorder="little").tobytes(), "little")


def equal_image_tuples(ctx: FieldCtx, f: QPoly, masks: np.ndarray | None = None) -> np.ndarray:
    """Tuple indices of every g (any linearity) with Im(g(x)/x) = Im(f(x)/x).

    With `masks` (a cached all_ratio_masks array of this field) this is a
    single vector compare.  Otherwise it walks the orbit representatives,
    guarded at 2^26 tuples: g^k r matches when the image row of r equals
    that of g^(-k) Im(f).  ValueError when f lives in another context.
    """
    if f.ctx is not ctx:
        raise ValueError("polynomials live in different field contexts")
    total = ctx.size**ctx.n
    target = image_of_ratio(f)
    if masks is not None:
        want = mask_of_imageset(target)
        # f is its own partner, so masks of another field or modulus show
        # themselves at f's own tuple
        if masks.shape != (total,) or int(masks[coeffs_to_tuple(ctx, f.coeffs)]) != want:
            raise ValueError(
                f"masks of shape {masks.shape} and dtype {masks.dtype} are not "
                f"the ratio masks of the {total} tuples of this field"
            )
        return np.flatnonzero(masks == masks.dtype.type(want))
    if total > _MASK_TUPLE_GUARD:
        raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^26")
    bit = _bit_table(ctx)
    wants = _scaled_image_rows(target)
    # the zero tuple is the one tuple whose image is {0}
    hits = [np.zeros(int(target.size == 1 and target.mask[0]), dtype=np.int64)]
    for T, grid in _representative_blocks(ctx):
        rows = _chunk_ratio_masks(ctx, grid, bit).reshape(T.size, -1)
        keep = np.isin(rows[:, 0], wants[:, 0])
        if not keep.any():
            continue
        rows = rows[keep]
        digits = _tuple_digits(ctx, T[keep])
        for k in range(ctx.order):
            sel = (rows == wants[k]).all(axis=1)
            if sel.any():
                hits.append(_scaled_tuples(ctx, [d[sel] for d in digits], _scale_row(ctx, k)))
    return np.sort(np.concatenate(hits))


def _scaled_image_rows(S: ImageSet) -> np.ndarray:
    """(q^n - 1, W) rows: row k is the image row of g^(-k) S."""
    ctx = S.ctx
    e = np.arange(ctx.size, dtype=np.int64)
    step = max(1, _REP_BLOCK // ctx.size)
    blocks = []
    for lo in range(0, ctx.order, step):
        ks = np.arange(lo, min(lo + step, ctx.order), dtype=np.int64)[:, None]
        # g^(-k) g^(e-1) is in g^(-k) S exactly when g^(e-1+k) is in S
        src = np.where(e > 0, (e - 1 + ks) % ctx.order + 1, 0)
        blocks.append(_pack_rows(S.mask[src]))
    return np.concatenate(blocks)


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
        if samples is None or samples < 1:
            raise ValueError("sample mode needs a positive sample count")
        rng = np.random.default_rng(seed)
        draw = rng.integers(0, total, size=samples, dtype=np.int64)
        step = max(1, _CHUNK // _words(ctx))
        blocks = (
            (T, _tuple_digits(ctx, T))
            for T in (draw[lo : lo + step] for lo in range(0, samples, step))
        )
        weight = 1
    else:
        raise ValueError(f"unknown survey mode {mode!r}")

    counts: dict[int, int] = {}
    reps: dict[int, int] = {}
    for T, digits in blocks:
        strict = strict_linear_mask(ctx, digits).ravel()
        if not strict.any():
            continue
        T = T[strict]
        sizes = _sizes_for_tuples(ctx, digits).ravel()[strict]
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


def _sizes_for_tuples(ctx: FieldCtx, digits: list) -> np.ndarray:
    """|Im(f(x)/x)| of the tuples with these digits, as `_chunk_ratio_masks`."""
    rows = _chunk_ratio_masks(ctx, digits, _bit_table(ctx))
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)
