"""Image sets Im(f(x)/x), power sums, and exhaustive size surveys.

The dominant cost in every search is set comparison, so images are stored
as dense boolean membership arrays keyed by element index (slot 0 is the
zero element).  Tuple index t encodes (a_0, ..., a_{n-1}) with a_0 most
significant, so ascending t is lexicographic order on tuples and "lex-least
representative" is simply the smallest surviving t.  One encoder,
`coeffs_to_tuple`, and one decoder, `_tuple_digits`, convert between the
two, on ints or on arrays.

The tuple-space enumerators key every image, on every field, by one image
row: W = ceil(q^n / 32) little-endian uint32 words, where bit e of the row
(bit e % 32 of word e // 32) is element index e, and element index e >= 1
is g^(e-1).  Sizes are popcounts of rows, and equal images are equal rows.

Two symmetries cut the coefficient-tuple space N^n down.  Scaling every
coefficient by c = g^k gives Im(c f) = c Im(f), so the image of g^k f is
the image of f with elements 1..q^n-1 rotated by k and element 0 kept.
Each nonzero orbit has exactly q^n - 1 members and one representative, the
tuple whose first nonzero coefficient is 1 = g^0; it is also the orbit's
lex-least member.  And f(x)/x = a_0 + h(x)/x with h = f - a_0 x, so
Im(f) = a_0 + Im(h).  By the a_0 identity, a_0 is the sum of the elements
of Im(f): summed over x != 0, f(x)/x gives -a_0, as only the x term of f
contributes, and each y of the image is taken by the q^d - 1 = -1 (mod p)
nonzero x of the kernel of f - y x.  So every g with the image of f has
b_0 = a_0.  The exhaustive paths evaluate only the representatives with
a_0 = 0 ((32^4 - 1)/31 = 33,825 at q = 2, n = 5); every other image is a
rotation of one of theirs translated by a_0, or {a_0} for (a_0, 0, ..., 0).

One kernel, `_chunk_ratio_masks`, computes image rows on every field: f(x)/x
at x = g^k is the field sum of the gathers a_i g^(k e_i), one `vadd` chain
per k.  The representatives come in blocks that are open digit grids (a
leading 1, fixed digits, a range, then free digits on broadcast axes), so
the chain is an outer sum and only its last `vadd` is as long as the block;
flat tuple arrays, such as the sampled survey's draws, pass their digits to
the same kernel.  One loop, `_image_rows`, turns blocks of either kind into
rows of at most _REP_BLOCK words, for `all_ratio_masks`, the one walk of
`equal_image_tuple_lists` for any number of targets, and
`survey_image_sizes`.  `all_ratio_masks` fills the a_0 = 1 representatives
by translating their a_0 = 0 half of the tuple space by 1, and each other
orbit member is the one before it rotated by 1.  Scaling by g^k and
Frobenius read the field's own `vmul` and `vfrob`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import TooLargeForExhaustive
from .gf import FieldCtx
from .qpoly import QPoly, ratio_exponents

_EXHAUSTIVE_GUARD = 2**32
_MASK_TUPLE_GUARD = 2**26
_REP_BLOCK = 1 << 18  # words of image rows per block of tuples


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
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.int64)
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
    return ImageSet.from_indices(f.ctx, f.ratio_values())


def images_equal(f: QPoly, g: QPoly) -> bool:
    if f.ctx is not g.ctx:
        raise ValueError("polynomials live in different field contexts")
    return image_of_ratio(f) == image_of_ratio(g)


def direction_bounds(ctx: FieldCtx) -> tuple[int, int]:
    """[q^(n-1)+1, (q^n-1)/(q-1)], the size window for strictly F_q-linear f;
    [1, 1] at n = 1, where every such f is a scalar map."""
    hi = (ctx.size - 1) // (ctx.q - 1)
    return min(ctx.q ** (ctx.n - 1) + 1, hi), hi


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

def coeffs_to_tuple(ctx: FieldCtx, coeffs):
    """Tuple index of (a_0, ..., a_{n-1}), by Horner on N = q^n; the
    coefficients are ints or arrays of one shape."""
    t = 0
    for c in coeffs:
        t = t * ctx.size + c
    return t


def _tuple_digits(ctx: FieldCtx, T) -> list:
    """Coefficients (a_0, ..., a_{n-1}) of tuple index T, an int or an array."""
    N, n = ctx.size, ctx.n
    return [T // N ** (n - 1 - i) % N for i in range(n)]


def poly_from_tuple(ctx: FieldCtx, t: int) -> QPoly:
    return QPoly(ctx, _tuple_digits(ctx, t))


def strict_linear_mask(ctx: FieldCtx, digits: list) -> np.ndarray:
    """Boolean mask of tuples whose polynomial is strictly F_q-linear, in the
    shape the digit arrays (or ints) broadcast to.

    Strict linearity is `QPoly.is_strictly_linear`: some coefficient is
    nonzero, and gcd(n, {i > 0 : a_i != 0}) = 1, so at n = 1 every nonzero
    tuple is strict.
    """
    nonzero = [np.not_equal(d, 0) for d in digits]
    s = ctx.n
    for i in range(1, ctx.n):
        s = np.gcd(s, nonzero[i] * i)
    return functools.reduce(np.logical_or, nonzero) & (s == 1)


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


def _image_rows(ctx: FieldCtx, blocks):
    """(T, digits, rows) for each block (T, digits) of tuples, as
    `_representative_blocks` or `_tuple_digits` give them: rows[i], of W
    words, is the image row of tuple T[i]."""
    bit = _bit_table(ctx)
    for T, digits in blocks:
        yield T, digits, _chunk_ratio_masks(ctx, digits, bit).reshape(T.size, -1)


def _bit_table(ctx: FieldCtx) -> np.ndarray:
    """One-hot (q^n, W) table: row e is the image row of {e}."""
    return _pack_rows(np.eye(ctx.size, dtype=bool))


def _representative_blocks(ctx: FieldCtx):
    """Ascending blocks (T, grid) of the orbit representatives with
    a_0 = 0: the tuples whose first nonzero coefficient is 1 = g^0 and sits
    at j >= 1.

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
    for j in reversed(range(1, n)):
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
    return ctx.vmul(ctx.from_exp(k), np.arange(ctx.size))


def _rotate(masks, order: int):
    """Bitmask of Im(g f) from that of Im(f): bits 1..order rotate by 1."""
    nonzero = ((1 << order) - 1) << 1
    hi = masks & nonzero
    return ((hi << 1) | (hi >> (order - 1))) & nonzero | (masks & 1)


def _translate(ctx: FieldCtx, rows: np.ndarray, c: int) -> np.ndarray:
    """Bitmasks of c + S from the contiguous bitmasks (`<u4` or `<u8`) of
    the sets S: bit e moves to bit vadd(c, e), one lookup table per byte."""
    width = rows.dtype.itemsize
    moved = np.zeros(8 * width, dtype=rows.dtype)
    moved[: ctx.size] = rows.dtype.type(1) << ctx.vadd(c, np.arange(ctx.size)).astype(rows.dtype)
    byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
    table = np.bitwise_or.reduce(moved.reshape(width, 1, 8) * byte_bits.astype(rows.dtype), axis=2)
    byte = rows.view(np.uint8).reshape(-1, width)
    return functools.reduce(np.bitwise_or, (table[b][byte[:, b]] for b in range(width)))


def all_ratio_masks(ctx: FieldCtx) -> np.ndarray:
    """Image-set bitmask of every coefficient tuple, indexed by tuple index.

    Feasible only for fields of at most 64 elements and at most 2^26 tuples.
    The image row of each tuple (one or two words) is read as one `<u4` or
    `<u8` integer, bit e = element index e.  Only the representatives with
    a_0 = 0, `_representative_blocks`, are evaluated, block by block
    through `_image_rows`.  The tuples whose first nonzero digit sits at j
    and is g^k fill row k + 1 of slab j, the (N, N^(n-1-j)) view of the
    tuples with j leading zeros: row k + 1 at digits d is row k at g^-1 d,
    rotated by 1, so each row is one `_rotate` and one gather.  Once the
    slabs j >= 1 fill the a_0 = 0 half, the a_0 = 1 representatives are
    its `_translate` by 1, as f(x)/x = a_0 + h(x)/x.  The q = 2, n = 5
    space (32^5 tuples) takes about 0.5 s on a 2-core box.
    """
    N, n = ctx.size, ctx.n
    total = N**n
    if N > 64:
        raise TooLargeForExhaustive(f"field of size {N} has no 64-bit image mask")
    if total > _MASK_TUPLE_GUARD:
        raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^26")
    as_int = np.dtype(f"<u{4 * _words(ctx)}")
    out = np.empty(total, dtype=as_int)
    out[0] = 1
    for T, _, rows in _image_rows(ctx, _representative_blocks(ctx)):
        out[T[0] : T[-1] + 1] = rows.view(as_int)[:, 0]
    # P[d] is the index of g^-1 d among the tuples of n - 1 digits, P[:N^m] of m
    P = np.ravel(coeffs_to_tuple(ctx, np.ix_(*[_scale_row(ctx, -1)] * (n - 1))))
    for j in reversed(range(n)):
        slab = out[: N ** (n - j)].reshape(N, -1)
        if j == 0:
            slab[1] = _translate(ctx, slab[0], 1)
        for k in range(1, ctx.order):
            slab[k + 1] = _rotate(slab[k], ctx.order)[P[: slab.shape[1]]]
    return out


def equal_image_tuple_lists(ctx: FieldCtx, fs) -> list:
    """For each f in fs, the ascending tuple indices of every g (any
    linearity) with Im(g(x)/x) = Im(f(x)/x), guarded at 2^26 tuples;
    ValueError when some f lives in another context.

    By the a_0 identity (the module docstring) such a g has b_0 = a_0, the
    sum of the elements of Im(f), so g is a_0 x + g^k r for a representative
    r with a_0 = 0, or a_0 x alone.  One walk of those representatives
    serves every f: a_0 x + g^k r matches f when the image row of r equals
    that of g^(-k) (Im(f) - a_0).
    """
    if not fs:
        return []
    if any(f.ctx is not ctx for f in fs):
        raise ValueError("polynomials live in different field contexts")
    total = ctx.size**ctx.n
    if total > _MASK_TUPLE_GUARD:
        raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^26")
    targets = [image_of_ratio(f) for f in fs]
    a0 = [f.coeffs[0] for f in fs]
    # row i of wants is the image row of g^-k (Im(f) - a_0), f = fs[i // order], k = i % order
    wants = np.concatenate([_scaled_image_rows(S, c) for S, c in zip(targets, a0)])
    keys = np.sort(wants[:, 0])
    # (a_0, 0, ..., 0), of tuple index a_0 N^(n-1), is the one tuple whose image is {a_0}
    lead = np.array(a0, dtype=np.int64) * (total // ctx.size)
    owner = [np.flatnonzero([S.size == 1 for S in targets])]
    hits = [lead[owner[0]]]
    for T, _, rows in _image_rows(ctx, _representative_blocks(ctx)):
        at = np.minimum(np.searchsorted(keys, rows[:, 0]), keys.size - 1)
        keep = np.flatnonzero(keys[at] == rows[:, 0])
        r, i = np.nonzero((rows[keep, None] == wants).all(axis=2))
        owner.append(i // ctx.order)
        # a_0 x + g^k r, with g^k the element k + 1
        digits = _tuple_digits(ctx, T[keep[r]])
        scaled = coeffs_to_tuple(ctx, [ctx.vmul(i % ctx.order + 1, d) for d in digits])
        hits.append(scaled + lead[owner[-1]])
    owner, hits = np.concatenate(owner), np.concatenate(hits)
    hits = hits[np.lexsort((hits, owner))]
    return np.split(hits, np.cumsum(np.bincount(owner, minlength=len(fs)))[:-1])


def _scaled_image_rows(S: ImageSet, c: int) -> np.ndarray:
    """(q^n - 1, W) rows: row k is the image row of g^(-k) (S - c)."""
    ctx = S.ctx
    e = np.arange(ctx.size)
    step = max(1, _REP_BLOCK // ctx.size)
    blocks = []
    for lo in range(0, ctx.order, step):
        ks = np.arange(lo, min(lo + step, ctx.order))[:, None]
        # x is in g^(-k) (S - c) exactly when g^k x + c is in S
        blocks.append(_pack_rows(S.mask[ctx.vadd(ctx.vmul(ks + 1, e), c)]))
    return np.concatenate(blocks)


def adjoint_tuple_perm(ctx: FieldCtx, T: np.ndarray) -> np.ndarray:
    """Tuple index of the adjoint polynomial, vectorized over tuple indices:
    as `QPoly.adjoint`, coefficient j of the adjoint is a_{(n-j) mod n}^(q^j)."""
    a, n = _tuple_digits(ctx, T), ctx.n
    return coeffs_to_tuple(ctx, (ctx.vfrob(a[(n - j) % n], ctx.h * j) for j in range(n)))


# ---------------------------------------------------------------- the survey

class SurveyRow(NamedTuple):
    size: int
    count: int
    representative: tuple[int, ...]


def survey_image_sizes(
    ctx: FieldCtx, samples: int | None = None, seed: int = 0
) -> list[SurveyRow]:
    """Histogram of |Im(f(x)/x)| over strictly F_q-linear f.

    Without `samples` the survey covers every coefficient tuple (guarded at
    2^32 tuples) by walking the scalar-orbit representatives with a_0 = 0.
    Strictness and |Im| are invariant under scaling, and under a_0
    translation (Im(a_0 x + h) = a_0 + Im(h), and strictness reads only
    a_1..a_{n-1}); every nonzero orbit has q^n - 1 members, so each
    representative counts (q^n - 1) q^n times, and as the lex-least tuple
    it stands for it is the candidate for the size's representative.  The
    tuples it misses, the scalar maps (a_0, 0, ..., 0), are strict only at
    n = 1, where they are the whole survey.  With
    `samples` (ValueError unless positive) it counts that many tuples drawn
    from a generator seeded by `seed`.  Both read the sizes as popcounts of
    `_image_rows`, and one lex-least representative tuple is kept per
    occurring size.
    """
    total = ctx.size**ctx.n
    if samples is None:
        if total > _EXHAUSTIVE_GUARD:
            raise TooLargeForExhaustive(f"{total} coefficient tuples exceed 2^32")
        if ctx.n == 1:
            return [SurveyRow(1, ctx.order, (1,))]
        blocks, weight = _representative_blocks(ctx), ctx.order * ctx.size
    elif samples < 1:
        raise ValueError(f"samples = {samples} is no positive sample count")
    else:
        draw = np.random.default_rng(seed).integers(0, total, size=samples, dtype=np.int64)
        step = max(1, _REP_BLOCK // _words(ctx))
        blocks = ((T, _tuple_digits(ctx, T)) for T in np.split(draw, range(step, samples, step)))
        weight = 1

    counts: dict[int, int] = {}
    reps: dict[int, int] = {}
    for T, digits, rows in _image_rows(ctx, blocks):
        strict = strict_linear_mask(ctx, digits).ravel()
        T = T[strict]
        sizes = np.bitwise_count(rows[strict]).sum(axis=1, dtype=np.int64)
        for s in np.flatnonzero(np.bincount(sizes)).tolist():
            sel = sizes == s
            counts[s] = counts.get(s, 0) + weight * int(sel.sum())
            cand = int(T[sel].min())
            if s not in reps or cand < reps[s]:
                reps[s] = cand
    return [
        SurveyRow(s, counts[s], tuple(_tuple_digits(ctx, reps[s]))) for s in sorted(counts)
    ]
