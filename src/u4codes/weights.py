"""Hamming / symbol-pair / RT weights and the closed forms driven by t3.

Codewords are weighed on their x-basis coordinate vectors: a coordinate of a
chain-ring codeword is nonzero when any of its four u-components is nonzero
at that position.  Every closed-form statement, and so the enumeration
oracle, refers to the x-basis.

The enumerator takes the x-basis rows as rotations of the at most four
echelon heads (x^n = 1), forms combinations on the base-p digits of the
encodings (uint8 for p <= 128, uint16 above), and stores them as bit
planes: one n-bit mask per bit of each digit of each u-part, packed into
words with the codeword axis innermost.  The word is the narrowest of
uint8, uint16, uint32 and uint64 that holds n positions, and past 64
positions a mask takes ceil(n / 64) uint64 words, so that no operation runs
on more padding than the last word needs.  A position of left - right is
nonzero exactly when some plane of left and right differs there, so a
block of supports is the OR over the planes of left ^ right, and its
weights are popcounts of those words.  Only the planes that can differ are
combined: a u-part that no row reaches is dropped before the combinations
are formed, a plane nonzero in both halves (shared) is XORed per block, the
planes nonzero in one half only (one-sided, where left ^ right is that
half's plane) are ORed into one mask per word of that half once, and a
plane zero in both halves (dead) is dropped.  With S shared planes a
support word takes 2 S - 1 operations plus at most 2 for the masks, in
place of 2 P - 1 over all P planes.

``analyze`` is the closed form alone: t3 and the two minimum weights it
determines.  ``min_weights`` is the enumeration oracle.  Comparing the two,
and t3 with ``codes.torsion_profile``, is left to the caller (the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentSet, NoBranch, OutOfRange, TooLarge
from .codes import CyclicCode, SpanBasis, _check_basis, span_basis
from .sring import basis_transform_rows
from . import torsion

METRICS = ("hamming", "symbol_pair", "rt")


def _check_metrics(metrics) -> None:
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")


def _padded_width(n: int) -> int:
    """Length n rounded up to whole words, at least one (so that the empty
    vector weighs 0).  The word is the narrowest of 8, 16, 32 and 64 bits
    that holds n positions; past 64 positions there are ceil(n / 64) 64-bit
    words."""
    return max(8, 1 << (n - 1).bit_length()) if n <= 64 else 64 * -(-n // 64)


def _pack(support: np.ndarray) -> np.ndarray:
    """(N, width) bool supports, width a ``_padded_width``, as (W, N) words
    of min(width, 64) bits with the codeword axis innermost: position c is
    bit c % bits of word c // bits, and the padding bits are zero."""
    words = np.packbits(support, bitorder="little").view(f"<u{min(support.shape[1], 64) // 8}")
    return words.reshape(support.shape[0], -1).T


def _rot1(words: np.ndarray, n: int) -> np.ndarray:
    """(W, N) packed supports with position c holding position c + 1 mod n."""
    bits = 8 * words.itemsize
    rot = words >> 1
    if words.shape[0] > 1:
        rot[:-1] |= words[1:] << (bits - 1)
    first = words[0] & 1
    first <<= (n - 1) % bits
    rot[-1] |= first
    return rot


def _min_word_weight(words: np.ndarray, n: int, metric: str) -> int:
    """Least weight of the packed length-n supports, the columns of the
    (W, N) words, which are left unchanged."""
    bits = 8 * words.itemsize
    if metric == "rt":
        # the bit length of the least support read as an integer, whose top
        # word is the least top word, and so on down among the columns that tie
        for w in reversed(range(words.shape[0])):
            top = words[w].min()
            if top:
                return bits * w + int(top).bit_length()
            words = words[:, words[w] == 0]
        return 0
    own = None  # an array of this call's, which may be overwritten
    if metric == "symbol_pair":
        own = _rot1(words, n)
        own |= words
        words = own
    if words.dtype == np.uint16:
        # numpy 2.4's bitwise_count has no fast loop for uint16 (about 10x
        # slower per byte than on uint8): count the bytes, and one multiply
        # adds each word's two counts into its high byte
        count_bytes = None if own is None else own.view(np.uint8)
        counts = np.bitwise_count(words.view(np.uint8), out=count_bytes).view(np.uint16)
        counts *= 257
        counts >>= 8
    else:
        counts = np.bitwise_count(words)
    if counts.shape[0] == 1:
        return int(counts.min())
    # a weight is at most bits W: sum the popcounts in the least dtype that holds it
    return int(counts.sum(axis=0, dtype=np.min_scalar_type(bits * words.shape[0])).min())


def _x_rows(field, basis: SpanBasis) -> np.ndarray:
    """The code's F-basis in the x-basis, as (rank, 4n) encodings: block c
    is the rotations x^j h_c for j < n - v_c, h_c the head in the x-basis.

    Only the at most four heads go through ``basis_transform_rows``.  Since
    x^n = 1, x^j h_c is h_c rotated by j positions, one index gather per
    head.  Since x^j = sum_i C(j, i) s^i is unitriangular in the s^i, the
    rotations of h_c span the same F-space as the rows s^j h_c, j < n - v_c,
    which have distinct leading 1s, so they are again rank independent rows.
    """
    n, heads = basis.n, [basis.heads[c] for c in sorted(basis.heads)]
    x_heads = basis_transform_rows(field, np.concatenate([h for _, h in heads]), "s_to_x")
    at = np.arange(n)
    blocks = [
        head[:, at - np.arange(n - v)[:, None]].transpose(1, 0, 2)  # position i holds i - j mod n
        for head, (v, _) in zip(x_heads.reshape(-1, 4, n), heads)
    ]
    return np.concatenate(blocks).reshape(basis.rank, 4 * n)


def _all_combinations(field, rows: np.ndarray) -> np.ndarray:
    """(q^r, m w) base-p digits of all field-linear combinations of the
    (r, w) encoding rows (w = 4n, or n for each u-part the enumerator
    keeps): digit i of coordinate c at i w + c.  Row 0's
    coefficient is the most significant base-q digit of a combination's
    index, each digit running over the encodings in order.

    Each scaled row is added to every combination so far as digits, with
    one add and one min(s, s - p) on unsigned words (s - p wraps past every
    sum below p).  A sum of two digits is at most 2 (p - 1), so the digits
    are uint8 for p <= 128 and uint16 above."""
    p, dtype = field.p, np.min_scalar_type(2 * (field.p - 1))
    width = field.m * rows.shape[1]
    digits = field.digit_rows.astype(dtype)[:, field.mul_table[:, rows]]  # (m, q, r, 4n)
    # (r, q, m 4n), C-ordered: numpy's broadcast add is many times slower
    # on the strided rows that the transpose leaves
    scaled = np.ascontiguousarray(digits.transpose(2, 1, 0, 3)).reshape(len(rows), field.q, width)
    vecs = np.zeros((1, width), dtype=dtype)
    for multiples in scaled:
        total = (vecs[:, None, :] + multiples[None, :, :]).reshape(-1, width)
        vecs = np.minimum(total, total - p, out=total)
    return vecs


def _one_per_line(field, rows: np.ndarray) -> np.ndarray:
    """The zero word and one word per line of the rows' span, as
    ``_all_combinations`` digits: the combinations whose first nonzero
    coefficient is 1.  Row 0's coefficient is the most significant base-q
    digit of a combination's index, and the encoding 1 is the field's one,
    so these are index 0 and the ranges [q^j, 2 q^j): 1 + (q^r - 1) / (q - 1)
    words."""
    combos = _all_combinations(field, rows)
    q = field.q
    return np.concatenate([combos[:1]] + [combos[q**j : 2 * q**j] for j in range(rows.shape[0])])


def _bit_planes(field, digits: np.ndarray, n: int) -> np.ndarray:
    """(N, m l n) ``_all_combinations`` digits of l u-parts (four, or those
    the rows reach) as (P, W, N) bit planes, P = l m bit_length(p - 1): one
    plane per bit of each base-p digit of each u-part, packed as ``_pack``
    packs a support, in the word that ``_padded_width(n)`` picks.  Two words
    agree at a position exactly when all their digits there do.  Built one
    digit bit at a time, so that no temporary holds more than one bit of
    each digit."""
    bits = (field.p - 1).bit_length()
    parts = digits.reshape(digits.shape[0], -1, n).transpose(1, 0, 2)  # (l m, N, n)
    lines, count, width = parts.shape[0], parts.shape[1], _padded_width(n)
    support = np.zeros((lines, count, width), dtype=bool)
    planes = []
    for b in range(bits):
        np.bitwise_and(parts, 1 << b, out=support[:, :, :n], casting="unsafe")
        words = _pack(support.reshape(lines * count, width))  # (W, l m N)
        planes.append(words.reshape(-1, lines, count).transpose(1, 0, 2))
    return np.stack(planes).reshape(lines * bits, -1, count)


def _support_words(
    left: np.ndarray,
    right: np.ndarray,
    left_mask: Optional[np.ndarray] = None,
    right_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Packed supports of left_i - right_j for the (S, W, L) and (S, W, R)
    bit planes, as (W, L R) words of the planes' dtype with j innermost.
    The difference vanishes at a position exactly when the two encodings
    agree in every bit there, so its support is the OR over the planes of
    left ^ right: 2 S - 1 operations a word.

    A plane that is zero in every right word (one-sided to the left) adds
    just the left word's own plane, so the enumerator ORs all such planes
    into one (W, L) ``left_mask`` beforehand, and likewise ``right_mask``
    (W, R) for the planes zero in every left word; the planes here are then
    the shared ones, nonzero in both halves, and each mask costs one more
    OR a word.  Without masks every plane is XORed."""
    planes, width, count = left.shape
    support = np.empty((width, count, right.shape[2]), dtype=left.dtype)
    if planes:
        np.bitwise_xor(left[0, :, :, None], right[0, :, None, :], out=support)
        other = np.empty_like(support)
        for p in range(1, planes):
            np.bitwise_xor(left[p, :, :, None], right[p, :, None, :], out=other)
            support |= other
    else:
        support.fill(0)
    if left_mask is not None:
        support |= left_mask[:, :, None]
    if right_mask is not None:
        support |= right_mask[:, None, :]
    return support.reshape(width, -1)


def _sort_planes(left: np.ndarray, right: np.ndarray):
    """The (P, W, L) and (P, W, R) bit planes of the two halves as
    ``_support_words`` takes them with masks: the shared planes (nonzero in
    both halves) of each half, and the OR of each half's one-sided planes
    (nonzero in that half only, None if there is none).  A plane zero in
    both halves is dead: left ^ right is zero there, and it is dropped."""
    in_left, in_right = left.any(axis=(1, 2)).tolist(), right.any(axis=(1, 2)).tolist()
    shared, masks = [], [None, None]
    for p, live in enumerate(zip(in_left, in_right)):
        if all(live):
            shared.append(p)
        elif any(live):
            side = live.index(True)
            plane = (left, right)[side][p]
            masks[side] = plane if masks[side] is None else masks[side] | plane
    if len(shared) < len(in_left):
        left, right = left.take(shared, axis=0), right.take(shared, axis=0)
    return left, right, masks[0], masks[1]


# Bytes of support words weighed per block (at least one left against all
# rights), whatever the word and n are.  On the enum_verify benchmark
# (2-core x86-64, numpy 2.4, two 20 s runs each) blocks of 2**15, 2**16 and
# 2**17 bytes ran 1,087-1,201, 1,208-1,254 and 1,169-1,202 codes_per_kref
# at 37.76-38.19, 37.95-38.04 and 38.24-38.32 MiB peak RSS; 2**16 bytes
# (64 KiB, the size of the earlier 2**13 uint64 words) was fastest.
_BLOCK = 2**16


def _min_weights_enum(
    code: CyclicCode, metrics, cap: int, basis: SpanBasis, basis_used: str
) -> dict[str, int]:
    """Minimum weights over all nonzero codewords, one enumeration pass.

    The rows are the code's F-basis in the x-basis, the rotations of the
    heads (``_x_rows``).  ``basis_used`` is kept as the fifth positional
    parameter for callers that forward it; it must be "x_basis", and any
    other name raises ValueError before the cap is checked.  The rows are
    split in half.  Every codeword is a difference left - right of a
    combination of the first half and one of the second, which keeps the
    per-codeword cost independent of the rank.

    Only one codeword per line is weighed.  Supports, and so all three
    weights, are invariant under nonzero scalars.  Write a nonzero left
    combination as lambda l with l's first nonzero coefficient 1; then
    lambda l - r = lambda (l - r / lambda), and r / lambda is again in the
    right half.  So the left half is the zero word plus one such l per line
    (_one_per_line: the index ranges [q^j, 2 q^j) of _all_combinations are
    the lines), and the differences left_i - right_j cover each line of C
    outside the right half once, and the right half itself: 1 + (q^half - 1)
    / (q - 1) left words in place of q^half.

    No codeword is formed as encodings.  left_i - right_j vanishes at a
    coordinate exactly when left_i == right_j there, that is when their
    base-p digits (_all_combinations) agree in every bit of every u-part.
    So both halves are stored as bit planes (_bit_planes), each an n-bit
    mask packed into the narrowest word that holds n positions (uint64
    words past 64) with the codeword axis innermost, and the supports of a
    block of lefts against all rights are the OR over the planes of
    left ^ right (_support_words): long word operations, weighed by
    popcount.  Which planes take part depends only on which are zero in
    each half: u-parts that no row reaches are dropped before the
    combinations are formed, and _sort_planes keeps the shared planes and
    folds the one-sided ones into a mask per half.  The one zero difference of
    independent rows, left 0 - right 0, is the first word of the first
    block and is skipped there; a zero anywhere else means the rows are
    dependent, and the enumeration raises.
    """
    metrics = tuple(metrics)
    _check_metrics(metrics)
    if basis_used != "x_basis":
        raise ValueError(f"unknown basis {basis_used!r}")
    q = code.field.q
    if q**basis.rank > cap:
        raise TooLarge(basis.rank, cap, q)
    if not metrics or basis.rank == 0:
        return dict.fromkeys(metrics, 0)
    n, field, rank = code.n, code.field, basis.rank
    rows = _x_rows(field, basis)
    parts = rows.reshape(rank, 4, n).any(axis=(0, 2))
    if not parts.all():
        # a u-part that no row reaches is zero in every combination
        rows = rows.reshape(rank, 4, n).compress(parts, axis=1).reshape(rank, -1)

    half = rank // 2
    left = _bit_planes(field, _one_per_line(field, rows[:half]), n)
    right = _bit_planes(field, _all_combinations(field, rows[half:]), n)
    left, right, left_mask, right_mask = _sort_planes(left, right)

    _, width, rights = right.shape
    per_block = max(1, _BLOCK // (width * rights * right.itemsize))
    best: dict[str, Optional[int]] = dict.fromkeys(metrics)
    for i in range(0, left.shape[2], per_block):
        block = slice(i, i + per_block)
        words = _support_words(
            left[:, :, block], right, None if left_mask is None else left_mask[:, block], right_mask
        )
        if i == 0:
            words = words[:, 1:]  # left 0 - right 0: the zero word
            if words.shape[1] == 0:
                continue
        for metric in metrics:
            m = _min_word_weight(words, n, metric)
            if best[metric] is None or m < best[metric]:
                best[metric] = m
    if any(v is None for v in best.values()):
        raise InconsistentSet(f"rank {basis.rank} but no nonzero codeword was enumerated")
    if 0 in best.values():
        raise InconsistentSet(f"rank {basis.rank} but a nonzero combination of the rows is zero")
    return best


def min_weights(
    code: CyclicCode,
    metrics=("symbol_pair", "rt"),
    cap: int = 2**20,
    basis: Optional[SpanBasis] = None,
) -> dict[str, int]:
    """Several metric minima from a single enumeration pass."""
    if basis is None:
        basis = span_basis(code)
    _check_basis(basis, code.field, code.n, "code")
    return _min_weights_enum(code, tuple(metrics), cap, basis, "x_basis")


# --- closed forms from the third torsional degree ------------------------------


def _sp_table_rows(p: int, k: int) -> list[tuple[int, int, int]]:
    """The symbol-pair case table as (lo, hi, value) triples: the minimum
    symbol-pair weight is value when lo <= t3 <= hi."""
    n = p**k
    rows = [(0, 0, 2)]
    for ell in range(0, k - 1):
        lo, step, scale = n - p ** (k - ell), p ** (k - ell - 1), p**ell
        rows += [(lo + 1, lo + 1, 3 * scale), (lo + 2, lo + step, 4 * scale)]
        rows += [
            (lo + mu * step + 1, lo + (mu + 1) * step, 2 * (mu + 2) * scale)
            for mu in range(1, p - 1)
        ]
    rows += [(n - p + mu, n - p + mu, (mu + 2) * p ** (k - 1)) for mu in range(1, p - 1)]
    return rows + [(n - 1, n - 1, n), (n, n, 0)]


def wt_sp_from_t3(t3: int, p: int, k: int) -> int:
    """Minimum symbol-pair weight as a function of t3; the case table is
    total and disjoint on [0, p^k], which is asserted on every call.

    Why it takes no m (a standard lemma for chain rings): take a nonzero
    codeword c and the largest j with u^j c != 0.  Then u^j c = u^3 a with
    a in the torsion code Tor_3(C) = <(x-1)^t3>, and the support of u^j c
    lies inside that of c.  Every word a of the torsion code is
    sum beta_i a_i over an F_p-basis beta_i of F_{p^m}, with each a_i in the
    F_p-code <(x-1)^t3> (its generator has coefficients in F_p), so the
    support of a is the union of those of the a_i.  Symbol-pair weight only
    grows with the support, so the minimum over C is that of the F_p-code
    <(x-1)^t3> of length p^k: a function of (p, k, t3) alone.  The same
    holds for the Hamming and RT weights.
    """
    n = p**k
    if not 0 <= t3 <= n:
        raise OutOfRange(f"t3 = {t3} outside [0, {n}]")
    hits = [value for lo, hi, value in _sp_table_rows(p, k) if lo <= t3 <= hi]
    if len(hits) != 1:
        raise NoBranch(f"{len(hits)} branches matched t3 = {t3} for (p, k) = ({p}, {k})")
    return hits[0]


def wt_rt_from_t3(t3: int, p: int, k: int) -> int:
    """Minimum RT weight: t3 + 1, except the zero code (t3 = p^k) has 0.

    Proof.  The RT weight of a nonzero word is one more than the degree of
    its polynomial in x.  By the lemma in ``wt_sp_from_t3`` the minimum over
    C is that of the F_p-code <(x-1)^t> of length n = p^k, t = t3.  Since
    (x-1)^t divides x^n - 1 = (x-1)^n, a word of degree < n lies in that
    code exactly when (x-1)^t divides it, so a nonzero one has degree at
    least t, and (x-1)^t itself has degree t: the minimum is t + 1.  For
    t = n the torsion code is zero, and so is C, since a nonzero c gives
    the nonzero u^j c = u^3 a of that lemma.
    """
    n = p**k
    if not 0 <= t3 <= n:
        raise OutOfRange(f"t3 = {t3} outside [0, {n}]")
    return t3 + 1 if t3 < n else 0


# --- the closed-form report ----------------------------------------------------


@dataclass(frozen=True)
class WeightReport:
    t3: int
    wt_sp: int
    wt_rt: int
    trace: dict


def analyze(code: CyclicCode) -> WeightReport:
    """Closed-form t3 and the minimum weights it determines.  The oracles
    that check them are ``torsion_profile`` and ``min_weights``."""
    res = torsion.t3(code)
    return WeightReport(
        t3=res.t3,
        wt_sp=wt_sp_from_t3(res.t3, code.p, code.k),
        wt_rt=wt_rt_from_t3(res.t3, code.p, code.k),
        trace=res.path,
    )
