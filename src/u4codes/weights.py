"""Hamming / symbol-pair / RT weights and the closed forms driven by t3.

Codewords are weighed on their x-basis coordinate vectors: a coordinate of a
chain-ring codeword is nonzero when any of its four u-components is nonzero
at that position.  The enumeration oracle can optionally weigh in the s-basis
for diagnostics, but every closed-form statement refers to the x-basis.

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
from .galois import FieldElement
from .sring import basis_transform_rows
from . import torsion

METRICS = ("hamming", "symbol_pair", "rt")


def _support(vec) -> np.ndarray:
    out = []
    for c in vec:
        if isinstance(c, FieldElement):
            out.append(not c.is_zero())
        else:
            out.append(bool(c))
    return np.asarray(out, dtype=bool)


def _check_metrics(metrics) -> None:
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")


def _padded_width(n: int) -> int:
    """Length n rounded up to whole uint64 words, at least one (so that the
    empty vector weighs 0)."""
    return 64 * max(1, -(-n // 64))


def _pack(support: np.ndarray) -> np.ndarray:
    """(N, 64 w) bool supports as (N, w) uint64 words: position c is bit
    c % 64 of word c // 64, and the padding bits are zero."""
    return np.packbits(support, bitorder="little").view("<u8").reshape(support.shape[0], -1)


def _rot1(words: np.ndarray, n: int) -> np.ndarray:
    """Packed supports with position c holding position c + 1 mod n."""
    rot = words >> 1
    rot[:, :-1] |= words[:, 1:] << 63
    rot[:, -1] |= (words[:, 0] & 1) << ((n - 1) % 64)
    return rot


def _min_word_weight(words: np.ndarray, n: int, metric: str) -> int:
    """Least weight of the packed length-n supports, the rows of words."""
    if metric == "hamming":
        return int(np.bitwise_count(words).sum(axis=1).min())
    if metric == "symbol_pair":
        return int(np.bitwise_count(words | _rot1(words, n)).sum(axis=1).min())
    # rt: the bit length of the least support read as an integer, whose top
    # word is the least top word, and so on down among the rows that tie
    for w in reversed(range(words.shape[1])):
        top = words[:, w].min()
        if top:
            return 64 * w + int(top).bit_length()
        words = words[words[:, w] == 0]
    return 0


def wt_vector(vec, metric: str) -> int:
    """Weight of one length-n coordinate vector under the chosen metric."""
    _check_metrics((metric,))
    support = _support(vec)
    n = support.shape[0]
    padded = np.zeros((1, _padded_width(n)), dtype=bool)
    padded[0, :n] = support
    return _min_word_weight(_pack(padded), n, metric)


def _all_combinations(field, rows: np.ndarray) -> np.ndarray:
    """(q^r, width) array of all field-linear combinations of the rows."""
    add, mul = field.add_table, field.mul_table
    scalars = np.arange(field.q, dtype=np.int16)
    vecs = np.zeros((1, rows.shape[1]), dtype=np.int16)
    for row in rows:
        scaled = mul[scalars[:, None], row[None, :]]          # (q, width)
        vecs = add[vecs[:, None, :], scaled[None, :, :]].reshape(-1, rows.shape[1])
    return vecs


def _one_per_line(field, rows: np.ndarray) -> np.ndarray:
    """The zero word and one word per line of the rows' span: the
    combinations whose first nonzero coefficient is 1.  Row 0's coefficient
    is the most significant base-q digit of a combination's index, and the
    encoding 1 is the field's one, so these are index 0 and the ranges
    [q^j, 2 q^j): 1 + (q^r - 1) / (q - 1) words."""
    combos = _all_combinations(field, rows)
    q = field.q
    return np.concatenate([combos[:1]] + [combos[q**j : 2 * q**j] for j in range(rows.shape[0])])


def _position_words(vecs: np.ndarray, n: int) -> np.ndarray:
    """(N, 4n) encodings as (N, n) uint32: the four u-parts at a position,
    one byte each (every encoding is below q <= 256)."""
    parts = vecs.reshape(-1, 4, n).astype(np.uint32)
    return parts[:, 0] | parts[:, 1] << 8 | parts[:, 2] << 16 | parts[:, 3] << 24


# Codewords weighed per block.  On the enum_verify benchmark (2-core x86-64,
# numpy 2.4) blocks of 2**12, 2**14 and 2**16 peaked at 37.3, 38.4 and
# 43.7 MiB RSS at about the same speed; 2**10 enumerated about 40 % slower.
_BLOCK = 2**12


def _min_weights_enum(
    code: CyclicCode, metrics, cap: int, basis: SpanBasis, basis_used: str
) -> dict[str, int]:
    """Minimum weights over all nonzero codewords, one enumeration pass.

    Rows are converted to the requested coordinate basis up front (basis
    change commutes with linear combinations) and split in half.  Every
    codeword is a difference left - right of a combination of the first half
    and one of the second, which keeps the per-codeword cost independent of
    the rank.

    Only one codeword per line is weighed.  Supports, and so all three
    weights, are invariant under nonzero scalars.  Write a nonzero left
    combination as lambda l with l's first nonzero coefficient 1; then
    lambda l - r = lambda (l - r / lambda), and r / lambda is again in the
    right half.  So the left half is the zero word plus one such l per line
    (_one_per_line: the index ranges [q^j, 2 q^j) of _all_combinations are
    the lines), and the differences left_i - right_j cover each line of C
    outside the right half once, and the right half itself: 1 + (q^half - 1)
    / (q - 1) left words in place of q^half.

    No codeword is formed.  left_i - right_j vanishes at a coordinate
    exactly when left_i == right_j there.  So the four u-parts of each
    position are packed into one uint32, and a position is in the support
    exactly when the two words differ: one compare per position.  The
    supports of a block of about 2**12 codewords are packed into uint64
    words and weighed by popcount; a larger block saves no time worth having
    and raises peak RSS.
    """
    metrics = tuple(metrics)
    _check_metrics(metrics)
    q = code.field.q
    if q**basis.rank > cap:
        raise TooLarge(basis.rank, cap, q)
    if basis.rank == 0:
        return {metric: 0 for metric in metrics}
    n = code.n
    rows = basis.rows.reshape(basis.rank * 4, n)
    if basis_used == "x_basis":
        rows = basis_transform_rows(code.field, rows, "s_to_x")
    elif basis_used != "s_basis":
        raise ValueError(f"unknown basis {basis_used!r}")
    rows = rows.reshape(basis.rank, 4 * n)

    half = basis.rank // 2
    left = _position_words(_one_per_line(code.field, rows[:half]), n)
    right = _position_words(_all_combinations(code.field, rows[half:]), n)

    per_block = max(1, _BLOCK // right.shape[0])
    support = np.zeros((per_block, right.shape[0], _padded_width(n)), dtype=bool)
    best: dict[str, Optional[int]] = {metric: None for metric in metrics}
    for i in range(0, left.shape[0], per_block):
        lefts = left[i : i + per_block]
        block = support[: lefts.shape[0]]
        np.not_equal(lefts[:, None, :], right[None, :, :], out=block[:, :, :n])
        words = _pack(block.reshape(-1, block.shape[2]))
        words = words[words.any(axis=1)]
        if words.shape[0] == 0:
            continue
        for metric in metrics:
            m = _min_word_weight(words, n, metric)
            if best[metric] is None or m < best[metric]:
                best[metric] = m
    if any(v is None for v in best.values()):
        raise InconsistentSet(f"rank {basis.rank} but no nonzero codeword was enumerated")
    return best


def min_weights(
    code: CyclicCode,
    metrics=("symbol_pair", "rt"),
    cap: int = 2**20,
    basis: Optional[SpanBasis] = None,
    basis_used: str = "x_basis",
) -> dict[str, int]:
    """Several metric minima from a single enumeration pass."""
    if basis is None:
        basis = span_basis(code)
    _check_basis(basis, code.field, code.n, "code")
    return _min_weights_enum(code, tuple(metrics), cap, basis, basis_used)


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
