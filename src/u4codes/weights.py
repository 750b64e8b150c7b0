"""Hamming / symbol-pair / RT weights and the closed forms driven by t3.

Codewords are weighed on their x-basis coordinate vectors: a coordinate of a
chain-ring codeword is nonzero when any of its four u-components is nonzero
at that position.  The enumeration oracle can optionally weigh in the s-basis
for diagnostics, but every closed-form statement refers to the x-basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentSet, NoBranch, OutOfRange, TooLarge
from .codes import CyclicCode, SpanBasis, span_basis, torsion_profile
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


def wt_vector(vec, metric: str) -> int:
    """Weight of one length-n coordinate vector under the chosen metric."""
    return int(_batch_weights(_support(vec)[None, :], metric)[0])


def _batch_weights(support: np.ndarray, metric: str) -> np.ndarray:
    n = support.shape[1]
    if metric == "hamming":
        return support.sum(axis=1)
    if metric == "symbol_pair":
        return (support | np.roll(support, -1, axis=1)).sum(axis=1)
    if metric == "rt":
        any_nz = support.any(axis=1)
        top = n - support[:, ::-1].argmax(axis=1)
        return np.where(any_nz, top, 0)
    raise ValueError(f"unknown metric {metric!r}")


def _all_combinations(field, rows: np.ndarray) -> np.ndarray:
    """(q^r, width) array of all field-linear combinations of the rows."""
    add, mul = field.add_table, field.mul_table
    scalars = np.arange(field.q, dtype=np.int16)
    vecs = np.zeros((1, rows.shape[1]), dtype=np.int16)
    for row in rows:
        scaled = mul[scalars[:, None], row[None, :]]          # (q, width)
        vecs = add[vecs[:, None, :], scaled[None, :, :]].reshape(-1, rows.shape[1])
    return vecs


def _min_weights_enum(
    code: CyclicCode, metrics, cap: int, basis: SpanBasis, basis_used: str
) -> dict[str, int]:
    """Minimum weights over all nonzero codewords, one enumeration pass.

    Rows are converted to the requested coordinate basis up front (basis
    change commutes with linear combinations), split in half, and the full
    codeword set is the pairwise sum of the two half-enumerations; that keeps
    the per-codeword cost independent of the rank.
    """
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

    add = code.field.add_table
    half = basis.rank // 2
    left = _all_combinations(code.field, rows[:half])
    right = _all_combinations(code.field, rows[half:])

    best: dict[str, Optional[int]] = {metric: None for metric in metrics}
    for i in range(left.shape[0]):
        block = add[left[i][None, :], right]
        support = (block.reshape(block.shape[0], 4, n) != 0).any(axis=1)
        nonzero = support.any(axis=1)
        if not nonzero.any():
            continue
        for metric in metrics:
            weights = _batch_weights(support, metric)[nonzero]
            m = int(weights.min())
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
    return _min_weights_enum(code, tuple(metrics), cap, basis, basis_used)


# --- closed forms from the third torsional degree ------------------------------


def _sp_table_rows(p: int, k: int):
    """The symbol-pair case table as (label, predicate, value) triples."""
    n = p**k
    rows = [("t3=0", lambda t: t == 0, 2)]
    for ell in range(0, k - 1):
        lo = n - p ** (k - ell)
        step = p ** (k - ell - 1)
        rows.append((f"t3={lo + 1} (l={ell})", lambda t, lo=lo: t == lo + 1, 3 * p**ell))
        rows.append(
            (
                f"{lo + 2}<=t3<={lo + step} (l={ell})",
                lambda t, lo=lo, step=step: lo + 2 <= t <= lo + step,
                4 * p**ell,
            )
        )
        for mu in range(1, p - 1):
            rows.append(
                (
                    f"{lo + mu * step + 1}<=t3<={lo + (mu + 1) * step} (l={ell},mu={mu})",
                    lambda t, lo=lo, step=step, mu=mu: lo + mu * step + 1
                    <= t
                    <= lo + (mu + 1) * step,
                    2 * (mu + 2) * p**ell,
                )
            )
    for mu in range(1, p - 1):
        rows.append(
            (f"t3={n - p + mu}", lambda t, mu=mu: t == n - p + mu, (mu + 2) * p ** (k - 1))
        )
    rows.append((f"t3={n - 1}", lambda t: t == n - 1, n))
    rows.append((f"t3={n}", lambda t: t == n, 0))
    return rows


def wt_sp_from_t3(t3: int, p: int, k: int) -> int:
    """Minimum symbol-pair weight as a function of t3; the case table is
    total and disjoint on [0, p^k], which is asserted on every call."""
    n = p**k
    if not 0 <= t3 <= n:
        raise OutOfRange(f"t3 = {t3} outside [0, {n}]")
    hits = [value for _, pred, value in _sp_table_rows(p, k) if pred(t3)]
    if len(hits) != 1:
        raise NoBranch(f"{len(hits)} branches matched t3 = {t3} for (p, k) = ({p}, {k})")
    return hits[0]


def wt_rt_from_t3(t3: int, p: int, k: int) -> int:
    """Minimum RT weight: t3 + 1, except the zero code (t3 = p^k) has 0."""
    n = p**k
    if not 0 <= t3 <= n:
        raise OutOfRange(f"t3 = {t3} outside [0, {n}]")
    return t3 + 1 if t3 < n else 0


# --- the full report ------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRecord:
    torsion: tuple[int, int, int, int]
    sp_enum: Optional[int]
    rt_enum: Optional[int]
    sp_match: Optional[bool]
    rt_match: Optional[bool]
    enum_skipped: Optional[str]


@dataclass(frozen=True)
class WeightReport:
    t3: int
    wt_sp: int
    wt_rt: int
    verified: Optional[VerifyRecord]
    basis_used: str
    trace: dict


def analyze(code: CyclicCode, verify: bool = False, cap: int = 2**20) -> WeightReport:
    """Closed-form t3 and weights, optionally cross-checked by the oracles."""
    res = torsion.t3(code)
    wt_sp = wt_sp_from_t3(res.t3, code.p, code.k)
    wt_rt = wt_rt_from_t3(res.t3, code.p, code.k)

    verified = None
    if verify:
        basis = span_basis(code)
        profile = torsion_profile(code, basis)
        sp_enum = rt_enum = sp_match = rt_match = None
        skipped = None
        try:
            minima = _min_weights_enum(code, ("symbol_pair", "rt"), cap, basis, "x_basis")
            sp_enum, rt_enum = minima["symbol_pair"], minima["rt"]
            sp_match = sp_enum == wt_sp
            rt_match = rt_enum == wt_rt
        except TooLarge as exc:
            skipped = str(exc)
        verified = VerifyRecord(
            torsion=profile,
            sp_enum=sp_enum,
            rt_enum=rt_enum,
            sp_match=sp_match,
            rt_match=rt_match,
            enum_skipped=skipped,
        )

    return WeightReport(
        t3=res.t3,
        wt_sp=wt_sp,
        wt_rt=wt_rt,
        verified=verified,
        basis_used="x_basis",
        trace=res.path,
    )
