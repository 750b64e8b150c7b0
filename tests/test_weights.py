import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import u4codes as u
from u4codes.errors import InconsistentSet, NoBranch, OutOfRange, TooLarge
from u4codes.sring import basis_transform_rows
from u4codes.codes import SpanBasis
from u4codes.randgen import random_unit
from u4codes.weights import (
    METRICS, _all_combinations, _bit_planes, _min_weights_enum, _min_word_weight, _sort_planes,
    _support_words, _x_rows,
)
from conftest import (
    add_table_combinations, digits_of, golden_g0_g1_f2, golden_g1_f4, golden_g2_f25, packed,
    span_rows, word_of,
)


# --- per-vector metrics ---------------------------------------------------------


def test_word_weight_examples():
    # support -> its (hamming, symbol_pair, rt) weights, as one packed word
    for support, weights in (([1, 1, 1, 1], (4, 4, 4)), ([0, 0, 0, 0], (0, 0, 0)),
                             ([], (0, 0, 0)), ([1, 0, 0, 1], (2, 3, 4))):
        words = packed(np.array(support, dtype=bool).reshape(1, -1))
        assert tuple(_min_word_weight(words, len(support), metric) for metric in METRICS) == weights


def reference_batch_weights(support, metric):
    """Weights of bool supports, one row each: the reference that the packed
    word weights replaced."""
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


# every word width, at a length below, at and above each of its boundaries
WORD_LENGTHS = [7, 8, 9, 15, 16, 17, 31, 32, 33]


@pytest.mark.parametrize("n", [2, 3, *WORD_LENGTHS, 63, 64, 65, 127, 128, 129, 625])
def test_packed_weights_match_bool_supports(n):
    # random supports of several densities (so some leave the top word
    # empty), the full support, a lone bit at each end and the zero word:
    # the symbol-pair wrap from position n - 1 to 0, the carry between
    # words and the RT read-off from the top word all show, in the word
    # that n selects
    rng = np.random.default_rng(n)
    rows = [rng.random(n) < density for density in (0.01, 0.05, 0.3, 0.7) for _ in range(10)]
    lone_first, lone_last = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    lone_first[0] = lone_last[n - 1] = True
    rows += [np.ones(n, dtype=bool), lone_first, lone_last, np.zeros(n, dtype=bool)]
    support = np.array(rows)
    word, count = word_of(n)
    assert packed(support).dtype == word and packed(support).shape == (count, len(rows))
    for metric in METRICS:
        want = reference_batch_weights(support, metric)
        assert [_min_word_weight(packed(row[None]), n, metric) for row in support] == want.tolist()
        # the least weight of a set of rows, as one block of the enumerator
        # weighs it
        nonzero = np.flatnonzero(support.any(axis=1))
        for _ in range(20):
            pick = rng.choice(nonzero, size=rng.integers(1, 8), replace=False)
            assert _min_word_weight(packed(support[pick]), n, metric) == want[pick].min()


# F_2, F_3, F_4, F_5, F_7, F_8, F_9 and F_256: one to eight bits an encoding;
# F_25 and F_251: three and eight bits a digit, F_251's digits in uint16
PLANE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 8), (5, 2), (251, 1)]


@pytest.mark.parametrize("p,m", PLANE_FIELDS)
@pytest.mark.parametrize("n", [1, *WORD_LENGTHS, 63, 64, 65, 128, 625])
def test_bit_planes_give_the_support_of_the_difference(p, m, n):
    # the enumerator's zero test: the OR over the planes of the digits of
    # left ^ right is the packed support of left - right.  Each right is a
    # left with a u-part changed at up to three positions, so most positions
    # cancel, and the first right equals a left: a zero difference
    field = u.field_make(p, m)
    q = field.q
    rng = np.random.default_rng(1000 * n + q)
    left = rng.integers(0, q, (5, 4 * n)).astype(np.int16)
    right = left[rng.integers(0, 5, 7)]
    for row in right[1:]:
        for c in rng.choice(n, size=min(n, 3), replace=False):
            c += n * rng.integers(4)
            row[c] = (row[c] + rng.integers(1, q)) % q
    differences = field.sub_table[left[:, None, :], right[None, :, :]]
    support = (differences.reshape(-1, 4, n) != 0).any(axis=1)
    assert support.any() and not support.any(axis=1).all()
    dtype = np.uint8 if p <= 128 else np.uint16
    left_planes, right_planes = (
        _bit_planes(field, digits_of(field, side).astype(dtype), n) for side in (left, right)
    )
    assert left_planes.shape[0] == 4 * m * (p - 1).bit_length()
    words = _support_words(left_planes, right_planes)
    word, count = word_of(n)
    assert words.dtype == word and words.shape == (count, 5 * 7)
    assert np.array_equal(words, packed(support))


# --- enumeration minima -----------------------------------------------------------


def min_weight(code, metric, **kwargs):
    return u.min_weights(code, (metric,), **kwargs)[metric]


def test_min_weight_g3_examples(F2):
    code = u.validate_canonical(F2, 2, u.GeneratorForm(r3=3))
    assert min_weight(code, "symbol_pair") == 4

    code1 = u.validate_canonical(F2, 2, u.GeneratorForm(r3=1))
    assert min_weight(code1, "symbol_pair") == 3
    assert min_weight(code1, "rt") == 2

    code0 = u.validate_canonical(F2, 2, u.GeneratorForm(r3=0))
    assert min_weight(code0, "hamming") == 1


def reference_min_weights(code, metrics, basis):
    """The add-table enumerator that the packed comparison replaced: every
    sum left_i + right_j is formed and its support weighed as bools.  It
    takes the x-basis rows by ``basis_transform_rows`` of all of the dense
    s-basis rows (``span_rows``), and the combinations from the tests' own
    builder."""
    n = code.n
    rows = basis_transform_rows(code.field, span_rows(basis).reshape(basis.rank * 4, n), "s_to_x")
    rows = rows.reshape(basis.rank, 4 * n)

    add = code.field.add_table
    half = basis.rank // 2
    left = add_table_combinations(code.field, rows[:half])
    right = add_table_combinations(code.field, rows[half:])

    best = {metric: None for metric in metrics}
    for i in range(left.shape[0]):
        block = add[left[i][None, :], right]
        support = (block.reshape(block.shape[0], 4, n) != 0).any(axis=1)
        nonzero = support.any(axis=1)
        if not nonzero.any():
            continue
        for metric in metrics:
            weights = reference_batch_weights(support, metric)[nonzero]
            m = int(weights.min())
            if best[metric] is None or m < best[metric]:
                best[metric] = m
    return best


def reference_min_rt(code, basis):
    """Minimum RT weight with no enumeration (Rosenbloom-Tsfasman 1997).

    The x-basis rows are row-reduced with the columns taken position-major,
    highest position first.  A nonzero codeword's top position is the highest
    leading position among the echelon rows it combines, so the least top
    position over the code is the least leading position.  Reads neither
    torsion nor the enumerator."""
    field, n, rank = code.field, code.n, basis.rank
    if rank == 0:
        return 0
    rows = basis_transform_rows(field, span_rows(basis).reshape(rank * 4, n), "s_to_x")
    mat = rows.reshape(rank, 4, n)[:, :, ::-1].transpose(0, 2, 1).reshape(rank, 4 * n).copy()
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    top = 0
    for col in range(4 * n):
        hits = np.flatnonzero(mat[top:, col])
        if hits.size == 0:
            continue
        mat[[top, top + hits[0]]] = mat[[top + hits[0], top]]
        mat[top] = mul[inv[mat[top, col]], mat[top]]
        below = mat[top + 1 :]
        below[:] = sub[below, mul[below[:, col][:, None], mat[top][None, :]]]
        top += 1
        if top == rank:
            return n - col // 4      # column col holds position n - 1 - col // 4
    raise AssertionError("the basis rows are dependent")


# (p, m, k): F_7, F_8 and F_9 at their shortest length, and n up to 49, so
# that every word width holds a length that fills it and one that leaves
# padding: n = 8 and 7 in uint8, 16 and 9 in uint16, 32, 25 and 27 in
# uint32, and 49 in one uint64 word
ENUM_CONFIGS = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 1), (3, 1, 2),
    (3, 1, 3), (5, 1, 1), (7, 1, 1), (7, 1, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1),
    (3, 2, 1), (5, 2, 1),
]


@pytest.mark.parametrize("p,m,k", ENUM_CONFIGS)
def test_min_weights_match_reference_enumerator(p, m, k):
    spec = u.field_make(p, m)
    rng = random.Random(100 * p + 10 * m + k)
    checked = 0
    while checked < 12:
        code = u.random_code(rng, spec, k)
        basis = u.span_basis(code)
        if basis.rank == 0 or spec.q**basis.rank > 2**14:
            continue
        checked += 1
        mins = u.min_weights(code, METRICS, basis=basis)
        assert mins == reference_min_weights(code, METRICS, basis)
        assert mins["rt"] == reference_min_rt(code, basis)


@pytest.mark.parametrize("p,k,rank", [(2, 6, 12), (3, 4, 7), (5, 3, 5), (2, 7, 12), (3, 5, 7)])
def test_min_weights_match_reference_across_words(p, k, rank):
    # low-rank codes at n = 64, 81, 125, 128 and 243: one full word, and
    # supports spread over two to four words
    spec = u.field_make(p, 1)
    n = p**k
    r2 = n - rank // 2
    forms = [
        u.GeneratorForm(r3=n - rank),
        u.GeneratorForm(r2=r2, k6=r2 - 1, p6=u.SPoly.from_ints(spec, n, [1, 1])),
    ]
    for form in forms:
        code = u.validate_canonical(spec, k, form)
        basis = u.span_basis(code)
        mins = u.min_weights(code, METRICS, basis=basis)
        assert mins == reference_min_weights(code, METRICS, basis)
        assert mins["rt"] == reference_min_rt(code, basis)


# (p, m): F_3, F_4, F_5, F_7, F_8 and F_9, where a line holds q - 1 > 1 words
LINE_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,m", LINE_FIELDS)
def test_one_word_per_line_matches_reference(p, m):
    # ranks 0, 1, 2 and, where n >= 3, 3 (half = 0, 0, 1, 1), then seeded
    # random codes
    spec = u.field_make(p, m)
    n = p
    codes = [u.validate_canonical(spec, 1, u.GeneratorForm(r3=n - 1)),
             u.validate_canonical(spec, 1, u.GeneratorForm(r2=n - 1)),
             u.validate_canonical(spec, 1, u.GeneratorForm(r3=max(0, n - 3)))]
    empty = SpanBasis(spec, n, {})
    assert _min_weights_enum(codes[0], METRICS, 2**14, empty, "x_basis") == dict.fromkeys(METRICS, 0)
    rng = random.Random(31 * p + m)
    while len(codes) < 15:
        code = u.random_code(rng, spec, 1 + (spec.q <= 4))
        if spec.q ** u.span_basis(code).rank <= 2**14:
            codes.append(code)
    ranks = set()
    for code in codes:
        basis = u.span_basis(code)
        ranks.add(basis.rank)
        mins = _min_weights_enum(code, METRICS, 2**14, basis, "x_basis")
        assert mins == reference_min_weights(code, METRICS, basis)
    assert {1, 2} <= ranks


# (p, m): F_127, F_131, F_251, F_243 and F_256, on both sides of p = 128,
# where a sum of two digits, at most 2 (p - 1), leaves a byte
DIGIT_FIELDS = [(127, 1), (131, 1), (251, 1), (3, 5), (2, 8)]


@pytest.mark.parametrize("p,m", DIGIT_FIELDS)
def test_combinations_are_digit_sums(p, m):
    # every combination a_0 row_0 + a_1 row_1, row 0's coefficient the most
    # significant base-q digit of its index, against sum_i a_i row_i mod p
    # on the digits; the rows hold q - 1 (all digits p - 1) and random
    # nonzero encodings
    field = u.field_make(p, m)
    q = field.q
    rng = np.random.default_rng(q + p)
    rows = rng.integers(1, q, (2, 8)).astype(np.int16)
    rows[:, 0] = q - 1
    coeffs = np.indices((q, q)).reshape(2, -1)                     # (2, q^2)
    scaled = field.mul_table[coeffs[:, :, None], rows[:, None, :]]  # (2, q^2, 8)
    want = sum(digits_of(field, part) for part in scaled) % p
    combos = _all_combinations(field, rows)
    assert combos.shape == want.shape == (q * q, m * 8)
    assert np.array_equal(combos, want)
    assert combos.dtype == (np.uint8 if p <= 128 else np.uint16)


def low_rank_code(rng, spec):
    """A random code of rank 1 or 2 at n = p: <g3> with r3 = n - 1 or n - 2,
    or <g2> or <g2, g3> at the top degrees, with a random correction."""
    n = spec.p
    kind = rng.randrange(3)
    if kind == 0:
        form = u.GeneratorForm(r3=n - rng.randint(1, 2))
    else:
        form = u.GeneratorForm(r2=n - 1, k6=n - 2, p6=random_unit(rng, spec, n))
        if kind == 2:
            form = replace(form, r3=n - 1)
    return u.validate_canonical(spec, 1, form)


@pytest.mark.parametrize("p", [131, 251])
def test_min_weights_match_reference_past_byte_digits(p):
    spec = u.field_make(p, 1)
    rng = random.Random(p)
    for _ in range(4):
        code = low_rank_code(rng, spec)
        basis = u.span_basis(code)
        assert basis.rank in (1, 2)
        assert u.min_weights(code, METRICS, basis=basis) == reference_min_weights(code, METRICS, basis)


def row_rank(field, rows):
    """Rank over F of the (r, width) encoding rows, by row reduction."""
    mat = np.array(rows, dtype=np.int16)
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    rank = 0
    for col in range(mat.shape[1]):
        hits = np.flatnonzero(mat[rank:, col])
        if hits.size == 0:
            continue
        mat[[rank, rank + hits[0]]] = mat[[rank + hits[0], rank]]
        mat[rank] = mul[inv[mat[rank, col]], mat[rank]]
        below = mat[rank + 1 :]
        below[:] = sub[below, mul[below[:, col][:, None], mat[rank][None, :]]]
        rank += 1
        if rank == mat.shape[0]:
            break
    return rank


def check_rotation_rows(code):
    """The rotated x-basis rows have the F-row-space of the transformed
    ``span_rows``, and, where q^rank <= 2^14, the minima equal the
    reference; returns whether the code was enumerated."""
    field, n = code.field, code.n
    basis = u.span_basis(code)
    rank = basis.rank
    rotated = _x_rows(field, basis)
    direct = basis_transform_rows(field, span_rows(basis).reshape(rank * 4, n), "s_to_x")
    assert rotated.shape == (rank, 4 * n)
    stacked = np.concatenate([rotated, direct.reshape(rank, 4 * n)])
    assert row_rank(field, rotated) == row_rank(field, stacked) == rank
    enumerated = field.q**rank <= 2**14
    if enumerated:
        assert u.min_weights(code, METRICS, basis=basis) == reference_min_weights(code, METRICS, basis)
    return enumerated


# (p, m, k): F_2, F_3, F_4, F_5, F_8, F_9 and F_25
ROTATION_CONFIGS = [
    (2, 1, 3), (2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 1), (5, 1, 2), (2, 3, 1), (3, 2, 1),
    (5, 2, 1),
]


@pytest.mark.parametrize("p,m,k", ROTATION_CONFIGS)
def test_rotation_rows_span_the_x_basis(p, m, k):
    # twelve random codes, then draws until three of them were enumerated
    spec = u.field_make(p, m)
    rng = random.Random(1000 * p + 100 * m + k)
    drawn = enumerated = 0
    while drawn < 12 or enumerated < 3:
        code = u.random_code(rng, spec, k)
        rank = u.span_basis(code).rank
        if rank and (drawn < 12 or spec.q**rank <= 2**14):
            drawn += 1
            enumerated += check_rotation_rows(code)


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (5, 3), (5, 4)])
def test_rotation_rows_of_g3_codes(p, k):
    # <g3> at n = 256, 243, 125 and 625, rank 1 to 8
    spec = u.field_make(p, 1)
    n = p**k
    for rank in (1, 2, 5, 8):
        check_rotation_rows(u.validate_canonical(spec, k, u.GeneratorForm(r3=n - rank)))


def test_reference_min_rt_reaches_golden_f25(F25):
    # rank 148 over F_25: far past enumeration, one row reduction here
    code = golden_g2_f25(F25)
    assert reference_min_rt(code, u.span_basis(code)) == u.wt_rt_from_t3(51, 5, 3) == 52


def no_rows(field, basis):
    raise AssertionError("the x-basis rows were built")


def test_metric_names_checked_first(F2, F25, monkeypatch):
    monkeypatch.setattr(u.weights, "_x_rows", no_rows)  # fail before the rows are built
    with pytest.raises(ValueError):
        min_weight(golden_g2_f25(F25), "bogus")  # not TooLarge
    code = golden_g0_g1_f2(F2)
    basis = u.span_basis(code)
    with pytest.raises(ValueError):
        _min_weights_enum(code, ("rt", "bogus"), 2**20, basis, "x_basis")


def test_basis_name_checked_before_the_cap(F2, F25, monkeypatch):
    # the enumerator weighs the x-basis only; the fifth positional parameter
    # stays for callers that forward it, and any other name is refused
    # before the cap: the F_25 code is far past it
    monkeypatch.setattr(u.weights, "_x_rows", no_rows)
    for code in (golden_g0_g1_f2(F2), golden_g2_f25(F25)):
        for name in ("s_basis", "bogus"):
            with pytest.raises(ValueError):
                _min_weights_enum(code, METRICS, 2**20, u.span_basis(code), name)
    with pytest.raises(TypeError):
        u.min_weights(golden_g0_g1_f2(F2), basis_used="x_basis")


def test_empty_metric_set_enumerates_nothing(F2, F25, monkeypatch):
    monkeypatch.setattr(u.weights, "_x_rows", no_rows)
    code = golden_g0_g1_f2(F2)
    basis = u.span_basis(code)
    assert u.min_weights(code, (), basis=basis) == {}
    # the basis name and the cap are still checked
    with pytest.raises(ValueError):
        _min_weights_enum(code, (), 2**20, basis, "bogus")
    with pytest.raises(TooLarge):
        u.min_weights(golden_g2_f25(F25), ())


def test_repeated_rows_raise(F2, F5):
    # a basis whose second head repeats the first: its rows repeat, so a
    # nonzero combination of them is the zero word, which the enumerator
    # refuses instead of skipping
    for field, k, r3 in ((F2, 2, 2), (F5, 1, 3)):
        code = u.validate_canonical(field, k, u.GeneratorForm(r3=r3))
        basis = u.span_basis(code)
        head = basis.heads[max(basis.heads)]
        repeated = SpanBasis(field, code.n, {**basis.heads, max(basis.heads) + 1: head})
        rank = basis.rank
        assert repeated.rank == 2 * rank
        assert np.array_equal(span_rows(repeated)[:rank], span_rows(repeated)[rank:])
        for metrics in (METRICS, ("rt",)):
            with pytest.raises(InconsistentSet):
                u.min_weights(code, metrics, basis=repeated)


def test_enumeration_memory_does_not_grow_with_length(F5):
    # <g3> with r3 = n - 8 over F_5 at n = 3125: 5^8 codewords, packed in
    # 49 uint64 words each (n is past 64, so the word is uint64).  Planes are
    # built one digit bit at a time and blocks are sized in bytes, so no
    # temporary holds all bits of a half; the enumeration peaks near 21 MiB
    # (x86-64, numpy 2.4), and the bound leaves room for other numpy builds
    n = 3125
    code = u.validate_canonical(F5, 5, u.GeneratorForm(r3=n - 8))
    basis = u.span_basis(code)
    assert basis.rank == 8
    tracemalloc.start()
    try:
        mins = u.min_weights(code, basis=basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mins == {"symbol_pair": u.wt_sp_from_t3(n - 8, 5, 5), "rt": n - 7}
    assert peak < 40 * 2**20


def test_min_weight_cap(F25):
    with pytest.raises(TooLarge):
        min_weight(golden_g2_f25(F25), "rt", cap=2**20)


# --- only the planes that can differ ------------------------------------------------


def planes_of(field, encodings, n):
    dtype = np.uint8 if field.p <= 128 else np.uint16
    return _bit_planes(field, digits_of(field, encodings).astype(dtype), n)


def sorted_support_words(field, left, right, n):
    """``_support_words`` of the two sides' bit planes as the enumerator
    forms them: the shared planes, and a mask per side of its one-sided
    planes; with the number of shared planes."""
    shared_left, shared_right, left_mask, right_mask = _sort_planes(
        planes_of(field, left, n), planes_of(field, right, n))
    return _support_words(shared_left, shared_right, left_mask, right_mask), shared_left.shape[0]


def zero_parts(rows, n, parts):
    rows = rows.copy()
    for part in parts:
        rows[:, part * n : (part + 1) * n] = 0
    return rows


# (left's zero u-parts, right's zero u-parts, whether a plane stays shared)
PLANE_CASES = {
    "left one-sided": ((), (0, 1), True),
    "right one-sided": ((2, 3), (), True),
    "no shared plane": ((2, 3), (0, 1), False),
    "dead u-parts": ((0, 1), (0, 1, 3), True),
}


@pytest.mark.parametrize("case", sorted(PLANE_CASES))
@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (5, 2)])
@pytest.mark.parametrize("n", [1, 8, 9, 16, 25, 27, 32, 65, 125, 625])
def test_sorted_planes_give_the_support_of_the_difference(case, p, m, n):
    # random words with some u-parts zero on one side or both, so that
    # whole planes are one-sided or dead; one right word also keeps only
    # the low digit bit, so that over F_5 and F_25 single bit planes are
    # one-sided too.  Each right equals a left on one of its live u-parts,
    # and the first left is the zero word, as in the enumerator
    field = u.field_make(p, m)
    q = field.q
    left_zero, right_zero, any_shared = PLANE_CASES[case]
    rng = np.random.default_rng(10 * n + q)
    left = zero_parts(rng.integers(0, q, (6, 4 * n)).astype(np.int16), n, left_zero)
    left[0] = 0
    right = zero_parts(rng.integers(0, q, (7, 4 * n)).astype(np.int16), n, right_zero)
    right[1] = zero_parts(left[1 + rng.integers(5)][None], n, right_zero)[0]
    differences = field.sub_table[left[:, None, :], right[None, :, :]]
    support = (differences.reshape(-1, 4, n) != 0).any(axis=1)
    words, shared = sorted_support_words(field, left, right, n)
    word, count = word_of(n)
    assert words.dtype == word and words.shape == (count, 6 * 7)
    assert np.array_equal(words, packed(support))
    assert (shared > 0) == any_shared
    assert shared < 4 * m * (p - 1).bit_length()
    # a side whose digits are only 0 and 1 leaves its higher digit bits dead
    low = right & 1 if m == 1 else right % p % 2
    differences = field.sub_table[left[:, None, :], low[None, :, :]]
    support = (differences.reshape(-1, 4, n) != 0).any(axis=1)
    assert np.array_equal(sorted_support_words(field, left, low, n)[0], packed(support))


def test_support_words_with_masks_only():
    # no shared plane and one mask, on either side: the supports are that
    # side's own words, repeated across the other side
    n = 27
    rng = np.random.default_rng(5)
    words = rng.integers(0, 2**27, (1, 4), dtype=np.uint32)
    none = np.zeros((0, 1, 3), dtype=np.uint32)
    got = _support_words(none, np.zeros((0, 1, 4), dtype=np.uint32), None, words)
    assert np.array_equal(got, np.tile(words, (1, 3)))
    got = _support_words(np.zeros((0, 1, 4), dtype=np.uint32), none, words, None)
    assert np.array_equal(got, np.repeat(words, 3, axis=1))
    assert not _support_words(none, none).any()


@pytest.mark.parametrize("p,m,k", [(2, 1, 1), (2, 1, 3), (2, 1, 7), (2, 2, 1), (2, 2, 2),
                                   (5, 1, 1), (5, 1, 2), (5, 1, 4)])
def test_rank_one_codes(p, m, k):
    # <g3> with r3 = n - 1: rank 1, so the left half is the zero word alone,
    # every left plane is dead and no plane is shared
    spec = u.field_make(p, m)
    n = p**k
    code = u.validate_canonical(spec, k, u.GeneratorForm(r3=n - 1))
    basis = u.span_basis(code)
    assert basis.rank == 1
    mins = u.min_weights(code, METRICS, basis=basis)
    assert mins == reference_min_weights(code, METRICS, basis)
    assert mins == {"hamming": n, "symbol_pair": n, "rt": n}


def typed_code(rng, spec, k, degrees):
    """The code of the given degrees {level: degree} with, in most of the
    correction slots that have room, a random unit at one of the two top
    degrees (lower ones raise the rank past enumeration)."""
    n = spec.p**k
    corrections = {
        (owner, ulevel): (rng.randrange(max(0, bound - 2), bound), random_unit(rng, spec, n))
        for owner, ulevel, bound in u.GeneratorForm.slots(degrees, n)
        if bound and rng.random() < 0.7
    }
    return u.validate_canonical(spec, k, u.GeneratorForm.of(degrees, corrections))


# <g2> and <g2, g3> reach two u-parts, <g1, g3> three and <g0> all four
TYPED_LEVELS = [(2,), (2, 3), (1, 3), (0,)]


@pytest.mark.parametrize("levels", TYPED_LEVELS)
@pytest.mark.parametrize("p,m,k", [(2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (2, 2, 1),
                                   (5, 1, 1), (2, 3, 1), (3, 2, 1), (5, 2, 1)])
def test_min_weights_match_reference_by_type(levels, p, m, k):
    # three codes of the type a field and length, at the top degrees, below
    # q^4 or 2^16 codewords
    spec = u.field_make(p, m)
    n = p**k
    rng = random.Random(1000 * p + 100 * m + 10 * k + len(levels))
    checked = tries = 0
    while checked < 3 and tries < 200:
        tries += 1
        degrees = dict(zip(levels, sorted((n - 1 - rng.randrange(min(n, 3)) for _ in levels),
                                          reverse=True)))
        code = typed_code(rng, spec, k, degrees)
        basis = u.span_basis(code)
        if basis.rank == 0 or spec.q**basis.rank > max(2**16, spec.q**4):
            continue
        checked += 1
        mins = u.min_weights(code, METRICS, basis=basis)
        assert mins == reference_min_weights(code, METRICS, basis)
        assert mins["rt"] == reference_min_rt(code, basis)
    assert checked == 3


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 65, 129, 625])
def test_word_weight_leaves_its_words(n):
    # every metric reads the block that the next metric weighs
    rng = np.random.default_rng(n)
    words = packed(rng.random((50, n)) < 0.3)
    kept = words.copy()
    for metric in METRICS:
        _min_word_weight(words, n, metric)
        assert np.array_equal(words, kept)


@pytest.mark.parametrize("p,k,rank", [(2, 7, 12), (3, 5, 7), (5, 3, 5)])
def test_metric_order_does_not_change_minima(p, k, rank):
    # multi-word supports (n = 128, 243, 125): rt and symbol_pair weigh the
    # same block in either order
    spec = u.field_make(p, 1)
    n = p**k
    r2 = n - rank // 2
    for form in (u.GeneratorForm(r3=n - rank),
                 u.GeneratorForm(r2=r2, k6=r2 - 1, p6=u.SPoly.from_ints(spec, n, [1, 1]))):
        code = u.validate_canonical(spec, k, form)
        basis = u.span_basis(code)
        forward = u.min_weights(code, ("rt", "symbol_pair"), basis=basis)
        backward = u.min_weights(code, ("symbol_pair", "rt"), basis=basis)
        assert forward == backward == reference_min_weights(code, ("symbol_pair", "rt"), basis)


# --- closed forms -----------------------------------------------------------------


def test_wt_sp_golden_values():
    assert u.wt_sp_from_t3(51, 5, 3) == 8
    assert u.wt_sp_from_t3(1, 2, 3) == 3
    assert u.wt_sp_from_t3(3, 3, 2) == 4
    for (p, k) in [(2, 2), (3, 2), (5, 3)]:
        assert u.wt_sp_from_t3(0, p, k) == 2


def test_wt_rt_golden_values():
    assert u.wt_rt_from_t3(51, 5, 3) == 52
    assert u.wt_rt_from_t3(0, 3, 2) == 1
    assert u.wt_rt_from_t3(125, 5, 3) == 0


def test_out_of_range():
    with pytest.raises(OutOfRange):
        u.wt_sp_from_t3(9, 2, 3)
    with pytest.raises(OutOfRange):
        u.wt_rt_from_t3(-1, 2, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_sp_table_total_and_monotone(p, k):
    n = p**k
    prev = None
    for t3 in range(n + 1):
        value = u.wt_sp_from_t3(t3, p, k)  # raises NoBranch unless exactly one row fires
        if t3 < n:
            if prev is not None:
                assert value >= prev
            prev = value
        else:
            assert value == 0


def test_step_tables_for_n125():
    # the two reference staircases for <g2> codes of length 5^3
    low = {0: 2, 1: 3, **{t: 4 for t in range(2, 26)}, **{t: 6 for t in range(26, 51)},
           **{t: 8 for t in range(51, 63)}}
    high = {**{t: 8 for t in range(63, 76)}, **{t: 10 for t in range(76, 101)},
            101: 15, **{t: 20 for t in range(102, 106)}, **{t: 30 for t in range(106, 111)},
            **{t: 40 for t in range(111, 116)}, **{t: 50 for t in range(116, 121)},
            121: 75, 122: 100, 123: 125, 124: 125, 125: 0}
    for t3, want in {**low, **high}.items():
        assert u.wt_sp_from_t3(t3, 5, 3) == want
    for t3 in range(126):
        assert u.wt_rt_from_t3(t3, 5, 3) == (t3 + 1 if t3 < 125 else 0)


# --- field-code and chain-code equivalence -----------------------------------------


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_g3_codes_exhaustive_equivalence(p, k):
    spec = u.field_make(p, 1)
    n = p**k
    for r3 in range(n):
        code = u.validate_canonical(spec, k, u.GeneratorForm(r3=r3))
        basis = u.span_basis(code)
        if spec.q**basis.rank > 2**20:
            continue
        mins = u.min_weights(code, basis=basis)
        assert mins["symbol_pair"] == u.wt_sp_from_t3(r3, p, k)
        assert mins["rt"] == r3 + 1


def test_random_chain_codes_equivalence():
    rng = random.Random(404)
    spec = u.field_make(2, 1)
    checked = 0
    while checked < 25:
        code = u.random_code(rng, spec, 3)
        basis = u.span_basis(code)
        if spec.q**basis.rank > 2**16:
            continue
        checked += 1
        t3v = u.torsion_oracle(code, 3, basis)
        mins = u.min_weights(code, basis=basis)
        assert mins["symbol_pair"] == u.wt_sp_from_t3(t3v, 2, 3)
        assert mins["rt"] == u.wt_rt_from_t3(t3v, 2, 3)


# --- analyze ----------------------------------------------------------------------


def test_analyze_asks_no_oracle(F4, monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("oracle called")

    for module in (u.codes, u.weights):
        for name in ("span_basis", "torsion_profile", "_min_weights_enum"):
            monkeypatch.setattr(module, name, oracle, raising=False)
    rep = u.analyze(golden_g1_f4(F4))
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (1, 3, 2)


def test_analyze_golden_g1(F4):
    code = golden_g1_f4(F4)
    rep = u.analyze(code)
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (1, 3, 2)
    assert u.torsion_profile(code)[3] == rep.t3


def test_analyze_golden_g0_g1(F2):
    code = golden_g0_g1_f2(F2)
    rep = u.analyze(code)
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (0, 2, 1)
    assert u.min_weights(code) == {"symbol_pair": rep.wt_sp, "rt": rep.wt_rt}


def test_analyze_g2_f25_skips_enum(F25):
    code = golden_g2_f25(F25)
    rep = u.analyze(code)
    assert (rep.t3, rep.wt_sp, rep.wt_rt) == (51, 8, 52)
    assert u.torsion_profile(code)[3] == rep.t3
    with pytest.raises(TooLarge):
        u.min_weights(code)
