import random

import numpy as np
import pytest

import u4codes as u
from u4codes.errors import NoBranch, OutOfRange, TooLarge
from u4codes.sring import basis_transform_rows
from u4codes.codes import SpanBasis
from u4codes.weights import METRICS, _all_combinations, _min_weights_enum, _min_word_weight, _pack
from conftest import golden_g0_g1_f2, golden_g1_f4, golden_g2_f25


# --- per-vector metrics ---------------------------------------------------------


def test_wt_vector_examples():
    assert u.wt_vector([1, 1, 1, 1], "hamming") == 4
    assert u.wt_vector([1, 1, 1, 1], "symbol_pair") == 4
    assert u.wt_vector([1, 1, 1, 1], "rt") == 4
    for metric in ("hamming", "symbol_pair", "rt"):
        assert u.wt_vector([0, 0, 0, 0], metric) == 0
        assert u.wt_vector([], metric) == 0
    assert u.wt_vector([1, 0, 0, 1], "hamming") == 2
    assert u.wt_vector([1, 0, 0, 1], "symbol_pair") == 3
    assert u.wt_vector([1, 0, 0, 1], "rt") == 4


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


def packed(support):
    """Bool supports as the enumerator packs them: zero padding to whole
    uint64 words."""
    n = support.shape[1]
    padded = np.zeros((support.shape[0], 64 * -(-n // 64)), dtype=bool)
    padded[:, :n] = support
    return _pack(padded)


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 128, 129, 625])
def test_packed_weights_match_bool_supports(n):
    # random supports of several densities (so some leave the top word
    # empty), the full support, a lone bit at each end and the zero word:
    # the symbol-pair wrap from position n - 1 to 0, the carry between
    # words and the RT read-off from the top word all show
    rng = np.random.default_rng(n)
    rows = [rng.random(n) < density for density in (0.01, 0.05, 0.3, 0.7) for _ in range(10)]
    lone_first, lone_last = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    lone_first[0] = lone_last[n - 1] = True
    rows += [np.ones(n, dtype=bool), lone_first, lone_last, np.zeros(n, dtype=bool)]
    support = np.array(rows)
    for metric in METRICS:
        want = reference_batch_weights(support, metric)
        assert [u.wt_vector(row.tolist(), metric) for row in support] == want.tolist()
        # the least weight of a set of rows, as one block of the enumerator
        # weighs it
        nonzero = np.flatnonzero(support.any(axis=1))
        for _ in range(20):
            pick = rng.choice(nonzero, size=rng.integers(1, 8), replace=False)
            assert _min_word_weight(packed(support[pick]), n, metric) == want[pick].min()


def test_wt_vector_accepts_field_elements(F4):
    a = F4.gen()
    vec = [F4.zero(), a, F4.zero(), F4.zero()]
    assert u.wt_vector(vec, "hamming") == 1
    assert u.wt_vector(vec, "rt") == 2
    assert u.wt_vector(vec, "symbol_pair") == 2


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
    sum left_i + right_j is formed and its support weighed as bools."""
    n = code.n
    rows = basis_transform_rows(code.field, basis.rows.reshape(basis.rank * 4, n), "s_to_x")
    rows = rows.reshape(basis.rank, 4 * n)

    add = code.field.add_table
    half = basis.rank // 2
    left = _all_combinations(code.field, rows[:half])
    right = _all_combinations(code.field, rows[half:])

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
    rows = basis_transform_rows(field, basis.rows.reshape(rank * 4, n), "s_to_x")
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


# (p, m, k): F_7, F_8 and F_9 at their shortest length, and n up to 32
ENUM_CONFIGS = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 1), (3, 1, 2),
    (5, 1, 1), (7, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1), (5, 2, 1),
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


def test_reference_min_rt_reaches_golden_f25(F25):
    # rank 148 over F_25: far past enumeration, one row reduction here
    code = golden_g2_f25(F25)
    assert reference_min_rt(code, u.span_basis(code)) == u.wt_rt_from_t3(51, 5, 3) == 52


def test_metric_names_checked_first(F2, F25):
    with pytest.raises(ValueError):
        min_weight(golden_g2_f25(F25), "bogus")  # not TooLarge
    code = golden_g0_g1_f2(F2)
    basis = u.span_basis(code)
    with pytest.raises(ValueError):
        _min_weights_enum(code, ("rt", "bogus"), 2**20, basis, "x_basis")
    assert "rows" not in vars(basis)  # failed before the rows were built
    with pytest.raises(ValueError):
        u.wt_vector([1, 0], "bogus")


def test_min_weight_cap(F25):
    with pytest.raises(TooLarge):
        min_weight(golden_g2_f25(F25), "rt", cap=2**20)


def test_s_basis_diagnostic_mode(F2):
    # for <g3> codes the minimum RT weight agrees between the two bases
    for r3 in range(4):
        code = u.validate_canonical(F2, 2, u.GeneratorForm(r3=r3))
        x = min_weight(code, "rt", basis_used="x_basis")
        s = min_weight(code, "rt", basis_used="s_basis")
        assert x == s == r3 + 1


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
