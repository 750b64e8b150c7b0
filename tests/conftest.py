import importlib
import pkgutil
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import u4codes as u
from u4codes import sring
from u4codes.chain import _shift
from u4codes.weights import _pack, _padded_width


@pytest.fixture(scope="session")
def F2():
    return u.field_make(2, 1)


@pytest.fixture(scope="session")
def F3():
    return u.field_make(3, 1)


@pytest.fixture(scope="session")
def F4():
    return u.field_make(2, 2)


@pytest.fixture(scope="session")
def F5():
    return u.field_make(5, 1)


@pytest.fixture(scope="session")
def F25():
    return u.field_make(5, 2)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The argument tuples of every product-kernel call the test makes: each
    attribute of a u4codes submodule that is the kernel ``sring._mul_trunc``
    is patched to record its call and run it, so a module that imports the
    kernel under its own name is counted too."""
    kernel, calls = sring._mul_trunc, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    for info in pkgutil.iter_modules(u.__path__):
        module = importlib.import_module(f"u4codes.{info.name}")
        for name, value in list(vars(module).items()):
            if value is kernel:
                monkeypatch.setattr(module, name, counted)
    return calls


def dense_unit(rng, spec, n):
    """A unit of F[s]/<s^n> with all n coefficients random."""
    coeffs = [rng.randrange(1, spec.q)] + [rng.randrange(spec.q) for _ in range(n - 1)]
    return u.SPoly(spec, n, coeffs)


def packed(support):
    """(N, n) bool supports as the enumerator packs them: zero padding to
    whole words of ``_padded_width(n)``, as (W, N) words with the codeword
    axis innermost."""
    n = support.shape[1]
    padded = np.zeros((support.shape[0], _padded_width(n)), dtype=bool)
    padded[:, :n] = support
    return _pack(padded)


def word_of(n):
    """The word a length-n support is packed in, and how many of them, written
    out independently of ``_padded_width``: the narrowest of uint8, uint16
    and uint32 that holds n positions, else ceil(n / 64) uint64 words."""
    for word in (np.uint8, np.uint16, np.uint32):
        if n <= 8 * np.dtype(word).itemsize:
            return np.dtype(word), 1
    return np.dtype(np.uint64), -(-n // 64)


def add_table_combinations(field, rows):
    """(q^r, width) encodings of all field-linear combinations of the rows,
    row 0's coefficient the most significant base-q digit of the index: the
    add-table builder that the digit enumerator replaced, kept as the
    tests' reference."""
    add, mul = field.add_table, field.mul_table
    scalars = np.arange(field.q, dtype=np.int16)
    vecs = np.zeros((1, rows.shape[1]), dtype=np.int16)
    for row in rows:
        scaled = mul[scalars[:, None], row[None, :]]
        vecs = add[vecs[:, None, :], scaled[None, :, :]].reshape(-1, rows.shape[1])
    return vecs


def digits_of(field, encodings):
    """(N, 4n) encodings as (N, m 4n) base-p digits in the enumerator's
    layout, digit i of coordinate c at i 4n + c, written out with integer
    division instead of the field's tables."""
    enc = np.asarray(encodings, dtype=np.int64)
    digits = [enc // field.p**i % field.p for i in range(field.m)]
    return np.stack(digits, axis=1).reshape(enc.shape[0], -1)


def encodings_of(field, digits):
    """The inverse of ``digits_of``: (N, m 4n) digits as (N, 4n) int16 encodings."""
    parts = np.asarray(digits, dtype=np.int64).reshape(digits.shape[0], field.m, -1)
    return (field.p ** np.arange(field.m) @ parts).astype(np.int16)


_SPAN_ROWS = weakref.WeakKeyDictionary()


def span_rows(basis):
    """The code's F-basis in F^(4n) as read-only (rank, 4n) int16 rows: the
    rows s^j h_c as flattened (a0 || a1 || a2 || a3) s-basis vectors, built
    once per basis.  The library builds no dense s-basis; the tests keep
    this one as their reference."""
    if basis not in _SPAN_ROWS:
        # Block c is s^j h_c for j < n - v_c, with a leading 1 at c*n + v_c + j.
        heads = [basis.heads[c] for c in sorted(basis.heads)]
        shifts = [_shift(h, j) for v, h in heads for j in range(basis.n - v)]
        rows = np.array(shifts, dtype=np.int16).reshape(basis.rank, 4 * basis.n)
        rows.flags.writeable = False
        _SPAN_ROWS[basis] = rows
    return _SPAN_ROWS[basis]


def padded(member, n):
    """A u^2-part member times s^offset: its (4, n) full-length array."""
    out = np.zeros((4, n), dtype=member.element.dtype)
    out[:, member.offset :] = member.element
    return out


# --- the five golden example codes -------------------------------------------


def golden_g1_f4(F4):
    """F_4, n=8: <u(x-1)^6 + u^2(x-1)(1+(x-1)) + u^3 a (x-1)^2>."""
    p4 = u.SPoly.from_ints(F4, 8, [1, 1])
    p5 = u.SPoly.from_ints(F4, 8, [F4.gen()])
    return u.validate_canonical(F4, 3, u.GeneratorForm(r1=6, k4=1, p4=p4, k5=2, p5=p5))


def golden_g1_g2_f4(F4):
    """The code above with u^2(x-1)^4 + u^3(1 + a(x-1) + (x-1)^2) adjoined."""
    p4 = u.SPoly.from_ints(F4, 8, [1, 1])
    p5 = u.SPoly.from_ints(F4, 8, [F4.gen()])
    p6 = u.SPoly.from_ints(F4, 8, [1, F4.gen(), 1])
    return u.validate_canonical(
        F4, 3, u.GeneratorForm(r1=6, k4=1, p4=p4, k5=2, p5=p5, r2=4, k6=0, p6=p6)
    )


def golden_g0_g1_f2(F2):
    """F_2, n=4: <(x-1)^3 + u(x-1) + u^2 + u^3(1+(x-1)),
    u(x-1)^2 + u^2 + u^3(x-1)>."""
    one = u.SPoly.from_ints(F2, 4, [1])
    return u.validate_canonical(
        F2,
        2,
        u.GeneratorForm(
            r=3, k1=1, p1=one, k2=0, p2=one, k3=0,
            p3=u.SPoly.from_ints(F2, 4, [1, 1]),
            r1=2, k4=0, p4=one, k5=1, p5=one,
        ),
    )


def golden_g0_f3(F3):
    """F_3, n=9: <(x-1)^5 + u(x-1)^2(1+2(x-1)) + u^3(x-1)^2>.

    The u^3 correction reduces to a bare power of (x-1) over F_3, so the
    canonical form has k3=2, p3=1.
    """
    p1 = u.SPoly.from_ints(F3, 9, [1, 2])
    return u.validate_canonical(
        F3, 2, u.GeneratorForm(r=5, k1=2, p1=p1, k3=2, p3=u.SPoly.from_ints(F3, 9, [1]))
    )


def golden_g2_f25(F25):
    """F_25, n=125: <u^2(x-1)^51 + u^3(x-1)^67 h(x)> for a unit h."""
    h = u.SPoly.from_ints(F25, 125, [1, 2, F25.gen()])
    return u.validate_canonical(F25, 3, u.GeneratorForm(r2=51, k6=67, p6=h))


# --- hypothesis ------------------------------------------------------------------

# Derandomized and without an example database, so that a test run draws the
# same examples every time.
settings.register_profile("u4codes", derandomize=True, deadline=None, database=None)
settings.load_profile("u4codes")


# Hypothesis also caches the constants of local modules under its home
# directory, .hypothesis/ by default, and does so while collecting: a
# temporary home for the session keeps the tree free of .hypothesis/.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="u4codes-hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _HYPOTHESIS_HOME.cleanup()
