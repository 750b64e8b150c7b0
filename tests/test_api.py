import importlib.util
from pathlib import Path

import u4codes as u


def test_every_public_name_resolves():
    assert len(set(u.__all__)) == len(u.__all__)
    for name in u.__all__:
        assert getattr(u, name) is not None, name


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_still_binds():
    # The benchmark's tracer rebinds library names (RingElement.poly_mul,
    # weights._min_weights_enum and its five parameters, ...); a library
    # change that drops one breaks installing it or the traced run.
    import u4codes.cli  # noqa: F401  (the tracer wraps cli.run_command too)

    tracer = _load_tracing().Tracer()
    enumerate_minima = u.weights._min_weights_enum
    code = u.validate_canonical(u.field_make(2, 1), 2, u.GeneratorForm(r1=2))
    tracer.install()
    try:
        u.analyze(code, verify=True)
    finally:
        tracer.uninstall()
    assert tracer.counts["weights.codewords"] > 0
    assert u.weights._min_weights_enum is enumerate_minima
