import ast
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
        u.analyze(code)
        u.min_weights(code)
    finally:
        tracer.uninstall()
    assert tracer.counts["weights.codewords"] > 0
    assert u.weights._min_weights_enum is enumerate_minima


def _readme_tour() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_values():
    # A comment on a bare expression is its value, up to the first double
    # space; comments on other statements are prose.
    tour = _readme_tour()
    lines = tour.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(tour).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        expected = ast.literal_eval(comment.split("  ")[0])
        assert value == expected, ast.get_source_segment(tour, stmt)
        checked += 1
    assert checked == 7
