"""The traced benchmark's contract with the package.

``bench/tracing.py`` replaces named attributes of the gibbsaccel modules
with timing wrappers for the traced run and puts them back afterwards.
A refactor that deletes or renames one of those names, or stops calling
it through the namespace where it is wrapped, breaks the traced run
without failing any other test.  These tests install the wrappers on the
package, drive the CLI through them, and check that uninstall restores
every attribute.
"""

import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from gibbsaccel import catalog, cli, conformal, filters, rates, series, sweeps

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
MODULES = (catalog, cli, conformal, filters, rates, series, sweeps)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {m.__name__: dict(vars(m)) for m in MODULES}


def test_install_wraps_and_uninstall_restores(tmp_path):
    tracing = load_tracing()
    lib = SimpleNamespace(**{m.__name__.rpartition(".")[2]: m for m in MODULES})
    before = snapshot()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, lib)
    try:
        assert saved
        for module, name, original in saved:
            assert before[module.__name__][name] is original
            assert getattr(module, name) is not original
        sweep_csv = tmp_path / "sweep.csv"
        argvs = (
            ["weights", "--M", "4", "--out", str(tmp_path / "w.csv")],
            ["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
             "--n-max", "50", "--out", str(sweep_csv)],
            ["envelope", "--in", str(sweep_csv)],
            ["rho", "--fn", "lorentzian", "--resolution", "9",
             "--out", str(tmp_path / "rho.csv")],
            ["compare", "--fn", "sws+lorentzian", "--p", "0.5", "--x", "0.2618",
             "--n-max", "400", "--n-min", "40", "--stride", "4",
             "--out", str(tmp_path / "compare.csv")],
        )
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tracing.uninstall(saved)
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "sweeps.sweep", "sweeps.fit", "sweeps.parse",
            "rates.rho", "sweeps.rho_curve", "sweeps.compare",
            "filters.weights"} <= names
    # the catalog entries came through the wrapped get_function
    assert tracer.coeff_calls > 0
    after = snapshot()
    for module_name, attrs in before.items():
        assert after[module_name].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[module_name][name] is value, f"{module_name}.{name}"


def test_readme_lists_every_benchmarked_command():
    # the readme-cli workload runs bench/workloads.README_COMMANDS; each
    # must appear verbatim in README's CLI block, so neither drifts alone
    source = (ROOT / "bench" / "workloads.py").read_text()
    (commands,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["README_COMMANDS"]
    ]
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = {line.strip() for line in block.splitlines()}
    for argv in commands:
        assert "gibbsaccel " + " ".join(argv) in lines


def unread_imports(module) -> set[tuple[str, str]]:
    """(module, name) of each package-relative import that ``module``
    never reads: no ``Name`` in its source loads the bound name."""
    tree = ast.parse(Path(module.__file__).read_text())
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    short = module.__name__.rpartition(".")[2]
    return {
        (short, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if (alias.asname or alias.name) not in read
    }


def test_unread_imports_are_the_ones_the_tracer_wraps():
    # a name imported only so that the tracer can wrap it where it is
    # imported is kept for the tracer alone; any other unread import is
    # dead code
    unread = set().union(*map(unread_imports, MODULES))
    assert unread == {
        ("cli", "get_function"),
        ("cli", "rho_of_x"),
        ("cli", "fit_envelope"),
        ("sweeps", "acceleration_penalty_region"),
        ("sweeps", "pointwise_error"),
    }
    tracing = load_tracing()
    lib = SimpleNamespace(**{m.__name__.rpartition(".")[2]: m for m in MODULES})
    saved = tracing.install(tracing.Tracer(), lib)
    tracing.uninstall(saved)
    wrapped = {(m.__name__.rpartition(".")[2], name) for m, name, _ in saved}
    assert unread <= wrapped
