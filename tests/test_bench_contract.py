"""The traced benchmark's contract with the package.

``bench/tracing.py`` replaces named attributes of the gibbsaccel modules
with timing wrappers for the traced run and puts them back afterwards.
A refactor that deletes or renames one of those names, or stops calling
it through the namespace where it is wrapped, breaks the traced run
without failing any other test.  These tests install the wrappers on the
package, drive the CLI through them, and check that uninstall restores
every attribute.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from gibbsaccel import catalog, cli, conformal, filters, rates, series, sweeps

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
        )
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tracing.uninstall(saved)
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "sweeps.sweep", "sweeps.fit", "sweeps.parse",
            "rates.rho", "sweeps.rho_curve", "filters.weights"} <= names
    # the catalog entries came through the wrapped get_function
    assert tracer.coeff_calls > 0
    after = snapshot()
    for module_name, attrs in before.items():
        assert after[module_name].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[module_name][name] is value, f"{module_name}.{name}"
