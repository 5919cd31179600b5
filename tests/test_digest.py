"""``tools/digest.py``, the SHA-256 per output family that shows which
outputs a change moves."""

import importlib.util
from pathlib import Path

import gibbsaccel.catalog as catalog
import gibbsaccel.conformal as conformal
import gibbsaccel.filters as filters

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tool)

#: Everything the package keeps between calls: catalog entries with their
#: coefficient tables, Euler tables, Möbius block rows (one entry per c and
#: row) and steps, and the last re-expansion.
CACHES = (
    catalog._kept_entry,
    filters._kept_euler_sigma_table,
    filters._binomial_steps,
    filters._block_row,
    conformal._reexpanded,
)


def test_cold_and_warm_passes_agree():
    # what the package keeps outlives a call and must not change any output
    for cache in CACHES:
        cache.cache_clear()
    cold = tool.digests(ROOT / "README.md")
    warm = tool.digests(ROOT / "README.md")
    assert cold == warm
    families = [name.split()[0] for name in cold]
    keys, kinds = len(catalog.FUNCTION_KEYS), len(filters.VALID_KINDS)
    assert families.count("sweep") == keys * kinds * len(tool.RANGES)
    assert families.count("resum") == keys * len(tool.RESUM_CS) * len(tool.RESUM_NS)
    assert families.count("weights") == len(tool.WEIGHT_KINDS) * len(tool.WEIGHT_XS)
    assert families.count("readme") == 5
