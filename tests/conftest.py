import functools
import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def child_env(**settings: str) -> dict[str, str]:
    """Environment of a fresh interpreter run by a test, plus ``settings``.

    The package's sources come first on its path, as an absolute path, so
    that the child finds them from any working directory. A RuntimeWarning
    fails the run, as it fails the tests run in process.
    """
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(
        os.environ, PYTHONPATH=pythonpath, PYTHONWARNINGS="error::RuntimeWarning", **settings
    )


@functools.cache
def synthetic_demo():
    """``scripts/synthetic_strategies_demo.py`` imported as a module, for its histogram."""
    path = ROOT / "scripts" / "synthetic_strategies_demo.py"
    spec = importlib.util.spec_from_file_location("synthetic_strategies_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
