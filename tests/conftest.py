import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
