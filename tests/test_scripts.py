import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )


def test_synthetic_strategies_demo(tmp_path):
    proc = run_script(
        "synthetic_strategies_demo.py", "--pairs", "200", "--out-dir", str(tmp_path), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "population: 200 pairs, 5 trials each" in proc.stdout.splitlines()
    assert (tmp_path / "fitted.csv").is_file()


def test_published_scores_demo(tmp_path):
    proc = run_script("published_scores_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "scores: s1=0.8647  s2=0.88  gap=0.015300" in lines
