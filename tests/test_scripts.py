import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=child_env()
    )


def run_script(name, *args, cwd):
    return run_python(str(ROOT / "scripts" / name), *args, cwd=cwd)


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


def test_readme_library_example(tmp_path):
    spec = (
        '{"n_users": 4, "n_items": 3, "scale": {"min_value": 1.0, "max_value": 5.0},'
        ' "sigma_lo": 0.3, "sigma_hi": 1.0, "seed": 5}'
    )
    proc = run_python(
        "-m", "uncertain_eval.cli", "simulate", "--spec", spec, "--out-dir", ".", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    proc = run_python("-c", block, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    verdict, moments = proc.stdout.splitlines()
    assert verdict in ("True", "False")
    assert len([float(x) for x in moments.split()]) == 2
