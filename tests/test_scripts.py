import hashlib
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_eval import InputError

from conftest import child_env, synthetic_demo

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=child_env()
    )


def run_script(name, *args, cwd):
    return run_python(str(ROOT / "scripts" / name), *args, cwd=cwd)


HISTOGRAM_SHA256 = {
    "histogram_u001_i1.csv": "7c0599974b66163062a26d4d4c88c0cc53de7bdab56c1b6489ee13494e23baf9",
    "histogram_u002_i1.csv": "7582633c06274a353fae0183b304a9f036e185aadb3f36005e5e2287c4e59c42",
    "histogram_u003_i1.csv": "e376b68b3d9160e96c7b32c7ee6865789975797511666d4b4d15076289a718fe",
}


def test_synthetic_strategies_demo(tmp_path):
    proc = run_script(
        "synthetic_strategies_demo.py", "--pairs", "200", "--out-dir", str(tmp_path), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "population: 200 pairs, 5 trials each" in proc.stdout.splitlines()
    assert (tmp_path / "fitted.csv").is_file()
    # the three histogram CSVs, byte for byte
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("histogram_*.csv"))
    }
    assert digests == HISTOGRAM_SHA256


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


def histogram(values, bin_width):
    return synthetic_demo().histogram(values, bin_width)


class TestHistogram:
    def test_single_bin(self):
        lo, hi, count = histogram([3.0, 3.0, 3.0], 1.0)
        assert len(count) == 1
        assert lo[0] == 3.0 and hi[0] == 4.0
        assert count[0] == 3

    def test_hand_binning(self):
        lo, _, count = histogram([1.0, 2.0, 2.0, 5.0], 1.0)
        assert count.tolist() == [1, 2, 0, 0, 1]
        assert lo[0] == 1.0
        assert lo[-1] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            histogram([], 1.0)

    def test_bin_count_is_bounded(self):
        # 1e15 bins would be needed; rejected before anything is allocated
        with pytest.raises(InputError, match="bins"):
            histogram([0.0, 1e12], 1e-3)
        # the widest span in the finest bins: a bin count of inf is rejected the same way
        with pytest.raises(InputError, match="bins"):
            histogram([-1e50, 1e50], 5e-324)

    # values and widths beyond the domain, whose edges could leave float64
    @pytest.mark.parametrize(
        "values, width, message",
        [
            ([1.7e308, 1.79e308], 1.0, "histogram value must lie in [-1e+50, 1e+50], got 1.7e+308"),
            ([-1.7e308, 1.7e308], 1.0,
             "histogram value must lie in [-1e+50, 1e+50], got -1.7e+308"),
            ([-1e50, 1e50], 1e308, "bin width must lie in (0, 1e+50], got 1e+308"),
            ([1.0, math.nan], 1.0, "histogram value must lie in [-1e+50, 1e+50], got nan"),
        ],
        ids=["last_edge", "span", "width", "nan"],
    )
    def test_beyond_the_domain_rejected(self, values, width, message):
        with pytest.raises(InputError) as info:
            histogram(values, width)
        assert str(info.value) == message

    def test_edges_at_the_domain_corners_are_finite(self):
        lo, hi, count = histogram([-1e50, 1e50, 1e50], 1e50)
        assert lo.tolist() == [-1e50, 0.0, 1e50] and hi.tolist() == [0.0, 1e50, 2e50]
        assert count.tolist() == [1, 0, 2]

    @pytest.mark.parametrize(
        "values, kind", [(["3.5", True], "str"), ([True, 2.0], "bool")], ids=["str", "bool"]
    )
    def test_value_that_is_no_number_rejected(self, values, kind):
        with pytest.raises(InputError) as info:
            histogram(values, 1.0)
        assert str(info.value) == f"histogram value must be a number, got {kind}"

    def test_bad_width_rejected(self):
        with pytest.raises(InputError):
            histogram([1.0, 2.0], 0.0)
        with pytest.raises(InputError):
            histogram([1.0, 2.0], -0.5)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_counts_sum_to_observation_count(self, values, width):
        _, _, count = histogram(values, width)
        assert count.sum() == len(values)


def test_histogram_format(tmp_path):
    demo = synthetic_demo()
    path = tmp_path / "hist.csv"
    demo.write_histogram(path, histogram([1.0, 2.0, 2.0, 5.0], 1.0))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1] == "1.0,2.0,1"
    assert lines[-1] == "5.0,6.0,1"
    assert len(lines) == 6
