"""benchmarks/bench_kernels.py runs and writes its kernel timings."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"

# The kernels bench_kernels.py times, grouped by the script that timed them
# before it took over all four.
KERNEL_GROUPS = [
    ("bench_mixture.py", {f"{call}_{state}" for call in ("prior_grads", "log_prior", "quantize")
                          for state in ("early", "mid", "late")}),
    ("bench_codec.py", {"encode_network", "decode_network", "huffman_decode"}),
    ("bench_data.py", {"synthetic_digits"}),
    ("bench_train.py", {"error_loss_and_grad_b128", "error_loss_and_grad_b256",
                        "adam_steps", "evaluate_2000"}),
]
KERNELS = set().union(*(kernels for _, kernels in KERNEL_GROUPS))


def _run(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
        cwd=tmp_path, timeout=300, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    """One run of bench_kernels.py, shared by the tests that read its output."""
    tmp_path = tmp_path_factory.mktemp("bench_kernels")
    out = tmp_path / "result.json"
    proc = _run(tmp_path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("script, kernels", KERNEL_GROUPS)
def test_benchmark_script_writes_its_kernel_timings(script, kernels, result):
    for name in kernels:
        t = result["kernels"][name]
        assert t["median_ms"] > 0
        assert t["faults_per_call"] >= 0


def test_bench_kernels_writes_every_kernel_timing(result):
    assert set(result["kernels"]) == KERNELS
    assert set(result["memory"]) == {"synthetic_digits", "evaluate_2000"}
    assert all(m["traced_peak_mib"] > 0 for m in result["memory"].values())
    assert result["environment"]["threads"].keys() >= {"OPENBLAS_NUM_THREADS"}


def test_bench_kernels_needs_an_output_file(tmp_path):
    proc = _run(tmp_path)
    assert proc.returncode == 2
    assert "--out" in proc.stderr
    assert list(tmp_path.iterdir()) == []
