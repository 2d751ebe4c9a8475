"""The micro-benchmark scripts under benchmarks/ run and write their results."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, kernels", [
    ("bench_mixture.py", {f"{call}_{state}" for call in ("prior_grads", "log_prior", "quantize")
                          for state in ("early", "mid", "late")}),
    ("bench_codec.py", {"encode_network", "decode_network", "huffman_decode"}),
    ("bench_data.py", {"synthetic_digits"}),
    ("bench_train.py", {"error_loss_and_grad_b128", "error_loss_and_grad_b256", "step_layers"}),
])
def test_benchmark_script_writes_its_kernel_timings(script, kernels, tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result["kernels"]) == kernels
    assert all(t["median_ms"] > 0 for t in result["kernels"].values())
