"""The benchmark's own tests, on smoke sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import softshare.codec  # noqa: E402
import softshare.pipeline  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_the_emitted_metrics():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(bench.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in expected]
    for name, unit, _ in expected:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
    record = json.loads(record_line)["record"]
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"]
    assert record["digests"]
    assert not (ROOT / ".bench_tmp").exists()


def test_same_seed_same_outputs():
    digests = []
    for _ in range(2):
        proc = run_bench("--workload", "compress", "--seed", "5", "--seconds", "0.1",
                         "--smoke")
        digests.append(json.loads(proc.stdout.splitlines()[-2])["record"]["digests"])
    assert digests[0] == digests[1]


def _corrupt(encode):
    def corrupted(*args, **kwargs):
        blob, report = encode(*args, **kwargs)
        mid = len(blob) // 2
        return blob[:mid] + bytes([blob[mid] ^ 0x5A]) + blob[mid + 1:], report
    return corrupted


@pytest.mark.parametrize("workload,module", [("codec", softshare.codec),
                                             ("compress", softshare.pipeline)])
def test_corrupted_blob_counts_as_failure(workload, module, monkeypatch, tmp_path):
    monkeypatch.setattr(module, "encode_network", _corrupt(module.encode_network))
    result, _ = bench.run_workload(workload, 1, 0.1, False, bench.SMOKE, tmp_path, ROOT)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] >= result["failed"]


def test_tracer_restores_names_and_reports_absent_targets():
    original = softshare.codec.huffman_decode
    real = [t for t in tracer.TARGETS
            if (t.site, t.attr) == ("softshare.codec", "huffman_decode")]
    targets = (*real,
               tracer.Target("softshare.codec", "fused_decode", "codec.fused_decode"),
               tracer.Target("softshare.nothing", "f", "nothing.f"))
    tr = tracer.Tracer(targets)
    with pytest.raises(ZeroDivisionError):
        with tr:
            assert softshare.codec.huffman_decode is not original
            softshare.codec.huffman_decode(softshare.codec.HuffmanTable([1, 1]), b"\x40", 2)
            1 / 0
    assert softshare.codec.huffman_decode is original
    assert tr.absent == ["softshare.codec.fused_decode", "softshare.nothing.f"]
    assert tr.layer_metric("codec.huffman_decode.calls", 1) == 1
    assert tr.layer_metric("codec.huffman_decode.symbols", 1) == 2
    assert tr.layer_metric("codec.fused_decode.s", 1) == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "codec", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
