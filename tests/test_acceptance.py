"""Acceptance gate: seven release criteria, one verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -s -v` so the verdict
lines print as the criteria run. Criteria 6 and 7 train the desk-scale
reference experiment twice; together they take roughly seven minutes on a
desktop CPU (budget: 45 minutes for the reference run alone).
"""
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from softshare.codec import (
    build_codebook,
    from_csr,
    huffman_decode,
    huffman_encode,
    naive_rate,
    rel_decode,
    rel_encode,
    to_csr,
)
from softshare.config import load_config
from softshare.mixture import (
    HyperPriorConfig,
    MixtureModel,
    hyper_grads,
    hyper_log_density,
    init_mixture,
    log_prior,
    prior_grads,
    subsampled_prior_grads,
)
from softshare.net import (
    Batch,
    error_loss_and_grad,
    make_network,
)
from softshare.pipeline import run_pipeline
from softshare.postprocess import merge_components

ROOT = Path(__file__).resolve().parents[1]


def _verdict(n, label, body):
    try:
        detail = body()
    except BaseException:
        print(f"criterion {n}: FAIL - {label}", flush=True)
        raise
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n}: PASS - {label}{suffix}", flush=True)


# ----------------------------------------------------- 1: golden example

def test_criterion_1_sparse_row_golden_example():
    def body():
        t0 = time.perf_counter()
        w = np.array([
            [0, 0, 0, 1],
            [0, 2, 0, 0],
            [0, 0, 0, 0],
            [2, 5, 0, 0],
            [0, 0, 0, 1],
        ], dtype=np.float64)
        csr = to_csr(w)
        np.testing.assert_array_equal(csr.a, [1, 2, 2, 5, 1])
        np.testing.assert_array_equal(csr.ir, [0, 1, 2, 2, 4, 5])
        np.testing.assert_array_equal(csr.ic, [3, 1, 0, 1, 3])
        assert naive_rate(csr) == 1.25
        np.testing.assert_array_equal(from_csr(csr), w)
        ms = (time.perf_counter() - t0) * 1e3
        assert ms < 100.0
        return f"{ms:.2f} ms"

    _verdict(1, "sparse row storage reproduces the worked 5x4 example", body)


# ----------------------------------------------------- 2: gradient suite

FD_RTOL = 1e-4
FD_ATOL = 1e-8


def _fd_grad(f, x, eps=1e-6):
    g = np.empty(x.size)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2 * eps)
    return g


def _rand_mixture(rng, k):
    means = rng.normal(0.0, 0.6, k)
    means[0] = 0.0
    log_vars = rng.uniform(-5.0, -1.0, k)
    return MixtureModel(means, log_vars, rng.normal(0.0, 1.0, k),
                        float(rng.uniform(0.5, 0.95)))


def _check_error_loss_instance(rng):
    sizes = [(4, 5, 3), (3, 4, 2), (5, 3, 4, 3)][int(rng.integers(3))]
    net = make_network(sizes, seed=int(rng.integers(10**6)))
    for layer in net.layers:
        # zero biases would park ReLU inputs on the kink where central
        # differences are invalid
        layer.biases[...] = rng.normal(0.0, 0.3, layer.biases.shape)
    n = int(rng.integers(3, 8))
    batch = Batch(rng.normal(0.0, 1.0, (n, sizes[0])),
                  rng.integers(0, sizes[-1], n))
    _, d_weights, d_biases = error_loss_and_grad(net, batch)

    for analytic, params in ((d_weights, net.weights), (d_biases, net.biases)):
        p0 = params.copy()

        def f(pf):
            params[:] = pf
            loss = error_loss_and_grad(net, batch)[0]
            params[:] = p0
            return loss

        np.testing.assert_allclose(analytic, _fd_grad(f, p0),
                                   rtol=FD_RTOL, atol=FD_ATOL)


def _mixture_fd(m, field, f, skip0=False):
    x0 = getattr(m, field).copy()

    def wrap(vec):
        m2 = m.copy()
        getattr(m2, field)[...] = vec
        return f(m2)

    fd = _fd_grad(wrap, x0)
    return fd[1:] if skip0 else fd


def _check_prior_instance(rng):
    k = int(rng.integers(3, 6))
    m = _rand_mixture(rng, k)
    w = rng.normal(0.0, 0.5, int(rng.integers(8, 21)))
    g = prior_grads(w, m)

    np.testing.assert_allclose(
        g.d_weights, _fd_grad(lambda x: log_prior(x, m), w),
        rtol=FD_RTOL, atol=FD_ATOL)
    prior_of = lambda m2: log_prior(w, m2)
    # the zero-spike mean is pinned by contract, so its slot is skipped
    np.testing.assert_allclose(g.d_means[1:],
                               _mixture_fd(m, "means", prior_of, skip0=True),
                               rtol=FD_RTOL, atol=FD_ATOL)
    np.testing.assert_allclose(g.d_log_vars,
                               _mixture_fd(m, "log_vars", prior_of),
                               rtol=FD_RTOL, atol=FD_ATOL)
    np.testing.assert_allclose(g.d_logits,
                               _mixture_fd(m, "logits", prior_of),
                               rtol=FD_RTOL, atol=FD_ATOL)


def _rand_hyper(rng):
    while True:
        h = HyperPriorConfig(
            gamma_zero=((rng.uniform(1.5, 60.0), rng.uniform(0.1, 5.0))
                        if rng.integers(2) else None),
            gamma_rest=((rng.uniform(1.5, 60.0), rng.uniform(0.1, 5.0))
                        if rng.integers(2) else None),
        )
        if h.any_enabled:
            return h


def _check_hyper_instance(rng):
    m = _rand_mixture(rng, int(rng.integers(3, 6)))
    h = _rand_hyper(rng)
    density_of = lambda m2: hyper_log_density(m2, h)
    np.testing.assert_allclose(hyper_grads(m, h), _mixture_fd(m, "log_vars", density_of),
                               rtol=FD_RTOL, atol=FD_ATOL)


def _check_combined_instance(rng):
    sizes = (4, 4, 3)
    net = make_network(sizes, seed=int(rng.integers(10**6)))
    for layer in net.layers:
        layer.biases[...] = rng.normal(0.0, 0.3, layer.biases.shape)
    n = int(rng.integers(3, 7))
    batch = Batch(rng.normal(0.0, 1.0, (n, sizes[0])),
                  rng.integers(0, sizes[-1], n))
    m = _rand_mixture(rng, int(rng.integers(3, 5)))
    h = _rand_hyper(rng) if rng.integers(2) else None
    tau = 10.0 ** rng.uniform(-3.0, -0.5)

    def total(wf, mx):
        net.weights[:] = wf
        loss = error_loss_and_grad(net, batch)[0]
        complexity = -(log_prior(wf, mx)
                       + (hyper_log_density(mx, h) if h else 0.0))
        return loss + tau * complexity

    w0 = net.weights.copy()
    _, d_weights, _ = error_loss_and_grad(net, batch)
    g = prior_grads(w0, m, h)

    analytic_w = d_weights - tau * g.d_weights
    fd_w = _fd_grad(lambda x: total(x, m), w0)
    net.weights[:] = w0
    np.testing.assert_allclose(analytic_w, fd_w, rtol=FD_RTOL, atol=FD_ATOL)

    total_of = lambda m2: total(w0, m2)
    np.testing.assert_allclose(-tau * g.d_means[1:],
                               _mixture_fd(m, "means", total_of, skip0=True),
                               rtol=FD_RTOL, atol=FD_ATOL)
    np.testing.assert_allclose(-tau * g.d_log_vars,
                               _mixture_fd(m, "log_vars", total_of),
                               rtol=FD_RTOL, atol=FD_ATOL)
    np.testing.assert_allclose(-tau * g.d_logits,
                               _mixture_fd(m, "logits", total_of),
                               rtol=FD_RTOL, atol=FD_ATOL)


def test_criterion_2_gradient_suite():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        count = 0
        for _ in range(30):
            _check_error_loss_instance(rng)
            count += 1
        for _ in range(30):
            _check_prior_instance(rng)
            count += 1
        for _ in range(25):
            _check_hyper_instance(rng)
            count += 1
        for _ in range(20):
            _check_combined_instance(rng)
            count += 1
        elapsed = time.perf_counter() - t0
        assert count >= 100
        assert elapsed < 60.0
        return f"{count} randomized instances, {elapsed:.1f} s"

    _verdict(2, "analytic gradients match central differences at 1e-4", body)


# ------------------------------------------------- 3: merge conservation

def test_criterion_3_merge_conservation():
    def body():
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(4, 9))
            m = _rand_mixture(rng, k)
            i, j = sorted(rng.choice(np.arange(1, k), 2, replace=False))
            pi = m.mixing_proportions()
            var = m.variances()
            merged = merge_components(m, int(i), int(j))
            pi2 = merged.mixing_proportions()
            var2 = merged.variances()

            mass = abs(pi2.sum() - pi.sum())
            mean_scale = max(float((pi * np.abs(m.means)).sum()), 1e-30)
            mean = abs((pi2 * merged.means).sum()
                       - (pi * m.means).sum()) / mean_scale
            var_scale = float((pi * var).sum())
            variance = abs((pi2 * var2).sum() - var_scale) / var_scale
            worst = max(worst, mass, mean, variance)
        assert worst < 1e-12
        return f"1000 random pairs, worst relative drift {worst:.2e}"

    _verdict(3, "merging conserves mass and the weighted mean and variance",
             body)


# ---------------------------------------------------- 4: codec properties

def test_criterion_4_codec_properties():
    def body():
        rng = np.random.default_rng(2)
        for _ in range(200):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            table = np.concatenate([[0.0], rng.normal(0.0, 0.5, 4)])
            dense = table[rng.integers(0, 5, (rows, cols))]
            dense[rng.random((rows, cols)) < rng.uniform(0.2, 0.9)] = 0.0
            np.testing.assert_array_equal(from_csr(to_csr(dense)), dense)

        for _ in range(200):
            p = int(rng.integers(1, 9))
            count = int(rng.integers(0, 30))
            indices = sorted(rng.choice(400, size=count, replace=False))
            values = list(rng.choice([-1.25, 0.5, 2.0], size=count))
            ir = np.array([0, count])
            gaps, entry_values = rel_encode(np.array(indices, dtype=np.int64),
                                            np.array(values), ir, p)
            _, got_i, got_v = rel_decode(gaps, entry_values, ir, 400)
            assert got_i.tolist() == [int(x) for x in indices]
            assert got_v.tolist() == values

        for _ in range(200):
            values = rng.choice(rng.normal(0.0, 1.0, int(rng.integers(1, 9))),
                                size=int(rng.integers(1, 60)))
            table, idx = build_codebook(values)
            np.testing.assert_array_equal(table[idx], values)

        for _ in range(200):
            alphabet = int(rng.integers(2, 40))
            stream = rng.integers(0, alphabet,
                                  size=int(rng.integers(2, 400))).tolist()
            if len(set(stream)) < 2:
                stream[0] = (stream[1] + 1) % alphabet
            table, payload, bits = huffman_encode(stream, alphabet)
            assert huffman_decode(table, payload, len(stream)).tolist() == stream
            counts = np.bincount(stream, minlength=alphabet)
            freq = counts[counts > 0] / len(stream)
            entropy = float(-(freq * np.log2(freq)).sum())
            assert bits / len(stream) < entropy + 1.0
            kraft = sum(Fraction(1, 2 ** int(l))
                        for l in table.lengths if l > 0)
            assert kraft == 1
        return "200 round trips per stage, Kraft sums exactly 1"

    _verdict(4, "codec round trips exactly and Huffman stays within a bit of "
                "the entropy", body)


# -------------------------------------- 5: subsampled-gradient unbiasedness

def test_criterion_5_subsampled_gradient_unbiasedness():
    def body():
        rng = np.random.default_rng(3)
        total = 50
        k = total // 10
        w = rng.normal(0.0, 0.4, total)
        m = init_mixture(w, n_free=4, pi0=0.85, weight_decay=1e-4, tau=1e-3)
        exact = prior_grads(w, m)

        fields = ("d_weights", "d_means", "d_log_vars", "d_logits")
        sums = {f: np.zeros_like(getattr(exact, f)) for f in fields}
        sq = {f: np.zeros_like(getattr(exact, f)) for f in fields}
        draws = 10_000
        draw_rng = np.random.default_rng(4)
        for _ in range(draws):
            g = subsampled_prior_grads(w, m, None, k, draw_rng)
            for f in fields:
                arr = getattr(g, f)
                sums[f] += arr
                sq[f] += arr * arr

        worst_z = 0.0
        for f in fields:
            mean = sums[f] / draws
            var = (sq[f] / draws - mean * mean) * draws / (draws - 1)
            se = np.sqrt(np.maximum(var, 0.0) / draws)
            diff = np.abs(mean - getattr(exact, f))
            assert np.all(diff <= 3.0 * se + 1e-12)
            live = se > 0
            if np.any(live):
                worst_z = max(worst_z, float((diff[live] / se[live]).max()))
        return (f"I={total}, K={k}, {draws} draws, "
                f"max |z| = {worst_z:.2f} (gate 3.0)")

    _verdict(5, "subsampled prior gradients are unbiased per coordinate", body)


# --------------------------------------------- 6 and 7: reference pipeline

@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    cfg = load_config(ROOT / "configs" / "synthetic.cfg",
                      overrides=[f"output_dir={out}"])
    t0 = time.perf_counter()
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


@pytest.mark.slow
def test_criterion_6_desk_scale_end_to_end(reference_run):
    def body():
        _, result, elapsed = reference_run
        r = result.report
        before, after = r["error_before"], r["error_after"]
        cr = r["compression_rate"]
        layer_prune = [l["prune_fraction"] for l in r["layers"]]
        overall = (sum(l["prune_fraction"] * l["params"] for l in r["layers"])
                   / r["total_params"])
        comps = r["n_components_final"]

        assert before <= 0.025
        assert cr >= 20.0
        assert after - before <= 0.010 + 1e-12
        assert overall >= 0.85
        assert layer_prune[0] > layer_prune[-1]
        assert comps < 17
        assert elapsed <= 45 * 60
        prune_txt = "/".join(f"{p:.2f}" for p in layer_prune)
        return (f"CR {cr:.1f}, err {before:.4f}->{after:.4f}, "
                f"prune {overall:.3f} by layer {prune_txt}, "
                f"{comps} components, {elapsed:.0f} s")

    _verdict(6, "desk-scale pipeline hits the compression and accuracy gates",
             body)


@pytest.mark.slow
def test_criterion_7_determinism(reference_run, tmp_path_factory):
    def body():
        cfg, result, _ = reference_run
        out2 = tmp_path_factory.mktemp("reference-again")
        cfg2 = load_config(ROOT / "configs" / "synthetic.cfg",
                           overrides=[f"output_dir={out2}"])
        assert cfg2.seed == cfg.seed
        run_pipeline(cfg2)
        sizes = []
        for name in ("weights.swsb", "report.json", "quantized.bin"):
            a = (result.output_dir / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
            sizes.append(len(a))
        return (f"blob/report/quantized byte-identical "
                f"({sizes[0]}/{sizes[1]}/{sizes[2]} bytes)")

    _verdict(7, "identical config and seed give byte-identical artifacts",
             body)


# Optional full-scale variant: exercises the same gates on real handwritten
# digits when the four IDX files are present (scripts/fetch_mnist.py).
MNIST_DIR = ROOT / "data" / "mnist"


@pytest.mark.slow
@pytest.mark.skipif(not (MNIST_DIR / "train-images-idx3-ubyte").exists()
                    and not (MNIST_DIR / "train-images-idx3-ubyte.gz").exists(),
                    reason="IDX digit files not present under data/mnist")
def test_full_scale_recipe_when_data_present(tmp_path):
    cfg = load_config(ROOT / "configs" / "lenet300.cfg",
                      overrides=[f"output_dir={tmp_path / 'out'}",
                                 f"data_dir={MNIST_DIR}"])
    t0 = time.perf_counter()
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    r = result.report
    assert r["error_before"] <= 0.025
    assert r["compression_rate"] >= 20.0
    assert r["error_after"] - r["error_before"] <= 0.010 + 1e-12
    layers = r["layers"]
    overall = (sum(l["prune_fraction"] * l["params"] for l in layers)
               / r["total_params"])
    assert overall >= 0.85
    assert layers[0]["prune_fraction"] > layers[-1]["prune_fraction"]
    assert r["n_components_final"] < 17
    assert elapsed <= 45 * 60
