"""Component merging and quantization.

The KL oracle here is numerical integration (scipy.integrate.quad), kept
independent of the closed form under test. Merge identities are checked
against moment sums computed directly from the parent mixture.
"""
import math
import struct
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from softshare.errors import ConfigurationError, DataFormatError, NumericError
from softshare.mixture import MixtureModel, _chunk_density, _component_terms, _neg_q
from softshare.net import Layer, Network
from softshare.postprocess import (
    ZERO_SNAP_TOL,
    QuantizedLayer,
    QuantizedNetwork,
    kl_gaussian,
    load_quantized,
    merge_components,
    merge_pass,
    quantize,
    save_quantized,
)


def _random_mixture(seed, k=6, trainable=False):
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 0.5, k)
    means[0] = 0.0
    log_vars = rng.uniform(-6.0, -1.0, k)
    logits = rng.normal(0.0, 1.0, k)
    if trainable:
        logits = np.log(np.exp(logits) / np.exp(logits).sum())
        return MixtureModel(means, log_vars, logits, float(np.exp(logits[0])),
                            pi0_trainable=True)
    return MixtureModel(means, log_vars, logits, 0.8)


def test_kl_gaussian_matches_numerical_integration():
    cases = [(0.0, 1.0, 0.5, 2.0), (-1.2, 0.3, -1.0, 0.25), (2.0, 1e-3, 2.1, 5e-3)]
    for mu_i, var_i, mu_j, var_j in cases:
        p = norm(mu_i, math.sqrt(var_i))
        q = norm(mu_j, math.sqrt(var_j))
        integrand = lambda x: p.pdf(x) * (p.logpdf(x) - q.logpdf(x))
        lo, hi = mu_i - 12 * math.sqrt(var_i), mu_i + 12 * math.sqrt(var_i)
        expected, _ = integrate.quad(integrand, lo, hi, limit=200)
        got = kl_gaussian(mu_i, var_i, mu_j, var_j)
        np.testing.assert_allclose(got, expected, rtol=1e-8)


def test_kl_gaussian_edge_behaviour():
    assert kl_gaussian(0.3, 0.7, 0.3, 0.7) == 0.0
    assert kl_gaussian(0.0, 1.0, 1.0, 1.0) > 0.0
    # asymmetry
    assert kl_gaussian(0.0, 1.0, 0.0, 4.0) != kl_gaussian(0.0, 4.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        kl_gaussian(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        kl_gaussian(0.0, 1.0, 0.0, -2.0)


@pytest.mark.parametrize("trainable", [False, True])
def test_merge_conserves_moment_sums(trainable):
    rng = np.random.default_rng(11)
    for trial in range(50):
        m = _random_mixture(100 + trial, k=7, trainable=trainable)
        i, j = sorted(rng.choice(np.arange(1, 7), size=2, replace=False))
        pi = m.mixing_proportions()
        var = m.variances()
        merged = merge_components(m, int(i), int(j))
        pi2 = merged.mixing_proportions()
        var2 = merged.variances()
        assert merged.n_components == m.n_components - 1
        np.testing.assert_allclose(pi2.sum(), 1.0, rtol=1e-12)
        # mass, pi-weighted mean, pi-weighted variance all conserved
        np.testing.assert_allclose(pi2.sum(), pi.sum(), rtol=1e-12)
        np.testing.assert_allclose((pi2 * merged.means).sum(),
                                   (pi * m.means).sum(), atol=1e-14)
        np.testing.assert_allclose((pi2 * var2).sum(), (pi * var).sum(),
                                   rtol=1e-12)


def test_merge_lands_in_lower_slot():
    m = _random_mixture(5, k=5)
    pi = m.mixing_proportions()
    merged = merge_components(m, 3, 1)  # order of arguments must not matter
    pi2 = merged.mixing_proportions()
    np.testing.assert_allclose(pi2[1], pi[1] + pi[3], rtol=1e-12)
    # slots above the removed index shift down by one
    np.testing.assert_allclose(merged.means[3], m.means[4], rtol=0)
    np.testing.assert_allclose(pi2[3], pi[4], rtol=1e-12)


def test_merge_rederived_logits_reproduce_proportions():
    for trainable in (False, True):
        m = _random_mixture(9, k=6, trainable=trainable)
        pi = m.mixing_proportions()
        merged = merge_components(m, 2, 4)
        expect = np.delete(pi, 4)
        expect[2] = pi[2] + pi[4]
        np.testing.assert_allclose(merged.mixing_proportions(), expect,
                                   rtol=1e-12)
        merged.validate()


def test_merge_into_zero_spike_snaps_or_rejects():
    means = np.array([0.0, 3e-5, 1.0])
    log_vars = np.log(np.array([1e-6, 1e-6, 0.1]))
    m = MixtureModel(means, log_vars, np.zeros(3), 0.9)
    merged = merge_components(m, 0, 1)
    assert merged.means[0] == 0.0  # snapped exactly, not just close
    np.testing.assert_allclose(merged.mixing_proportions()[0], 0.95,
                               rtol=1e-12)

    far = MixtureModel(np.array([0.0, 0.5, 1.0]), log_vars, np.zeros(3), 0.9)
    with pytest.raises(ConfigurationError, match="zero spike"):
        merge_components(far, 0, 1)


def test_merge_rejects_bad_pairs():
    m = _random_mixture(3, k=4)
    with pytest.raises(ConfigurationError):
        merge_components(m, 1, 1)
    with pytest.raises(ConfigurationError):
        merge_components(m, 0, 9)


def _three_cluster_mixture():
    # components 1,2 nearly coincide; 3,4 coincide less tightly; 5 far away
    means = np.array([0.0, -0.50, -0.501, 0.60, 0.62, 2.0])
    var = np.array([1e-4, 1e-3, 1e-3, 1e-3, 1e-3, 1e-2])
    return MixtureModel(means, np.log(var), np.zeros(6), 0.5)


def test_merge_pass_takes_closest_pair_first():
    m = _three_cluster_mixture()
    mu, var = m.means, m.variances()
    sym_kl = {(i, j): kl_gaussian(mu[i], var[i], mu[j], var[j])
              + kl_gaussian(mu[j], var[j], mu[i], var[i]) for i, j in ((1, 2), (3, 4))}
    assert sym_kl[1, 2] < sym_kl[3, 4] < 1.0
    # a threshold at the (3,4) distance stops the pass after its first merge
    out = merge_pass(m, kl_threshold=sym_kl[3, 4])
    assert out.n_components == 5
    # the (1,2) pair is tighter than (3,4); it must merge first
    assert not np.any(np.isclose(out.means, -0.501))
    assert np.any(np.isclose(out.means, 0.60)) and np.any(np.isclose(out.means, 0.62))
    first = merge_components(m, 1, 2)
    for name in ("means", "log_vars", "logits"):
        np.testing.assert_array_equal(getattr(out, name), getattr(first, name))


def test_merge_pass_honors_threshold_and_budget():
    m = _three_cluster_mixture()
    # threshold 0 never merges, even for identical components
    same = MixtureModel(np.array([0.0, 1.0, 1.0]),
                        np.log(np.array([1e-4, 1e-3, 1e-3])),
                        np.zeros(3), 0.5)
    assert merge_pass(same, kl_threshold=0.0).n_components == 3
    full = merge_pass(m, kl_threshold=1.0)
    assert full.n_components == 4  # both tight pairs collapse, outlier stays


def test_merge_pass_never_goes_below_two_components():
    same = MixtureModel(np.array([0.0, 1e-5, 2e-5]),
                        np.log(np.full(3, 1e-4)), np.zeros(3), 0.4)
    out = merge_pass(same, kl_threshold=100.0)
    assert out.n_components == 2


def _snap_fixture():
    w = np.array([[1e-6, -0.49, 0.52, 0.01],
                  [0.48, -2e-5, -0.51, 0.0]])
    net = Network([Layer(w, np.array([0.25, -0.75]), "softmax")])
    means = np.array([0.0, -0.5, 0.5])
    m = MixtureModel(means, np.log(np.full(3, 1e-2)), np.zeros(3), 0.6)
    return net, m


def test_quantize_assigns_by_responsibility_argmax():
    net, m = _snap_fixture()
    q = quantize(net, m)
    expected = np.array([[0, 1, 2, 0], [2, 0, 1, 0]])
    np.testing.assert_array_equal(q.layers[0].assignments, expected)
    # and against the responsibilities of _chunk_density over all weights at once
    w = net.weights
    comp = _component_terms(m)
    E = np.empty((comp.live.size, w.size))
    _neg_q(w, comp, E)
    norm, _ = _chunk_density(E, comp)
    r = comp.c[:, None] * E / norm
    np.testing.assert_array_equal(q.layers[0].assignments.ravel(),
                                  comp.live[np.argmax(r, axis=0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_weights(bad):
    net, m = _snap_fixture()
    net.layers[0].weights[1, 1] = bad   # flat index 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"index 5$"):
            quantize(net, m)


def test_quantize_exact_ties_go_to_the_lower_index():
    # one softmax over equal logits: all three masses are exactly 1/3
    m = MixtureModel(np.array([0.0, 0.25, 0.75]), np.log(np.full(3, 1e-2)),
                     np.zeros(3), 1 / 3, pi0_trainable=True)
    # 0.5 is midway between 0.25 and 0.75; 0.125 between the spike and 0.25
    net = Network([Layer(np.array([[0.5, 0.125]]), np.zeros(1), "softmax")])
    q = quantize(net, m)
    np.testing.assert_array_equal(q.layers[0].assignments, [[1, 0]])


def test_quantized_network_materializes_table_values():
    net, m = _snap_fixture()
    q = quantize(net, m)
    snapped = q.to_network()
    w = snapped.layers[0].weights
    assert set(np.unique(w)) <= set(q.means)
    assert np.all(w[q.layers[0].assignments == 0] == 0.0)
    np.testing.assert_array_equal(snapped.layers[0].biases, net.layers[0].biases)
    assert snapped.layers[0].biases is not q.layers[0].biases


def test_prune_fraction_counts_zero_assignments():
    net, m = _snap_fixture()
    q = quantize(net, m)
    assert q.prune_fraction() == 4 / 8
    assert q.prune_fraction(0) == 4 / 8


def test_quantized_network_validation():
    a = np.array([[0, 1]])
    with pytest.raises(ConfigurationError):
        QuantizedLayer(a, np.zeros(2), "softmax")  # bias length mismatch
    with pytest.raises(ConfigurationError):
        QuantizedLayer(a, np.zeros(1), "sigmoid")
    ql = QuantizedLayer(a, np.zeros(1), "softmax")
    with pytest.raises(ConfigurationError):
        QuantizedNetwork([ql], np.array([0.1, 0.5]))  # slot 0 not zero
    with pytest.raises(ConfigurationError):
        QuantizedNetwork([ql], np.array([0.0]))  # index 1 out of range


@pytest.mark.parametrize("means, assignment, match", [
    ([0.5, 0.25], 1, "slot 0 must be exactly 0"),
    ([0.0, 0.25], 2, "outside the mean table"),
    ([], 0, "non-empty"),
])
def test_load_rejects_well_formed_files_that_fail_validation(
        tmp_path, means, assignment, match):
    blob = (b"SWSQ" + struct.pack("<HHH", 1, 1, len(means))
            + np.asarray(means, dtype="<f8").tobytes()
            + struct.pack("<IIBB", 1, 2, 1, 1) + bytes([0, assignment]) + bytes(8))
    path = tmp_path / "odd.swsq"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match=match) as info:
        load_quantized(path)
    assert str(path) in str(info.value)


def test_save_load_round_trip(tmp_path):
    net, m = _snap_fixture()
    q = quantize(net, m)
    path = tmp_path / "model.swsq"
    save_quantized(q, path)
    q2 = load_quantized(path)
    np.testing.assert_array_equal(q2.means, q.means)
    assert len(q2.layers) == len(q.layers)
    np.testing.assert_array_equal(q2.layers[0].assignments, q.layers[0].assignments)
    np.testing.assert_array_equal(q2.layers[0].biases, q.layers[0].biases)
    assert q2.layers[0].activation == q.layers[0].activation


def test_save_uses_wide_indices_for_big_tables(tmp_path):
    k = 300
    means = np.concatenate([[0.0], np.linspace(-1, 1, k - 1)])
    a = np.arange(k, dtype=np.int64).reshape(10, 30) % k
    q = QuantizedNetwork([QuantizedLayer(a, np.zeros(10), "softmax")], means)
    path = tmp_path / "wide.swsq"
    save_quantized(q, path)
    q2 = load_quantized(path)
    np.testing.assert_array_equal(q2.layers[0].assignments, a)
    np.testing.assert_array_equal(q2.means, means)


def test_load_rejects_corruption(tmp_path):
    net, m = _snap_fixture()
    q = quantize(net, m)
    path = tmp_path / "model.swsq"
    save_quantized(q, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.swsq"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_quantized(bad_magic)

    truncated = tmp_path / "short.swsq"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(DataFormatError, match="truncated"):
        load_quantized(truncated)

    padded = tmp_path / "padded.swsq"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_quantized(padded)

    versioned = tmp_path / "version.swsq"
    versioned.write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(DataFormatError, match="version"):
        load_quantized(versioned)


def test_zero_snap_tolerance_is_tight():
    # right at the boundary the merge must refuse; just inside it snaps
    log_vars = np.log(np.array([1e-6, 1e-6, 1e-2]))
    pi0 = 0.5
    for mu, ok in [(2.9 * ZERO_SNAP_TOL, True), (3.1 * ZERO_SNAP_TOL, False)]:
        m = MixtureModel(np.array([0.0, mu, 5.0]), log_vars, np.zeros(3), pi0)
        # masses are (0.5, 0.25, 0.25), so the combined mean is mu/3 and
        # the two mu choices straddle the tolerance
        if ok:
            out = merge_components(m, 0, 1)
            assert out.means[0] == 0.0
        else:
            with pytest.raises(ConfigurationError):
                merge_components(m, 0, 1)
