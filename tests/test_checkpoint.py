"""Full-precision checkpoint container round trips and corruption handling."""
import os
import struct

import numpy as np
import pytest

from softshare.checkpoint import load_checkpoint, save_checkpoint, write_file
from softshare.errors import DataFormatError
from softshare.mixture import HyperPriorConfig, MixtureModel, init_mixture
from softshare.net import make_network


def _net(seed=0):
    net = make_network((6, 4, 3), seed=seed)
    rng = np.random.default_rng(seed + 100)
    for layer in net.layers:
        layer.biases[...] = rng.normal(0.0, 0.2, layer.biases.shape)
    return net


def test_network_only_round_trip(tmp_path):
    net = _net()
    path = tmp_path / "model.swsc"
    save_checkpoint(net, path)
    net2, mixture, hyper = load_checkpoint(path)
    assert mixture is None and hyper is None
    np.testing.assert_array_equal(net2.weights, net.weights)
    for a, b in zip(net2.layers, net.layers):
        np.testing.assert_array_equal(a.biases, b.biases)
        assert a.activation == b.activation


@pytest.mark.parametrize("trainable", [False, True])
def test_mixture_round_trip_is_bit_exact(tmp_path, trainable):
    net = _net(1)
    m = init_mixture(net.weights, n_free=5, pi0=0.93,
                     weight_decay=1e-4, tau=3e-3, pi0_trainable=trainable)
    path = tmp_path / "model.swsc"
    save_checkpoint(net, path, m)
    _, m2, hyper = load_checkpoint(path)
    assert hyper is None
    np.testing.assert_array_equal(m2.means, m.means)
    np.testing.assert_array_equal(m2.log_vars, m.log_vars)
    np.testing.assert_array_equal(m2.logits, m.logits)
    assert m2.pi0 == m.pi0
    assert m2.pi0_trainable == m.pi0_trainable
    assert m2.tau == m.tau


@pytest.mark.parametrize("hyper", [
    HyperPriorConfig(gamma_zero=(121.0, 0.3)),
    HyperPriorConfig(gamma_rest=(101.0, 0.25), beta_pi0=(9.0, 2.0)),
    HyperPriorConfig(gamma_zero=(50.0, 1.0), gamma_rest=(20.0, 0.5),
                     beta_pi0=(3.0, 3.0)),
])
def test_hyper_prior_round_trip(tmp_path, hyper):
    net = _net(2)
    m = init_mixture(net.weights, n_free=3, pi0=0.9,
                     weight_decay=0.0, tau=1e-3)
    path = tmp_path / "model.swsc"
    save_checkpoint(net, path, m, hyper)
    _, _, h2 = load_checkpoint(path)
    assert h2.gamma_zero == hyper.gamma_zero
    assert h2.gamma_rest == hyper.gamma_rest
    assert h2.beta_pi0 == hyper.beta_pi0


def test_saving_hyper_without_mixture_keeps_plain_layout(tmp_path):
    # hyper parameters only make sense next to a mixture; without one the
    # file is a plain network checkpoint
    net = _net(3)
    path = tmp_path / "model.swsc"
    save_checkpoint(net, path, None, HyperPriorConfig(gamma_zero=(5.0, 1.0)))
    _, mixture, hyper = load_checkpoint(path)
    assert mixture is None and hyper is None


def test_load_rejects_corruption(tmp_path):
    net = _net(4)
    m = init_mixture(net.weights, n_free=3, pi0=0.9,
                     weight_decay=0.0, tau=1e-3)
    path = tmp_path / "model.swsc"
    save_checkpoint(net, path, m)
    blob = path.read_bytes()

    bad = tmp_path / "bad.swsc"
    bad.write_bytes(b"JUNK" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:4] + b"\x42\x00" + blob[6:])
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:16] + b"\x09" + blob[17:])
    with pytest.raises(DataFormatError, match="activation tag"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:-9])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(blob + b"\x00\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(bad)


def _swsc(layers, mixture=b""):
    """A well-formed SWSC file: (rows, cols, activation tag) per layer, zero
    parameters, then the given mixture block bytes."""
    parts = [b"SWSC", struct.pack("<HH", 1, len(layers))]
    for rows, cols, tag in layers:
        parts += [struct.pack("<IIB", rows, cols, tag), bytes(8 * (rows * cols + rows))]
    return b"".join(parts) + mixture


def _mixture_block(means=(0.0, 0.5), pi0=0.9, hflags=0, pairs=(0.0,) * 6):
    k = len(means)
    comp = np.zeros((k, 3))
    comp[:, 0] = means
    return (struct.pack("<H", k) + comp.astype("<f8").tobytes()
            + struct.pack("<Bdd", 0, 1e-3, pi0) + struct.pack("<B6d", hflags, *pairs))


@pytest.mark.parametrize("blob, match", [
    (_swsc([(3, 4, 0)]), "final layer must use softmax"),
    (_swsc([(4, 3, 1), (2, 4, 1)]), "hidden layers must use relu"),
    (_swsc([]), "at least one layer"),
    (_swsc([(3, 4, 0), (2, 5, 1)]), "do not chain"),
    (_swsc([(2, 4, 1)], _mixture_block(means=(0.25, 0.5))), "zero-spike mean"),
    (_swsc([(2, 4, 1)], _mixture_block(pi0=1.5)), "pi0 must lie"),
    (_swsc([(2, 4, 1)], _mixture_block(hflags=1, pairs=(0.5, 1.0, 0, 0, 0, 0))),
     "gamma_zero needs"),
], ids=["relu_head", "softmax_hidden", "no_layers", "unchained", "spike_mean", "pi0", "hyper"])
def test_load_rejects_well_formed_files_that_fail_validation(tmp_path, blob, match):
    path = tmp_path / "odd.swsc"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_write_file_creates_directories_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "blob.bin"
    write_file(path, b"first")
    write_file(path, b"second")
    assert path.read_bytes() == b"second"
    assert os.listdir(path.parent) == ["blob.bin"]


def test_interrupted_write_keeps_the_earlier_artifact(tmp_path, monkeypatch):
    path = tmp_path / "model.swsc"
    save_checkpoint(_net(0), path)
    before = path.read_bytes()

    def interrupted(src, dst):
        assert os.path.getsize(src) > 0     # the new bytes were on their way
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(_net(1), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.swsc"]
