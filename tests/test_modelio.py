import re

import numpy as np
import pytest

from lstmens import LossKind, LstmNetwork, init_network
from lstmens.modelio import BaseLearner, ModelFormatError, load_model, save_model
from lstmens.rng import Rng


def nets_equal(a, b):
    pairs = zip(a.param_items(), b.param_items())
    return all(na == nb and np.array_equal(ta, tb) for (na, ta), (nb, tb) in pairs)


def snapshot(net, loss=LossKind.CE, epoch=0, val_f1=0.0):
    return BaseLearner(net, epoch, loss, val_f1)


def test_round_trip_bit_exact(tmp_path):
    for seed in range(5):
        net = init_network(4, 6, 3, num_layers=2, rng=Rng(seed))
        # scale weights into awkward magnitudes to stress the rendering
        net.layers[0].wxf *= 1e-7
        net.output.w *= 137.035999
        path = tmp_path / f"net{seed}.lstm"
        save_model(snapshot(net, LossKind.F1, 12, 0.8517392), path)
        loaded = load_model(path)
        assert nets_equal(net, loaded.net)
        assert (loaded.epoch, loaded.loss, loaded.val_f1) == (12, LossKind.F1, 0.8517392)
        assert loaded.source_path == str(path)


def test_save_rejects_a_stack_before_opening_the_file(tmp_path):
    nets = [init_network(2, 3, 2, num_layers=1, rng=Rng(s)) for s in (1, 2)]
    stack = LstmNetwork(np.stack([net.flat for net in nets]), nets[0].shape)
    path = tmp_path / "stack.lstm"
    with pytest.raises(ValueError, match=re.escape(f"{path}: cannot save a stack of 2")):
        save_model(snapshot(stack), path)
    assert not path.exists()


def test_save_is_deterministic(tmp_path):
    net = init_network(3, 4, 2, num_layers=1, rng=Rng(7))
    save_model(snapshot(net), tmp_path / "a.lstm")
    save_model(snapshot(net), tmp_path / "b.lstm")
    assert (tmp_path / "a.lstm").read_bytes() == (tmp_path / "b.lstm").read_bytes()


def _header_len(path) -> int:
    data = path.read_bytes()
    return data.index(b"\n", data.index(b"\n") + 1) + 1


def test_file_is_header_plus_raw_flat_vector(tmp_path):
    net = init_network(3, 5, 4, num_layers=2, rng=Rng(6))
    path = tmp_path / "net.lstm"
    save_model(snapshot(net, LossKind.CE, 3, 0.25), path)
    header = b"LSTMENS v2\n3 5 4 2 CE 3 0.25\n"
    assert path.read_bytes() == header + net.flat.astype("<f8").tobytes()
    assert path.stat().st_size == len(header) + 8 * net.flat.size


def test_truncated_file_is_parse_error(tmp_path):
    net = init_network(3, 4, 2, num_layers=1, rng=Rng(1))
    path = tmp_path / "net.lstm"
    save_model(snapshot(net), path)
    path.write_bytes(path.read_bytes()[:-5])
    want, found = net.flat.nbytes, net.flat.nbytes - 5
    with pytest.raises(ModelFormatError,
                       match=rf"net\.lstm parameters: expected {want} bytes, found {found}"):
        load_model(path)


def test_overlong_body_is_rejected(tmp_path):
    net = init_network(3, 4, 2, num_layers=1, rng=Rng(1))
    path = tmp_path / "net.lstm"
    save_model(snapshot(net), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    want = net.flat.nbytes
    with pytest.raises(ModelFormatError, match=rf"expected {want} bytes, found {want + 8}"):
        load_model(path)


def test_version_mismatch_is_explicit(tmp_path):
    net = init_network(2, 3, 2, num_layers=1, rng=Rng(2))
    path = tmp_path / "net.lstm"
    save_model(snapshot(net), path)
    saved = path.read_bytes()
    for version, message in (("v1", "model format v1 is retired"),
                             ("v9", "incompatible format version 'v9'")):
        path.write_bytes(saved.replace(b"LSTMENS v2", f"LSTMENS {version}".encode(), 1))
        with pytest.raises(ModelFormatError, match=rf"net\.lstm line 1: {message}"):
            load_model(path)


def test_wrong_tag_rejected(tmp_path):
    path = tmp_path / "junk.lstm"
    path.write_text("NOTAMODEL v1\n")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(path)


def test_malformed_values_report_line(tmp_path):
    net = init_network(2, 3, 2, num_layers=1, rng=Rng(3))
    path = tmp_path / "net.lstm"
    save_model(snapshot(net), path)
    saved = path.read_bytes()
    nan = np.array([np.nan], dtype="<f8").tobytes()
    # l0.wxf is the first H columns of l0.wx, so its entry (1, 2) is flat[1 * 4H + 2];
    # the last 8 bytes are the last entry of out.b
    for offset, name in ((_header_len(path) + 8 * (1 * 12 + 2), "l0.wxf"),
                         (len(saved) - 8, "out.b")):
        path.write_bytes(saved[:offset] + nan + saved[offset + 8 :])
        with pytest.raises(ModelFormatError,
                           match=rf"net\.lstm parameters: tensor '{name}' contains non-finite"):
            load_model(path)


def _with_header_field(path, index, value):
    data = path.read_bytes()
    end = _header_len(path)
    first, second = data[:end].splitlines(keepends=True)
    fields = second.split()
    fields[index] = value.encode()
    path.write_bytes(first + b" ".join(fields) + b"\n" + data[end:])


def test_unknown_loss_kind_rejected_on_line_2(tmp_path):
    path = tmp_path / "net.lstm"
    save_model(snapshot(init_network(2, 3, 2, num_layers=1, rng=Rng(4)), LossKind.CE, 1, 0.5),
               path)
    _with_header_field(path, 4, "MSE")
    with pytest.raises(ModelFormatError,
                       match=r"net\.lstm line 2: unknown loss 'MSE', expected one of CE, F1"):
        load_model(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_val_f1_rejected_on_line_2(tmp_path, value):
    path = tmp_path / "net.lstm"
    save_model(snapshot(init_network(2, 3, 2, num_layers=1, rng=Rng(5)), LossKind.F1, 1, 0.5),
               path)
    _with_header_field(path, 6, value)
    with pytest.raises(ModelFormatError,
                       match=rf"net\.lstm line 2: val_f1 '{value}' is not a finite number"):
        load_model(path)


@pytest.mark.parametrize("index,value,message", [
    (5, "2.5", r"epoch '2\.5' is not an integer"),
    (6, "high", r"val_f1 'high' is not a finite number"),
])
def test_malformed_snapshot_field_is_named_on_line_2(tmp_path, index, value, message):
    path = tmp_path / "net.lstm"
    save_model(snapshot(init_network(2, 3, 2, num_layers=1, rng=Rng(6)), LossKind.CE, 2, 0.5),
               path)
    _with_header_field(path, index, value)
    with pytest.raises(ModelFormatError, match=rf"net\.lstm line 2: {message}$"):
        load_model(path)
