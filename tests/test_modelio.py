import numpy as np
import pytest

from lstmens import init_network
from lstmens.modelio import ModelFormatError, ModelMeta, load_model, save_model
from lstmens.rng import Rng


def nets_equal(a, b):
    pairs = zip(a.param_items(), b.param_items())
    return all(na == nb and np.array_equal(ta, tb) for (na, ta), (nb, tb) in pairs)


def test_round_trip_bit_exact(tmp_path):
    for seed in range(5):
        net = init_network(4, 6, 3, num_layers=2, rng=Rng(seed))
        # scale weights into awkward magnitudes to stress the rendering
        net.layers[0].wxf *= 1e-7
        net.output.w *= 137.035999
        path = tmp_path / f"net{seed}.lstm"
        save_model(net, path, ModelMeta("F1", 12, 0.8517392))
        loaded, meta = load_model(path)
        assert nets_equal(net, loaded)
        assert meta.loss == "F1" and meta.epoch == 12 and meta.val_f1 == 0.8517392


def test_save_is_deterministic(tmp_path):
    net = init_network(3, 4, 2, num_layers=1, rng=Rng(7))
    save_model(net, tmp_path / "a.lstm")
    save_model(net, tmp_path / "b.lstm")
    assert (tmp_path / "a.lstm").read_bytes() == (tmp_path / "b.lstm").read_bytes()


def test_truncated_file_is_parse_error(tmp_path):
    net = init_network(3, 4, 2, num_layers=1, rng=Rng(1))
    path = tmp_path / "net.lstm"
    save_model(net, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ModelFormatError, match="missing tensors"):
        load_model(path)


def test_version_mismatch_is_explicit(tmp_path):
    net = init_network(2, 3, 2, num_layers=1, rng=Rng(2))
    path = tmp_path / "net.lstm"
    save_model(net, path)
    body = path.read_text().replace("LSTMENS v1", "LSTMENS v9", 1)
    path.write_text(body)
    with pytest.raises(ModelFormatError, match="incompatible format version"):
        load_model(path)


def test_wrong_tag_rejected(tmp_path):
    path = tmp_path / "junk.lstm"
    path.write_text("NOTAMODEL v1\n")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(path)


def test_malformed_values_report_line(tmp_path):
    net = init_network(2, 3, 2, num_layers=1, rng=Rng(3))
    path = tmp_path / "net.lstm"
    save_model(net, path)
    lines = path.read_text().splitlines()
    parts = lines[2].split()
    parts[5] = "bogus"
    lines[2] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="line 3"):
        load_model(path)


def _with_header_field(path, index, value):
    lines = path.read_text().splitlines()
    fields = lines[1].split()
    fields[index] = value
    lines[1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_unknown_loss_kind_rejected_on_line_2(tmp_path):
    path = tmp_path / "net.lstm"
    save_model(init_network(2, 3, 2, num_layers=1, rng=Rng(4)), path, ModelMeta("CE", 1, 0.5))
    _with_header_field(path, 4, "MSE")
    with pytest.raises(ModelFormatError, match="line 2: unknown loss kind 'MSE'"):
        load_model(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_val_f1_rejected_on_line_2(tmp_path, value):
    path = tmp_path / "net.lstm"
    save_model(init_network(2, 3, 2, num_layers=1, rng=Rng(5)), path, ModelMeta("F1", 1, 0.5))
    _with_header_field(path, 6, value)
    with pytest.raises(ModelFormatError, match="line 2: non-finite val_f1"):
        load_model(path)
