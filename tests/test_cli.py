import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lstmens.bagging import load_learners
from lstmens.cli import build_parser, main
from lstmens.data import load_norm_stats, save_norm_stats
from lstmens.ensembles import load_ensemble, select_top_m
from lstmens.evaluation import confusion, mean_f1
from lstmens.network import LstmNetwork


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SYNTH = ["synth", "--d", "3", "--k", "3", "--t", "1500", "--regime", "imbalanced",
         "--seed", "7"]
TRAIN_SMALL = ["--k", "3", "--hidden", "6", "--layers", "2", "--b-low", "4",
               "--b-high", "8", "--l-low", "8", "--l-high", "16",
               "--max-epoch", "2", "--dropout", "0.0", "--seed", "3"]


@pytest.fixture
def dataset(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code, _, _ = run_cli(SYNTH + ["--out", str(path)], capsys)
    assert code == 0
    return path


def test_synth_writes_csv_and_sidecar(dataset, capsys):
    assert dataset.exists()
    sidecar = json.loads((dataset.parent / "data.csv.meta.json").read_text())
    assert sidecar["seed"] == 7 and sidecar["regime"] == "imbalanced"
    labels = np.array(
        [int(line.split(",")[0]) for line in dataset.read_text().splitlines()[1:]]
    )
    assert (labels == 0).mean() >= 0.5


def test_synth_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(SYNTH + ["--out", str(a)], capsys)
    run_cli(SYNTH + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--d", "3", "--k", "3", "--out", "x.csv"])  # no --t
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    (["fuse", "--m", "1", "--out", "e.csv"], "--manifest"),
], ids=["fuse without --manifest"])
def test_flag_without_default_is_required(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"required: {flag}" in capsys.readouterr().err


def test_infer_takes_no_norm_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--ensemble", "e.csv", "--data", "d.csv", "--norm", "n.csv",
              "--out", "p.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --norm n.csv" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _readme_commands():
    """The argument lists of the `lstmens ...` lines in README.md's fenced
    blocks, with `\\` continuations joined and `#` comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["lstmens"]:
                commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    assert build_parser().parse_args(argv).command == argv[0]


def _tiny_commands(tmp_path):
    """A tiny argv per subcommand; the first five run in order, each reading
    what the ones before it wrote."""
    data, run, ens, pred = (str(tmp_path / n) for n in ("data.csv", "run", "ens.csv", "pred.csv"))
    return {
        "synth": SYNTH + ["--out", data],
        "train": ["train", "--data", data, "--outdir", run] + TRAIN_SMALL,
        "fuse": ["fuse", "--manifest", os.path.join(run, "manifest.csv"), "--m", "1",
                 "--out", ens],
        "infer": ["infer", "--ensemble", ens, "--data", data, "--out", pred],
        "eval": ["eval", "--pred", pred, "--outdir", str(tmp_path / "eval")],
        "gradcheck": ["gradcheck", "--seeds", "1", "--seed", "4"],
        "coverage": ["coverage", "--t", "20000", "--epochs", "1", "--seed", "5"],
    }


@pytest.mark.parametrize("command", ["synth", "train", "fuse", "infer", "eval",
                                     "gradcheck", "coverage"])
def test_every_command_prints_the_header_first_and_once(command, tmp_path, capsys):
    commands = _tiny_commands(tmp_path)
    pipeline = list(commands)[:5]
    for before in pipeline[: pipeline.index(command)] if command in pipeline else []:
        assert main(commands[before]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(commands[command], capsys)
    assert code == 0
    seed = {"synth": "7", "train": "3", "gradcheck": "4", "coverage": "5"}.get(command, "-")
    lines = out.splitlines()
    assert re.fullmatch(rf"# seed={seed} cfg-hash=[0-9a-f]{{12}}", lines[0]), lines[0]
    assert sum(line.startswith("# seed=") for line in lines) == 1


def test_train_fuse_infer_eval_pipeline(dataset, tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        ["train", "--data", str(dataset), "--outdir", str(outdir)] + TRAIN_SMALL,
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "epoch,train_loss,val_f1"
    assert len(lines) == 3  # header + 2 epochs
    assert (outdir / "manifest.csv").exists()
    assert (outdir / "learner_e1_CE.lstm").exists()
    assert (outdir / "learner_e2_CE.lstm").exists()
    assert (outdir / "norm_stats.csv").exists()

    ens_path = tmp_path / "ens.csv"
    code, _, _ = run_cli(
        ["fuse", "--manifest", str(outdir / "manifest.csv"), "--m", "2",
         "--out", str(ens_path)],
        capsys,
    )
    assert code == 0 and ens_path.exists()

    preds = tmp_path / "preds.csv"
    code, _, _ = run_cli(
        ["infer", "--ensemble", str(ens_path), "--data", str(dataset), "--out", str(preds)],
        capsys,
    )
    assert code == 0
    header = preds.read_text().splitlines()[0]
    assert header == "t,pred,label,p_0,p_1,p_2"

    evaldir = tmp_path / "eval"
    code, out, _ = run_cli(
        ["eval", "--pred", str(preds), "--outdir", str(evaldir)],
        capsys,
    )
    assert code == 0
    assert any(l.startswith("mean_f1,") for l in out.splitlines())
    assert (evaldir / "class_f1.csv").exists()
    assert (evaldir / "confusion.csv").exists()


def test_train_rerun_byte_identical(dataset, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for outdir in (out_a, out_b):
        code, _, _ = run_cli(
            ["train", "--data", str(dataset), "--outdir", str(outdir)] + TRAIN_SMALL,
            capsys,
        )
        assert code == 0
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_fuse_mixed(dataset, tmp_path, capsys):
    manifests = []
    for loss in ("ce", "f1"):
        outdir = tmp_path / loss
        args = ["train", "--data", str(dataset), "--outdir", str(outdir),
                "--loss", loss] + TRAIN_SMALL
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        manifests.append(str(outdir / "manifest.csv"))
    ens_path = tmp_path / "mixed.csv"
    code, out, _ = run_cli(
        ["fuse", "--manifest", manifests[0], "--manifest", manifests[1], "--m", "2",
         "--out", str(ens_path)],
        capsys,
    )
    assert code == 0
    assert "(4 members: top-2 from each of 2 runs)" in out
    # the top 2 of the CE run, then of the F1 run, as the former --mixed wrote them
    expected = [m for path in manifests for m in select_top_m(load_learners(path), 2).members]
    assert ([(m.loss, m.epoch, m.source_path) for m in load_ensemble(ens_path).members]
            == [(m.loss, m.epoch, m.source_path) for m in expected])
    # both runs normalized the same training split, so infer takes either's stats
    preds = tmp_path / "preds.csv"
    code, out, _ = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(dataset),
                            "--out", str(preds)], capsys)
    assert code == 0
    assert f"# wrote {preds} (1500 predictions)" in out


def test_fuse_same_manifest_twice_is_an_error(dataset, tmp_path, capsys):
    outdir, _ = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    manifest = str(outdir / "manifest.csv")
    ens_path = tmp_path / "twice.csv"
    code, _, err = run_cli(["fuse", "--manifest", manifest, "--manifest", manifest,
                            "--m", "1", "--out", str(ens_path)], capsys)
    assert code == 1
    model = select_top_m(load_learners(manifest), 1).members[0].source_path
    assert err.strip() == f"error: {model}: model file listed twice in the ensemble"
    assert not ens_path.exists()


def test_fuse_m_zero_rejected(dataset, tmp_path, capsys):
    outdir = tmp_path / "run"
    run_cli(["train", "--data", str(dataset), "--outdir", str(outdir)] + TRAIN_SMALL,
            capsys)
    code, _, err = run_cli(
        ["fuse", "--manifest", str(outdir / "manifest.csv"), "--m", "0",
         "--out", str(tmp_path / "e.csv")],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_fuse_m_too_large_fails(dataset, tmp_path, capsys):
    outdir = tmp_path / "run"
    run_cli(["train", "--data", str(dataset), "--outdir", str(outdir)] + TRAIN_SMALL,
            capsys)
    code, _, err = run_cli(
        ["fuse", "--manifest", str(outdir / "manifest.csv"), "--m", "99",
         "--out", str(tmp_path / "e.csv")],
        capsys,
    )
    assert code == 1 and "error" in err


@pytest.mark.parametrize("m", ["5", "0"])
def test_fuse_m_outside_one_runs_snapshot_count_names_that_manifest(m, dataset, tmp_path, capsys):
    manifests = []
    for loss in ("ce", "f1"):
        outdir = tmp_path / loss
        args = ["train", "--data", str(dataset), "--outdir", str(outdir),
                "--loss", loss] + TRAIN_SMALL
        args[args.index("--max-epoch") + 1] = "3"
        assert run_cli(args, capsys)[0] == 0
        manifests.append(str(outdir / "manifest.csv"))
    ens_path = tmp_path / "e.csv"
    code, _, err = run_cli(["fuse", "--manifest", manifests[0], "--manifest", manifests[1],
                            "--m", m, "--out", str(ens_path)], capsys)
    assert code == 1
    assert err.strip() == f"error: --m {m} outside [1, 3] for --manifest {manifests[0]}"
    assert not ens_path.exists()


def test_eval_perfect_predictions(tmp_path, capsys):
    path = tmp_path / "preds.csv"
    lines = ["t,pred,label,p_0,p_1"]
    for t in range(10):
        k = t % 2
        lines.append(f"{t},{k},{k},{1.0 - k},{float(k)}")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        ["eval", "--pred", str(path), "--outdir", str(tmp_path / "e")],
        capsys,
    )
    assert code == 0
    mean_line = [l for l in out.splitlines() if l.startswith("mean_f1,")][0]
    assert float(mean_line.split(",")[1]) == 1.0


def test_gradcheck_passes(capsys):
    code, out, _ = run_cli(
        ["gradcheck", "--seeds", "2", "--seed", "0", "--tolerance", "1e-4"], capsys
    )
    assert code == 0
    assert "worst max_rel_error" in out


def test_gradcheck_nan_tolerance_fails(capsys):
    # no error is below a NaN tolerance, so every tensor fails
    code, out, _ = run_cli(["gradcheck", "--seeds", "1", "--tolerance", "nan"], capsys)
    assert code == 1
    rows = [line for line in out.splitlines()[2:] if not line.startswith("#")]
    assert rows and all(row.endswith(",0") for row in rows)


@pytest.mark.parametrize("command,flag,value", [
    ("gradcheck", "--seeds", "0"), ("gradcheck", "--seeds", "-3"), ("coverage", "--epochs", "0"),
])
def test_count_below_one_is_a_usage_error(command, flag, value, capsys):
    # --seeds 0 used to print a header and exit 0 having checked nothing, and
    # --epochs 0 to fail on an empty reduction
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--hidden", "0"), ("--layers", "0"), ("--b-high", "1200")])
def test_train_bad_option_writes_nothing(flag, value, dataset, tmp_path, capsys):
    # these used to fail only once norm_stats.csv was in --outdir; the
    # training split of the 1500-sample dataset has 1200 samples
    outdir = tmp_path / "run"
    argv = ["train", "--data", str(dataset), "--outdir", str(outdir)] + TRAIN_SMALL
    try:
        code = main(argv + [flag, value])
    except SystemExit as exc:
        code = exc.code
    assert code != 0
    assert not outdir.exists()
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.001"])
def test_train_lr_must_be_finite_and_positive(value, dataset, tmp_path, capsys):
    # nan and inf used to fail on non-finite activations after norm_stats.csv
    # was written; 0 trained parameters that never moved, and a negative rate
    # trained by gradient ascent
    outdir = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(dataset), "--outdir", str(outdir), "--lr", value]
             + TRAIN_SMALL)
    assert exc.value.code == 2
    assert not outdir.exists()
    assert f"argument --lr: must be finite and above 0, got {value}" in capsys.readouterr().err


def test_synth_nan_snr_writes_nothing(tmp_path, capsys):
    # it used to exit 0 with an all-nan data file and its .meta.json
    code, _, err = run_cli(SYNTH + ["--snr", "nan", "--out", str(tmp_path / "data.csv")], capsys)
    assert code == 1 and "snr must be above 0, got nan" in err
    assert list(tmp_path.iterdir()) == []


def test_synth_length_below_two_writes_nothing(tmp_path, capsys):
    code, _, err = run_cli(SYNTH + ["--t", "1", "--out", str(tmp_path / "data.csv")], capsys)
    assert code == 1 and err.strip() == "error: length must be >= 2"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    (["--b-low", "20", "--b-high", "10"], "bad mini-batch size range [20, 10]"),
    (["--l-low", "40", "--l-high", "20"], "bad frame length range [40, 20]"),
    (["--max-epoch", "0"], "max_epoch must be >= 1"),
    (["--dropout", "1.0"], "dropout_p must be in [0, 1)"),
    (["--split", "0.5,0.5,0.5"], "bad split fractions (0.5, 0.5, 0.5)"),
])
def test_train_bad_config_is_a_runtime_error_that_writes_nothing(flags, message, dataset,
                                                                 tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out, err = run_cli(["train", "--data", str(dataset), "--outdir", str(outdir)]
                             + TRAIN_SMALL + flags, capsys)
    assert code == 1 and err.strip() == f"error: {message}"
    assert not outdir.exists() and "epoch" not in out


def test_train_label_column_outside_the_rows(dataset, tmp_path, capsys):
    outdir = tmp_path / "run"
    code, _, err = run_cli(["train", "--data", str(dataset), "--outdir", str(outdir),
                            "--label-col", "4"] + TRAIN_SMALL, capsys)
    assert code == 1
    assert err.strip() == f"error: {dataset} line 1: label column 4 outside row width 4"
    assert not outdir.exists()


def test_train_on_a_header_without_data_rows(tmp_path, capsys):
    path, outdir = tmp_path / "data.csv", tmp_path / "run"
    path.write_text("label,ch0,ch1,ch2\n")
    code, _, err = run_cli(["train", "--data", str(path), "--outdir", str(outdir)]
                           + TRAIN_SMALL, capsys)
    assert code == 1 and err.strip() == f"error: {path} line 1: no data rows after the header"
    assert not outdir.exists()


def test_train_accepts_a_positive_rate(dataset, tmp_path, capsys):
    outdir = tmp_path / "run"
    code, _, _ = run_cli(["train", "--data", str(dataset), "--outdir", str(outdir), "--lr", "0.01"]
                         + TRAIN_SMALL, capsys)
    assert code == 0 and (outdir / "manifest.csv").exists()


def test_coverage_small(capsys):
    code, out, _ = run_cli(
        ["coverage", "--t", "20000", "--epochs", "20", "--seed", "1"], capsys
    )
    assert code == 0
    row = out.splitlines()[-1].split(",")
    mean_unused = float(row[2])
    assert 0.30 < mean_unused < 0.45


def test_missing_data_file_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["train", "--data", str(tmp_path / "nope.csv"), "--outdir",
         str(tmp_path / "o")] + TRAIN_SMALL,
        capsys,
    )
    assert code == 1 and "error" in err


def _train_and_fuse(dataset, tmp_path, capsys, epochs):
    outdir = tmp_path / "run"
    args = ["train", "--data", str(dataset), "--outdir", str(outdir)] + TRAIN_SMALL
    args[args.index("--max-epoch") + 1] = epochs
    assert run_cli(args, capsys)[0] == 0
    ens_path = tmp_path / "ens.csv"
    code, _, _ = run_cli(["fuse", "--manifest", str(outdir / "manifest.csv"), "--m", "1",
                          "--out", str(ens_path)], capsys)
    assert code == 0
    return outdir, ens_path


def test_truncated_model_file_fails_fuse_naming_it(dataset, tmp_path, capsys):
    outdir, _ = _train_and_fuse(dataset, tmp_path, capsys, epochs="3")
    model = outdir / "learner_e2_CE.lstm"
    model.write_bytes(model.read_bytes()[:-16])
    code, _, err = run_cli(["fuse", "--manifest", str(outdir / "manifest.csv"), "--m", "1",
                            "--out", str(tmp_path / "e.csv")], capsys)
    assert code == 1
    body = LstmNetwork.zeros(3, 6, 3, 2).flat.nbytes  # TRAIN_SMALL's shape on 3 channels
    assert err.strip() == (f"error: {model} parameters: expected {body} bytes, "
                           f"found {body - 16}")


@pytest.mark.parametrize("edit,message", [
    (lambda fields: fields[:6], "expected 7 header fields, got 6"),
    (lambda fields: [b"3.5"] + fields[1:], "malformed dimension header: '{line}'"),
    (lambda fields: [b"0"] + fields[1:], "invalid model dimensions D=0 H=6 K=3 layers=2"),
])
def test_bad_model_header_line_2_fails_fuse_naming_it(edit, message, dataset, tmp_path, capsys):
    outdir, _ = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    model = outdir / "learner_e1_CE.lstm"
    first, second, body = model.read_bytes().split(b"\n", 2)
    line = b" ".join(edit(second.split()))
    model.write_bytes(b"\n".join([first, line, body]))
    out = tmp_path / "e.csv"
    code, _, err = run_cli(["fuse", "--manifest", str(outdir / "manifest.csv"), "--m", "1",
                            "--out", str(out)], capsys)
    assert code == 1
    assert err.strip() == f"error: {model} line 2: " + message.format(line=line.decode())
    assert not out.exists()


def test_infer_norm_file_without_mean_column_is_an_error(dataset, tmp_path, capsys):
    outdir, ens_path = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    norm = outdir / "norm_stats.csv"
    norm.write_text("channel,avg,std\nc0,0.0,1.0\nc1,0.0,1.0\nc2,0.0,1.0\n")
    code, _, err = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(dataset),
                            "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 1
    assert err.strip() == f"error: {norm} line 1: missing column 'mean'"


def test_infer_channel_count_mismatch_names_both_files(dataset, tmp_path, capsys):
    outdir, ens_path = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    one = tmp_path / "one_channel.csv"
    one.write_text("label,a\n0,0.5\n1,0.25\n")
    preds = tmp_path / "p.csv"
    code, _, err = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(one),
                            "--out", str(preds)], capsys)
    assert code == 1
    assert err.strip() == (f"error: --data {one} has 1 channel(s), "
                           f"--ensemble {ens_path} expects 3")
    assert not preds.exists()


def test_infer_norm_channel_count_mismatch_names_norm_and_ensemble(dataset, tmp_path, capsys):
    outdir, ens_path = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    norm = outdir / "norm_stats.csv"
    norm.write_text("channel,mean,std\nc0,0.0,1.0\nc1,0.0,1.0\n")
    preds = tmp_path / "p.csv"
    code, _, err = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(dataset),
                            "--out", str(preds)], capsys)
    assert code == 1
    assert err.strip() == f"error: {norm} has 2 channel(s), --ensemble {ens_path} expects 3"
    assert not preds.exists()


def test_infer_run_without_norm_stats_names_the_missing_file(dataset, tmp_path, capsys):
    outdir, ens_path = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    norm = outdir / "norm_stats.csv"
    norm.unlink()
    preds = tmp_path / "p.csv"
    code, _, err = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(dataset),
                            "--out", str(preds)], capsys)
    assert code == 1
    assert err.strip() == f"error: [Errno 2] No such file or directory: '{norm}'"
    assert not preds.exists()


def _data_rows(dataset):
    """The data rows of a CSV file with a header row, as lists of cells."""
    return [line.split(",") for line in dataset.read_text().splitlines()[1:]]


def _write_rows(path, header, rows):
    path.write_text("".join(line + "\n" for line in [header] * bool(header)
                            + [",".join(row) for row in rows]))
    return path


@pytest.mark.parametrize("header,order", [
    ("label,ch2,ch1,ch0", [0, 3, 2, 1]),
    ("label,ax,ay,az", [0, 1, 2, 3]),
], ids=["permuted", "renamed"])
def test_infer_data_channel_names_must_match_norm_stats(header, order, dataset, tmp_path,
                                                        capsys):
    outdir, ens_path = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    moved = _write_rows(tmp_path / "moved.csv", header,
                        [[row[j] for j in order] for row in _data_rows(dataset)])
    preds = tmp_path / "p.csv"
    code, _, err = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(moved),
                            "--out", str(preds)], capsys)
    assert code == 1
    assert err.strip() == (f"error: --data {moved} has channels {header[len('label,'):]}, "
                           f"{outdir / 'norm_stats.csv'} has ch0,ch1,ch2")
    assert not preds.exists()


def test_infer_header_less_data_is_named_by_position(dataset, tmp_path, capsys):
    """A data file without a header row has the channels ch0, ch1, ...: it
    infers like the named file against a run trained under those names
    (synth's), and fails against a run trained under other names."""
    outdir, ens_path = _train_and_fuse(dataset, tmp_path, capsys, epochs="2")
    rows = _data_rows(dataset)
    bare = _write_rows(tmp_path / "bare.csv", None, rows)
    outputs = []
    for data_path in (dataset, bare):
        outputs.append(tmp_path / f"p_{data_path.stem}.csv")
        assert run_cli(["infer", "--ensemble", str(ens_path), "--data", str(data_path),
                        "--out", str(outputs[-1])], capsys)[0] == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()

    named = _write_rows(tmp_path / "named.csv", "label,ax,ay,az", rows)
    run = tmp_path / "run_named"
    assert run_cli(["train", "--data", str(named), "--outdir", str(run)] + TRAIN_SMALL,
                   capsys)[0] == 0
    assert run_cli(["fuse", "--manifest", str(run / "manifest.csv"), "--m", "1",
                    "--out", str(tmp_path / "ens_named.csv")], capsys)[0] == 0
    code, _, err = run_cli(["infer", "--ensemble", str(tmp_path / "ens_named.csv"),
                            "--data", str(bare), "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 1
    assert err.strip() == (f"error: --data {bare} has channels ch0,ch1,ch2, "
                           f"{run / 'norm_stats.csv'} has ax,ay,az")


@pytest.mark.parametrize("change", ["other data", "channel names", "mean", "std"])
def test_infer_ensemble_of_differently_normalized_runs_is_an_error(change, dataset, tmp_path,
                                                                   capsys):
    """Run b trains on other data, on the same values under other channel
    names, or on the same data with one bit of the last channel's mean or
    std flipped in its norm_stats.csv afterwards."""
    other = dataset
    if change == "channel names":
        other = _write_rows(tmp_path / "renamed.csv", "label,ax,ay,az", _data_rows(dataset))
    if change == "other data":
        other = tmp_path / "other.csv"
        synth = SYNTH + ["--out", str(other)]
        synth[synth.index("--seed") + 1] = "8"
        assert run_cli(synth, capsys)[0] == 0
    norms = []
    for name, path in (("a", dataset), ("b", other)):
        outdir = tmp_path / name
        assert run_cli(["train", "--data", str(path), "--outdir", str(outdir)] + TRAIN_SMALL,
                       capsys)[0] == 0
        norms.append(outdir / "norm_stats.csv")
    if change in ("mean", "std"):
        stats = load_norm_stats(norms[1])
        values = getattr(stats, change)
        values[-1] = np.nextafter(values[-1], np.inf)
        save_norm_stats(stats, norms[1])
    ens_path, preds = tmp_path / "ens.csv", tmp_path / "p.csv"
    assert run_cli(["fuse", "--manifest", str(tmp_path / "a" / "manifest.csv"),
                    "--manifest", str(tmp_path / "b" / "manifest.csv"), "--m", "1",
                    "--out", str(ens_path)], capsys)[0] == 0
    code, _, err = run_cli(["infer", "--ensemble", str(ens_path), "--data", str(dataset),
                            "--out", str(preds)], capsys)
    assert code == 1
    assert err.strip() == (f"error: {norms[1]} differs from {norms[0]}: "
                           f"the ensemble's runs were normalized differently")
    assert not preds.exists()


def test_eval_takes_k_from_the_p_columns(tmp_path, capsys):
    """A K=4 infer output without class 3 still scores over 4 classes."""
    data_path = tmp_path / "data.csv"
    synth = SYNTH + ["--out", str(data_path)]
    synth[synth.index("--k") + 1] = "4"
    assert run_cli(synth, capsys)[0] == 0
    train = ["train", "--data", str(data_path), "--outdir", str(tmp_path / "run")] + TRAIN_SMALL
    train[train.index("--k") + 1] = "4"
    assert run_cli(train, capsys)[0] == 0
    ens_path, preds = tmp_path / "ens.csv", tmp_path / "preds.csv"
    assert run_cli(["fuse", "--manifest", str(tmp_path / "run" / "manifest.csv"), "--m", "1",
                    "--out", str(ens_path)], capsys)[0] == 0
    assert run_cli(["infer", "--ensemble", str(ens_path), "--data", str(data_path),
                    "--out", str(preds)], capsys)[0] == 0
    header, *rows = preds.read_text().splitlines()
    assert header.endswith(",p_0,p_1,p_2,p_3")
    rows = [r for r in rows if "3" not in r.split(",")[1:3]]  # drop class 3
    preds.write_text("\n".join([header] + rows) + "\n")
    code, out, _ = run_cli(["eval", "--pred", str(preds), "--outdir", str(tmp_path / "e")],
                           capsys)
    assert code == 0
    pred, label = np.array([[int(c) for c in r.split(",")[1:3]] for r in rows]).T
    assert f"mean_f1,{mean_f1(confusion(pred, label, 4))!r}" in out.splitlines()
    assert len((tmp_path / "e" / "class_f1.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("header,row,found", [
    ("t,pred,label", "0,1,1", "[]"),
    ("t,pred,label,p_0,p_2", "0,1,1,0.5,0.5", "['p_0', 'p_2']"),
], ids=["no p_ columns", "p_1 missing"])
def test_eval_without_p_columns_names_the_header_line(tmp_path, capsys, header, row, found):
    path = tmp_path / "preds.csv"
    path.write_text(f"# scores\n{header}\n{row}\n")
    code, _, err = run_cli(["eval", "--pred", str(path), "--outdir", str(tmp_path / "e")],
                           capsys)
    assert code == 1
    assert err.strip() == (f"error: {path} line 2: need the columns p_0..p_{{K-1}} that "
                           f"infer writes, one per class; found {found}")


def test_eval_file_without_pred_column_is_an_error(tmp_path, capsys):
    path = tmp_path / "preds.csv"
    path.write_text("t,guess,label\n0,1,1\n1,0,0\n")
    code, _, err = run_cli(["eval", "--pred", str(path), "--outdir", str(tmp_path / "e")],
                           capsys)
    assert code == 1
    assert err.strip() == f"error: {path} line 1: missing column 'pred'"


def test_eval_non_integer_cell_names_its_line(tmp_path, capsys):
    path = tmp_path / "preds.csv"
    path.write_text("t,pred,label\n0,1,1\n1,x,0\n")
    code, _, err = run_cli(["eval", "--pred", str(path), "--outdir", str(tmp_path / "e")],
                           capsys)
    assert code == 1
    assert err.strip() == f"error: {path} line 3: pred 'x' is not a valid int"


@pytest.mark.parametrize("rows,lineno", [
    ("0,0,0,1.0,0.0\n1,2,0,0.0,1.0\n", 3),  # pred 2 was once counted as true class 1
    ("0,-1,0,1.0,0.0\n", 2),
], ids=["pred above K", "negative pred"])
def test_eval_class_outside_range_names_its_line(tmp_path, capsys, rows, lineno):
    path = tmp_path / "preds.csv"
    path.write_text("t,pred,label,p_0,p_1\n" + rows)
    code, _, err = run_cli(["eval", "--pred", str(path), "--outdir", str(tmp_path / "e")],
                           capsys)
    assert code == 1
    assert err.startswith(f"error: {path} line {lineno}: pred ")
