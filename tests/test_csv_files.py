"""The CSV contract every reader shares (data.read_csv): blank lines and '#'
lines are skipped, every row has the first row's width, and every error
names the path and the true file line."""

import re
from pathlib import Path

import numpy as np
import pytest

from lstmens import cli
from lstmens.bagging import BaseLearner, load_learners, save_learners
from lstmens.data import (
    CsvSchema,
    NormStats,
    load_csv,
    load_norm_stats,
    save_csv,
    save_norm_stats,
    synth_har,
    write_csv,
)
from lstmens.ensembles import load_ensemble, save_ensemble, select_top_m
from lstmens.network import init_network
from lstmens.rng import Rng
from lstmens.training import LossKind


def _dataset(tmp_path):
    path = tmp_path / "data.csv"
    save_csv(synth_har(2, 2, 20, seed=1), path)
    return path, lambda: load_csv(path, CsvSchema(num_classes=2))


def _norm_stats(tmp_path):
    path = tmp_path / "norm_stats.csv"
    save_norm_stats(NormStats(np.zeros(3), np.ones(3), ["ax", "ay", "az"]), path)
    return path, lambda: load_norm_stats(path)


def _predictions(tmp_path):
    path = tmp_path / "pred.csv"
    write_csv(path, ["t", "pred", "label", "p_0", "p_1"],
              [[t, t % 2, t % 2, 0.5, 0.5] for t in range(4)])
    args = cli.build_parser().parse_args(
        ["eval", "--pred", str(path), "--outdir", str(tmp_path / "eval")])
    return path, lambda: args.func(args)


def _learners(tmp_path):
    rng = Rng(0)
    learners = [BaseLearner(init_network(2, 3, 2, 1, rng), epoch, LossKind.CE, 0.5)
                for epoch in (1, 2, 3)]
    path = Path(save_learners(learners, tmp_path / "run"))
    return path, lambda: load_learners(path)


def _ensemble(tmp_path):
    manifest, _ = _learners(tmp_path)
    path = tmp_path / "ensemble.csv"
    save_ensemble(select_top_m(load_learners(manifest), 2), path)
    return path, lambda: load_ensemble(path)


READERS = {"dataset": _dataset, "norm stats": _norm_stats, "eval predictions": _predictions,
           "learner manifest": _learners, "ensemble manifest": _ensemble}

# what each case does to the last row's cells, and the message it must get
FAULTS = {
    "bad cell": (lambda cells: cells[:1] + ["x"] + cells[2:], "'x'"),
    "extra cell": (lambda cells: cells + ["0"], r"\d+ cells, line \d+ has \d+"),
    "short row": (lambda cells: cells[:-1], r"\d+ cells, line \d+ has \d+"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_names_true_file_line(tmp_path, reader, fault):
    path, read = READERS[reader](tmp_path)
    read()  # the file as written loads
    edit, message = FAULTS[fault]
    lines = path.read_text(encoding="utf-8").splitlines()
    bad_row = ",".join(edit(lines[-1].split(",")))
    path.write_text("\n".join(lines[:-1] + ["", "# note", bad_row]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line {len(lines) + 2}: "
                                         rf".*{message}"):
        read()


def test_write_csv_row_endings(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[1, "x"]], comment="provenance=test")
    assert path.read_bytes() == b"# provenance=test\na,b\r\n1,x\r\n"


def test_column_named_twice_is_rejected(tmp_path):
    path = tmp_path / "norm_stats.csv"
    path.write_text("channel,mean,std,mean\nax,0.1,1.0,5.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 1: duplicate column 'mean'$"):
        load_norm_stats(path)
