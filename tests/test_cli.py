import json

import numpy as np
import pytest

from frem import datagen
from frem.cli import main
from frem.funcspace import Grid


def _write_dataset_csv(path, n=70, seed=0, noise=0.05, n_points=40):
    grid = Grid.regular(0.0, 1.0, n_points)
    basis = datagen.fourier_basis(grid.points, 3)
    rng = np.random.default_rng(seed)
    coefs = rng.uniform(-1, 1, size=(n, 3))
    values = coefs @ basis
    y = 1.0 + coefs[:, 0] - 0.5 * coefs[:, 1] + rng.standard_normal(n) * noise
    with open(path, "w") as fh:
        fh.write(",".join(str(t) for t in grid.points) + ",y\n")
        for row, yi in zip(values, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(yi)!r}\n")
    return str(path), values, y


def test_cli_simulate_and_determinism(tmp_path, capsys):
    cfg = dict(setting="circle", n=55, replicates=1, test_size=25, master_seed=3,
               methods=["fnw", "flr"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
    c1 = (tmp_path / "o1" / "simulate_circle_n55.csv").read_bytes()
    c2 = (tmp_path / "o2" / "simulate_circle_n55.csv").read_bytes()
    assert c1 == c2
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1])
    assert "summary" in payload and "fnw" in payload["summary"]


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"setting": "circle", "n": 55, "replicates": 1,
                                    "test_size": 10, "master_seed": 1, "bogus": 7}))
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidSettings"
    assert "bogus" in err["message"]


def test_cli_fit_predict_roundtrip(tmp_path, capsys):
    data_path, values, y = _write_dataset_csv(tmp_path / "train.csv")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", data_path, "--out", str(model_path)]) == 0
    fit_info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert fit_info["n"] == 70
    # queries: same grid columns, no response column
    q_path = tmp_path / "queries.csv"
    grid = Grid.regular(0.0, 1.0, 40)
    with open(q_path, "w") as fh:
        fh.write(",".join(str(t) for t in grid.points) + "\n")
        for row in values[:5]:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    out_path = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(q_path),
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "prediction"
    preds = [float(v) for v in lines[1:]]
    assert len(preds) == 5
    assert np.all(np.isfinite(preds))


def _write_queries(path, points, rows):
    with open(path, "w") as fh:
        fh.write(",".join(repr(float(t)) for t in points) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.mark.parametrize("points", [np.linspace(0.0, 2.0, 40), np.linspace(0.0, 1.0, 25)],
                         ids=["same-count-other-grid", "other-count"])
def test_cli_predict_recovers_off_grid_queries(tmp_path, capsys, points):
    from frem.estimator import FremModel, predict
    from frem.recovery import DiscreteObservations

    data_path, _, _ = _write_dataset_csv(tmp_path / "train.csv")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", data_path, "--out", str(model_path)]) == 0
    capsys.readouterr()
    rows = np.sin(np.outer([1.0, 2.0, 3.0], points))
    q_path = tmp_path / "queries.csv"
    _write_queries(q_path, points, rows)
    assert main(["predict", "--model", str(model_path), "--data", str(q_path)]) == 0
    preds = [float(v) for v in capsys.readouterr().out.strip().splitlines()[1:]]
    # a query off the model grid is a discrete record: recovered, then fitted
    model = FremModel.load(model_path)
    assert preds == [predict(model, DiscreteObservations(points, row)) for row in rows]


def test_cli_dim(tmp_path, capsys):
    data_path, _, _ = _write_dataset_csv(tmp_path / "train.csv", n=80)
    assert main(["dim", "--data", data_path]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rounded"] >= 1
    assert len(info["per_k"]) == 11


def test_cli_real_holdout(tmp_path, capsys):
    data_path, _, _ = _write_dataset_csv(tmp_path / "meatlike.csv", n=90)
    assert main(["real", "--data", data_path, "--repeats", "2",
                 "--methods", "fnw,flr", "--name", "synth",
                 "--out", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(payload["summary"]) == {"fnw", "flr"}
    csv_text = (tmp_path / "out" / "real_synth.csv").read_text()
    assert csv_text.startswith("setting,method,n,replicate,")


def test_cli_rate_study_recovery(tmp_path, capsys):
    cfg_path = tmp_path / "rate.json"
    cfg_path.write_text(json.dumps({"mode": "recovery", "m_list": [50, 100, 200],
                                    "replicates": 5, "master_seed": 2}))
    assert main(["rate-study", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["slopes"]["recovery"] < 0


def test_cli_missing_file_error(tmp_path, capsys):
    code = main(["dim", "--data", str(tmp_path / "absent.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "message" in err
