import json

import pytest

from risbc.bounds import BoundReport
from risbc.cli import main


def csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def only(paths):
    (path,) = paths
    return path


def test_sweep_defaults_run(tmp_path):
    assert main(["sweep", "--out", str(tmp_path), "--reps", "2"]) == 0
    csv_path = only(tmp_path.glob("sweep_ptx_dbm_*.csv"))
    manifest_path = only(tmp_path.glob("*.manifest.json"))
    lines = csv_lines(csv_path)
    assert len(lines) == 1 + 9 * 4  # header + values x methods

    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["config_path"] == "<defaults>"
    assert manifest["seed"] == 0
    assert manifest["hash8"] in csv_path.name
    assert csv_path.name in manifest["outputs"]
    assert manifest["config_sha256"].startswith(manifest["hash8"])


def test_sweep_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["sweep", "--out", str(out), "--reps", "2"]) == 0
    pa = only(a.glob("sweep_*.csv"))
    pb = only(b.glob("sweep_*.csv"))
    assert pa.name == pb.name
    assert pa.read_bytes() == pb.read_bytes()


def test_seed_override_changes_run_identity(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--out", str(a), "--reps", "1"]) == 0
    assert main(["sweep", "--out", str(b), "--reps", "1", "--seed", "7"]) == 0
    assert only(a.glob("sweep_*.csv")).name != only(b.glob("sweep_*.csv")).name


def test_sweep_reads_config_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[scenario]\nn_bs = 4\nn_strong = 2\nn_ris = 8\n"
        "[sweep]\nvariable = n_ris\nvalues = 8, 16\nreps = 2\n"
        "methods = ZF:align_weak:exact\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    csv_path = only((tmp_path / "o").glob("sweep_n_ris_*.csv"))
    assert len(csv_lines(csv_path)) == 1 + 2
    manifest = json.loads(
        only((tmp_path / "o").glob("*.manifest.json")).read_text(encoding="utf-8")
    )
    assert manifest["config_path"] == str(cfg)


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[scenario]\nn_bs = 2\nn_strong = 3\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "n_bs" in capsys.readouterr().err


def test_sweep_all_flagged_exits_2(tmp_path, capsys):
    # xi -> 0 puts b inside the strong users' row space: at xi = 1e-9 C_s is
    # numerically singular on every draw, so the run aborts
    cfg = tmp_path / "xi0.ini"
    cfg.write_text("[sweep]\nvariable = xi\nvalues = 1e-9\nreps = 2\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: 2/2 draws flagged as ill-conditioned at xi=1e-09" in err
    assert not list(tmp_path.glob("*.csv"))


def test_bounds_all_satisfied(tmp_path):
    assert main(["bounds", "--out", str(tmp_path), "--grid-points", "50"]) == 0
    lines = csv_lines(only(tmp_path.glob("bounds_*.csv")))
    assert len(lines) == 1 + 2 * 50 + 2
    assert all(line.endswith(",true") for line in lines[1:])


def test_bounds_violation_exits_1(tmp_path, monkeypatch):
    import risbc.cli as cli

    monkeypatch.setattr(
        cli,
        "standard_bound_reports",
        lambda seed, grid_points: [BoundReport("demo", 1.0, 0.0, 1.0, False, -1.0)],
    )
    assert main(["bounds", "--out", str(tmp_path)]) == 1
    lines = csv_lines(only(tmp_path.glob("bounds_*.csv")))
    assert lines[1].endswith(",false")


def test_figure3_emits_split_columns(tmp_path):
    assert main(["figure", "3", "--out", str(tmp_path), "--reps", "2"]) == 0
    lines = csv_lines(only(tmp_path.glob("figure3_*.csv")))
    header = lines[0].split(",")
    assert "se_d_mean" in header and "se_r_mean" in header
    assert len(lines) == 1 + 11 * 4


def test_figure5_emits_bound_sidecar(tmp_path):
    assert main(["figure", "5", "--out", str(tmp_path), "--reps", "8"]) == 0
    sweep_csv = only(tmp_path.glob("figure5_*[0-9a-f].csv"))
    bound_csv = only(tmp_path.glob("figure5_*_bounds.csv"))
    assert len(csv_lines(sweep_csv)) == 1 + 5 * 4
    assert len(csv_lines(bound_csv)) == 1 + 5 * 4
    manifest = json.loads(
        only(tmp_path.glob("*.manifest.json")).read_text(encoding="utf-8")
    )
    assert sweep_csv.name in manifest["outputs"]
    assert bound_csv.name in manifest["outputs"]


def test_figure_rejects_unknown_number():
    with pytest.raises(SystemExit):
        main(["figure", "9"])
