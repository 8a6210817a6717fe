import json
from dataclasses import replace
from pathlib import Path

import pytest

from risbc.bounds import BoundReport
from risbc.channel import ScenarioConfig
from risbc.cli import main
from risbc.config import parse_config, serialize_config


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


def test_seed_and_reps_overrides_build_the_plan_once(tmp_path, monkeypatch):
    # the overrides used to rebuild the parsed plan: mit_aware's scenario and
    # its 3 points were validated twice, 8 times in all
    import risbc.cli as cli

    config = Path(__file__).resolve().parent.parent / "perfbench" / "mit_aware.ini"
    validated, plans = [], []
    validate = ScenarioConfig.__post_init__
    monkeypatch.setattr(
        ScenarioConfig, "__post_init__", lambda cfg: validated.append(validate(cfg))
    )
    monkeypatch.setattr(cli, "_run", lambda args, name, path, plan: plans.append(plan) or 0)
    argv = ["sweep", "--config", str(config), "--seed", "3", "--reps", "5"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(validated) == 4
    (plan,) = plans
    parsed = parse_config(config.read_text(encoding="utf-8"))
    rebuilt = replace(parsed, config=parsed.config.with_updates(seed=3), reps=5)
    assert plan == rebuilt and serialize_config(plan) == serialize_config(rebuilt)


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


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    return line


@pytest.mark.parametrize(
    "line", ["noise_dbm = -4000", "pl_los = 30, 2000", "ris_pos = 1e300, 0, 10"]
)
def test_gains_outside_the_float_range_exit_2_with_one_line(tmp_path, capsys, line):
    # a noise power or L_G that underflows to 0 used to end in a traceback
    # and exit 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[scenario]\n{line}\n[sweep]\nreps = 4\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert one_error_line(capsys).endswith("(line 2)")


def test_missing_config_exits_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    assert main(["sweep", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert "No such file" in one_error_line(capsys)


def test_directory_as_config_exits_2_with_one_line(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert str(tmp_path) in one_error_line(capsys)


def test_non_utf8_config_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes("[scenario]\n; r\xe9glage\nn_bs = 8\n".encode("latin-1"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "can't decode byte 0xe9" in one_error_line(capsys)


def test_config_with_a_bom_runs(tmp_path):
    # a BOM used to be text before the first section header
    cfg = tmp_path / "bom.ini"
    cfg.write_bytes(b"\xef\xbb\xbf[sweep]\nvalues = 10\nreps = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(csv_lines(only((tmp_path / "o").glob("sweep_ptx_dbm_*.csv")))) == 1 + 4


@pytest.mark.parametrize(
    "argv", [["bounds"], ["figure", "2", "--reps", "2"]], ids=["bounds", "figure2"]
)
@pytest.mark.parametrize("suffix", [".csv", ".manifest.json"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, argv, suffix):
    # a directory where an output goes used to end in IsADirectoryError's
    # traceback and exit 1, the code of a violated check
    if argv[0] == "bounds":
        argv = [*argv, "--grid-points", "5"]
    assert main([*argv, "--out", str(tmp_path / "first")]) == 0
    (manifest,) = (tmp_path / "first").glob("*.manifest.json")
    name = manifest.name.replace(".manifest.json", suffix)
    (tmp_path / "out" / name).mkdir(parents=True)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    line = one_error_line(capsys)
    assert line == f"error: cannot write {tmp_path / 'out' / name}: Is a directory"


def test_sweep_and_figure_share_one_run_path(tmp_path):
    # the default sweep is figure 2's plan: the same identity, bytes and manifest
    common = ["--seed", "3", "--reps", "5"]
    assert main(["sweep", "--out", str(tmp_path / "s"), *common]) == 0
    assert main(["figure", "2", "--out", str(tmp_path / "f"), *common]) == 0
    manifests = []
    for out in ("s", "f"):
        manifest = json.loads(
            only((tmp_path / out).glob("*.manifest.json")).read_text(encoding="utf-8")
        )
        assert list(manifest) == [
            "config_path", "output_dir", "sweep_name", "config_sha256",
            "timestamp", "seed", "outputs", "hash8",
        ]
        assert manifest["hash8"] == manifest["config_sha256"][:8]
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [manifest["sweep_name"] + ".csv"]
        manifests.append(manifest)
    sweep, figure = manifests
    assert sweep["config_sha256"] == figure["config_sha256"]
    assert (sweep["config_path"], figure["config_path"]) == ("<defaults>", "<preset:figure2>")
    csvs = [only((tmp_path / out).glob("*.csv")) for out in ("s", "f")]
    assert csvs[0].name == f"sweep_ptx_dbm_{sweep['hash8']}.csv"
    assert csvs[1].name == f"figure2_{figure['hash8']}.csv"
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


@pytest.mark.parametrize("argv", [["sweep"], ["bounds"], ["figure", "2"]])
def test_file_as_out_dir_exits_2_with_one_line(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main([*argv, "--out", str(taken)]) == 2
    assert "File exists" in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [taken]


def test_sweep_all_flagged_exits_2(tmp_path, capsys):
    # xi -> 0 puts b inside the strong users' row space: at xi = 1e-9 C_s is
    # numerically singular on every draw, so the run aborts
    cfg = tmp_path / "xi0.ini"
    cfg.write_text("[sweep]\nvariable = xi\nvalues = 1e-9\nreps = 2\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: 2/2 draws flagged as ill-conditioned at xi=1e-09" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "text, where",
    [
        ("[sweep]\nvalues = 3080\nreps = 4\n", "ptx_dbm=3080"),
        (
            "[scenario]\nptx_dbm = 1e308\n"
            "[sweep]\nvariable = n_bs\nvalues = 12\nreps = 4\n",
            "n_bs=12",
        ),
    ],
    ids=["ptx_dbm", "n_bs"],
)
def test_sweep_non_finite_rates_exit_2(tmp_path, capsys, text, where):
    # a power this large overflows the rates: these runs used to write rows
    # of inf and nan and exit 0
    cfg = tmp_path / "huge.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    line = one_error_line(capsys)
    assert f"ZF:align_weak:exact gives non-finite rates at {where}" in line
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_negative_mean_exits_2(tmp_path, capsys):
    # at -400 dBm the high-SNR forms give means of about -520 bpcu: this run
    # used to write them and exit 0
    cfg = tmp_path / "faint.ini"
    cfg.write_text(
        "[scenario]\nptx_dbm = -400\n[sweep]\nvariable = n_bs\nvalues = 12\nreps = 2\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    line = one_error_line(capsys)
    assert "ZF:align_weak:asymptotic gives a negative mean rate at n_bs=12" in line
    assert not list(tmp_path.glob("*.csv"))


def test_bounds_all_satisfied(tmp_path):
    assert main(["bounds", "--out", str(tmp_path), "--grid-points", "50"]) == 0
    lines = csv_lines(only(tmp_path.glob("bounds_*.csv")))
    assert len(lines) == 1 + 2 * 50 + 2
    assert all(line.endswith(",true") for line in lines[1:])


def test_bounds_violation_exits_1(tmp_path, monkeypatch, capsys):
    import risbc.cli as cli

    # three rows, the middle one violated
    table = BoundReport(
        "demo", [1.0, 2.0, 3.0], [2.0, 0.0, 3.0], 1.0, [True, False, True],
        [1.0, -1.0, 2.0],
    )
    monkeypatch.setattr(cli, "standard_bound_reports", lambda seed, grid_points: table)
    assert main(["bounds", "--out", str(tmp_path)]) == 1
    assert "checked 3 bounds, 1 violated" in capsys.readouterr().out
    lines = csv_lines(only(tmp_path.glob("bounds_*.csv")))
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true", "false", "true"]


def test_figure5_violation_exits_1_after_writing_its_report(tmp_path, capsys):
    # one replication is too few for the ergodic closed forms at seed 0
    assert main(["figure", "5", "--out", str(tmp_path), "--reps", "1", "--seed", "0"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.endswith("closed-form checks violated")
    printed = int(err.split()[0])
    assert printed == 2
    lines = csv_lines(only(tmp_path.glob("figure5_*_bounds.csv")))
    assert len(lines) == 1 + 5 * 4
    assert sum(line.endswith(",false") for line in lines[1:]) == printed


@pytest.mark.parametrize("number, seed", [(3, 18), (5, 7)])
def test_figure_with_a_negative_mean_exits_2(tmp_path, capsys, number, seed):
    # one replication at these seeds gives a high-SNR form a negative mean
    argv = ["figure", str(number), "--out", str(tmp_path), "--reps", "1"]
    assert main(argv + ["--seed", str(seed)]) == 2
    line = one_error_line(capsys)
    assert "asymptotic gives a negative mean rate at " in line
    assert not list(tmp_path.glob("*"))


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


@pytest.mark.parametrize(
    "argv, low",
    [
        (["sweep", "--reps", "0"], 1),
        (["figure", "2", "--reps", "-3"], 1),
        (["bounds", "--grid-points", "0"], 1),
        (["bounds", "--grid-points", "-5"], 1),
        (["sweep", "--seed", "-1"], 0),
        (["figure", "3", "--seed", "-1"], 0),
        (["bounds", "--seed", "-1"], 0),
    ],
)
def test_out_of_range_flag_exits_2_with_one_error_line(tmp_path, capsys, argv, low):
    # these used to end in a traceback, or (--grid-points 0) to check no
    # grid point and exit 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag, value = argv[-2:]
    assert [line for line in err.splitlines() if "error" in line] == [
        f"risbc {argv[0]}: error: argument {flag}: must be at least {low}, got {value}"
    ]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["sweep"], ["figure", "2"]])
def test_reps_beyond_one_index_word_exits_2_with_one_error_line(tmp_path, capsys, argv):
    # a replication's index seeds its streams as one 32-bit word; this used
    # to end in SweepPlan's traceback and exit 1, the code of a violated check
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--reps", "5000000000", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"risbc {argv[0]}: error: argument --reps: must be at most 4294967296, "
        "got 5000000000"
    ]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_figure_rejects_unknown_number():
    with pytest.raises(SystemExit):
        main(["figure", "9"])
