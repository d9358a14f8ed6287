"""Command-line interface tests: orchestration, manifests, determinism."""

import os

import numpy as np
import pytest

from chronomesh import cli
from chronomesh.errors import NumericsError


def read_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_steady_reference_run(tmp_path):
    out = str(tmp_path)
    code = cli.run_command(["steady", "--nodes", "400", "--sigma2", "0.01",
                            "--m", "3", "--phases", "1", "--seed", "7",
                            "--out", out])
    assert code == 0
    header, rows = read_csv(os.path.join(out, "phases.csv"))
    assert header == ["phase", "center", "crossing", "abs_error", "gated", "no_crossing"]
    assert len(rows) == 1
    assert float(rows[0][3]) <= 0.02
    assert os.path.exists(os.path.join(out, "manifest.cfg"))


def test_repeat_run_is_byte_identical(tmp_path):
    args = ["steady", "--nodes", "200", "--phases", "3", "--seed", "11"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.run_command(args + ["--out", out_a]) == 0
    assert cli.run_command(args + ["--out", out_b]) == 0
    assert read_bytes(os.path.join(out_a, "phases.csv")) == \
        read_bytes(os.path.join(out_b, "phases.csv"))


def test_manifest_rerun_reproduces_outputs(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.run_command(["evenodd", "--nodes", "100", "--phases", "2",
                            "--seed", "4", "--out", out_a]) == 0
    manifest = os.path.join(out_a, "manifest.cfg")
    assert cli.run_command(["--config", manifest, "--out", out_b]) == 0
    assert read_bytes(os.path.join(out_a, "phases.csv")) == \
        read_bytes(os.path.join(out_b, "phases.csv"))


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ncommand = steady\nseed = 2\n\n"
                   "[scenario]\nnodes = 100\nphases = 1\n", encoding="ascii")
    out = str(tmp_path / "out")
    assert cli.run_command(["--config", str(cfg), "--nodes", "50",
                            "--out", out]) == 0
    with open(os.path.join(out, "manifest.cfg"), encoding="ascii") as fh:
        body = fh.read()
    assert "nodes = 50" in body
    assert "command = steady" in body
    assert "seed = 2" in body


def test_waveform_trace(tmp_path):
    out = str(tmp_path)
    assert cli.run_command(["waveform", "--nodes", "400", "--sigma2", "0.003",
                            "--seed", "2", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "waveform.csv"))
    assert header == ["t", "amplitude"]
    assert len(rows) == 2001
    t = np.array([float(r[0]) for r in rows])
    amp = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(t) > 0)
    assert amp.max() > 0.0 > amp.min()
    # edges of the search window see only pulse tails
    assert abs(amp[0]) < 0.05 * amp.max()
    assert abs(amp[-1]) < 0.05 * amp.max()
    _, cross_rows = read_csv(os.path.join(out, "crossing.csv"))
    center, location = float(cross_rows[0][0]), float(cross_rows[0][1])
    assert abs(location - center) < 0.02


def test_delay_rows_cover_probes(tmp_path):
    out = str(tmp_path)
    assert cli.run_command(["delay", "--nodes", "2000", "--phases", "2",
                            "--seed", "5", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "phases.csv"))
    assert header[:4] == ["phase", "center", "receiver", "role"]
    roles = {r[3] for r in rows}
    assert roles == {"interior", "boundary"}
    assert len(rows) == 4                     # two probes, two phases


def test_pco_event_log(tmp_path):
    out = str(tmp_path)
    assert cli.run_command(["pco", "--nodes", "5", "--seed", "3",
                            "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "events.csv"))
    assert header == ["event", "time", "group_size", "members"]
    times = [float(r[1]) for r in rows]
    assert times == sorted(times)
    assert all(r[3].replace(";", "").isdigit() for r in rows)
    assert int(rows[-1][2]) == 5              # everyone merged by the end


def test_pco_census(tmp_path):
    out = str(tmp_path)
    assert cli.run_command(["pco", "--trials", "25", "--seed", "9",
                            "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "census.csv"))
    assert header == ["seed", "cycles", "synchronized"]
    assert [int(r[0]) for r in rows] == list(range(25))
    assert all(r[2] in ("0", "1") for r in rows)


def test_census_thread_cap_does_not_change_bytes(tmp_path, monkeypatch):
    outs = []
    for cap in ("1", "4"):
        out = str(tmp_path / cap)
        monkeypatch.setenv("CHRONOMESH_THREADS", cap)
        assert cli.run_command(["pco", "--trials", "30", "--seed", "5",
                                "--out", out]) == 0
        outs.append(read_bytes(os.path.join(out, "census.csv")))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cap", ["abc", "0"])
def test_malformed_thread_cap_exits_two(tmp_path, monkeypatch, capsys, cap):
    monkeypatch.setenv("CHRONOMESH_THREADS", cap)
    assert cli.run_command(["pco", "--trials", "4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chronomesh: error:") and "CHRONOMESH_THREADS" in err


def test_multihop_outputs(tmp_path):
    out = str(tmp_path)
    assert cli.run_command(["multihop", "--hops", "6", "--m", "3",
                            "--sigma2", "1", "--trials", "10000",
                            "--seed", "1", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "multihop.csv"))
    assert header == ["hop", "alpha_hat_mean", "empirical_variance",
                      "predicted_variance"]
    for row in rows:
        hop = int(row[0])
        emp, pred = float(row[2]), float(row[3])
        assert pred == pytest.approx(0.5 + (hop - 2), rel=1e-12)
        assert emp == pytest.approx(pred, rel=0.05)
    with open(os.path.join(out, "contrast.txt"), encoding="ascii") as fh:
        note = fh.read()
    assert "crossing" in note and "hop" in note
    assert "variance_slope_per_hop" in note


def test_channel_sample(tmp_path):
    out = str(tmp_path)
    assert cli.run_command(["channel-sample", "--trials", "400", "--seed", "8",
                            "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "samples.csv"))
    assert header == ["sample", "delay", "gain"]
    assert len(rows) == 400
    delays = np.array([float(r[1]) for r in rows])
    gains = np.array([float(r[2]) for r in rows])
    # default model: speed 1, range 0.25, outage ramp out to 0.275 at gain 0
    assert np.all(delays >= 0.0) and np.all(delays <= 0.275)
    assert gains == pytest.approx(np.maximum(0.0, 1.0 - delays / 0.25))
    assert np.any(gains == 0.0)


def test_usage_errors_exit_two(tmp_path):
    assert cli.run_command(["--no-such-flag"]) == 2
    assert cli.run_command([]) == 2                      # no command anywhere
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scenario]\nwidgets = 3\n", encoding="ascii")
    assert cli.run_command(["steady", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("[nonsense]\nx = 1\n", encoding="ascii")
    assert cli.run_command(["steady", "--config", str(cfg2)]) == 2
    assert cli.run_command(["steady", "--sigma2", "-1",
                            "--out", str(tmp_path)]) == 2
    missing = str(tmp_path / "missing.cfg")
    assert cli.run_command(["steady", "--config", missing]) == 2


def test_numeric_failures_exit_three(tmp_path, monkeypatch):
    def explode(_manifest):
        raise NumericsError("quadrature failed", diagnostics={"t": 0.0})

    monkeypatch.setitem(cli._RUNNERS, "steady", explode)
    assert cli.run_command(["steady", "--out", str(tmp_path)]) == 3


def test_config_value_errors_exit_two(tmp_path, capsys):
    cfg = tmp_path / "types.cfg"
    cfg.write_text("[run]\ncommand = steady\n\n[scenario]\nnodes = many\n",
                   encoding="ascii")
    assert cli.run_command(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "scenario.nodes" in err
