"""Command-line interface tests: orchestration, manifests, determinism."""

import hashlib
import os

import numpy as np
import pytest

from chronomesh import cli
from chronomesh.errors import NumericsError
from chronomesh.geometry import Region


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


RERUN_CASES = {
    "waveform": ["waveform", "--nodes", "200", "--seed", "2"],
    "steady": ["steady", "--nodes", "100", "--phases", "2", "--seed", "3"],
    "evenodd": ["evenodd", "--nodes", "100", "--phases", "2", "--seed", "4"],
    "delay": ["delay", "--nodes", "400", "--phases", "2", "--seed", "5"],
    "pco": ["pco", "--trials", "20", "--seed", "9"],
    "multihop": ["multihop", "--hops", "7", "--m", "4", "--sigma2", "0.5",
                 "--trials", "300", "--seed", "6"],
    "channel-sample": ["channel-sample", "--trials", "50", "--seed", "8"],
}


def manifest_lines(path):
    """Manifest lines apart from the two that name where the run read and wrote."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith(("source = ", "out = "))]


@pytest.mark.parametrize("command", sorted(RERUN_CASES))
def test_manifest_rerun_reproduces_outputs(tmp_path, command):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run_command(RERUN_CASES[command] + ["--out", str(out_a)]) == 0
    assert cli.run_command(["--config", str(out_a / "manifest.cfg"),
                            "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert len(names) >= 2
    for name in names:
        if name != "manifest.cfg":
            assert read_bytes(out_a / name) == read_bytes(out_b / name), name
    assert manifest_lines(out_a / "manifest.cfg") == manifest_lines(out_b / "manifest.cfg")


@pytest.mark.parametrize("name", ["é", os.fsdecode(b"\xff")], ids=["utf8", "undecodable"])
def test_non_ascii_paths_rerun_from_their_manifest(tmp_path, name):
    out_a, out_b = tmp_path / name / "a", tmp_path / name / "b"
    assert cli.run_command(["steady", "--nodes", "50", "--out", str(out_a)]) == 0
    manifest = out_a / "manifest.cfg"
    text = manifest.read_text(encoding="utf-8", errors="surrogateescape")
    assert f"out = {out_a}" in text.splitlines()
    assert cli.run_command(["--config", str(manifest), "--out", str(out_b)]) == 0
    assert read_bytes(out_a / "phases.csv") == read_bytes(out_b / "phases.csv")
    rerun = (out_b / "manifest.cfg").read_text(encoding="utf-8", errors="surrogateescape")
    assert f"source = {manifest}" in rerun.splitlines()


def test_manifest_with_a_percent_sign_reruns(tmp_path):
    # manifest values are literal, so a "%" in a recorded path is no interpolation
    out_a, out_b = str(tmp_path / "p%1"), str(tmp_path / "rr")
    assert cli.run_command(["steady", "--nodes", "50", "--out", out_a]) == 0
    manifest = os.path.join(out_a, "manifest.cfg")
    assert cli.run_command(["--config", manifest, "--out", out_b]) == 0
    assert read_bytes(os.path.join(out_a, "phases.csv")) == \
        read_bytes(os.path.join(out_b, "phases.csv"))


def test_manifest_with_a_hash_in_a_value_reruns_in_place(tmp_path):
    # "#" starts a comment only at the start of a line, so " #" in a
    # recorded path is part of the value
    out = tmp_path / "q #1"
    assert cli.run_command(["steady", "--nodes", "50", "--out", str(out)]) == 0
    first = read_bytes(out / "phases.csv")
    (out / "phases.csv").unlink()
    assert cli.run_command(["--config", str(out / "manifest.cfg")]) == 0
    assert read_bytes(out / "phases.csv") == first
    assert not (tmp_path / "q").exists()


def test_full_line_comments_in_a_config_are_skipped(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment before any section\n[run]\ncommand = steady\n"
                   "# seed = 9\n[scenario]\n; nodes = 7\nnodes = 60\n", encoding="ascii")
    out = tmp_path / "out"
    assert cli.run_command(["--config", str(cfg), "--out", str(out)]) == 0
    manifest = (out / "manifest.cfg").read_text(encoding="ascii").splitlines()
    assert "nodes = 60" in manifest and "seed = 0" in manifest


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


@pytest.mark.parametrize("section", ["scenario", "pco", "multihop"])
def test_command_key_outside_run_and_manifest_exits_two(tmp_path, section):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\ncommand = delay\n", encoding="ascii")
    out = tmp_path / "out"
    assert cli.run_command(["steady", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


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


# SHA-256 digests pinning the pco per-trial streams and CSV format: a change
# to how trials are seeded or written shows up here.
CENSUS_T300_S3 = "d97ccfa074a92e2f41e113f2c09f3e4dfbb10423d3759e0642c5eaa382381ff9"
EVENTS_S3 = "cca0e1f5c7b4acfd2b662fcd0733e1fd23fd82afeef9b172d6a1ca2b41e9d56d"


def test_pco_census_bytes_are_pinned(tmp_path):
    assert cli.run_command(["pco", "--trials", "300", "--seed", "3",
                            "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256(read_bytes(os.path.join(tmp_path, "census.csv")))
    assert digest.hexdigest() == CENSUS_T300_S3


def test_pco_event_log_bytes_are_pinned(tmp_path):
    assert cli.run_command(["pco", "--seed", "3", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256(read_bytes(os.path.join(tmp_path, "events.csv")))
    assert digest.hexdigest() == EVENTS_S3


# SHA-256 digests pinning the phase, waveform, channel-sample, relay-chain and
# pco outputs: a change to any stream, to the arithmetic behind a value or to
# the CSV format shows up here. Each case is (argv, config body or None,
# {file: digest}). The crossings, and crossing.csv's max_amplitude, are the
# closed form's.
OUTPUT_PINS = {
    "steady": (
        ["steady", "--nodes", "2000", "--phases", "3", "--seed", "7"], None,
        {"phases.csv": "b994d6550a7252438495e98e1251617b09d0f4c9f894eb165917ef1d427308f8"}),
    "evenodd": (
        ["evenodd", "--nodes", "2000", "--phases", "3", "--seed", "4"], None,
        {"phases.csv": "9ee5f3bdbfa55ed0ec73c066eb99c18b7d0ccc069015e3bf4d65c44ff63f6ed6"}),
    "delay": (
        ["delay", "--nodes", "2000", "--phases", "2", "--seed", "5"], None,
        {"phases.csv": "c44b21f4d543075db1279766384f217bc9ab8965831a4aae26edbf9a16d4d38b"}),
    "waveform": (
        ["waveform", "--nodes", "400", "--sigma2", "0.003", "--seed", "2"], None,
        {"waveform.csv": "b147ef86905f97c2080f1b683ee9ac9dae5b8b1d51282a427f7a1a4eea695217",
         "crossing.csv": "38e53c2dcfbb124ce52eb418ef9becd8f06a7f502fddddf477c87fb6ea57eeed"}),
    "samples": (
        ["channel-sample", "--trials", "400", "--seed", "8"], None,
        {"samples.csv": "796d1865bd891e7d94aaaface644e68ea6d51a6b19f2d33305643d6364defb10"}),
    # an edge receiver, so the coverage bisection is pinned too
    "samples_speed2": (
        ["channel-sample", "--trials", "400", "--seed", "8"],
        "[scenario]\nwave_speed = 2.0\nreceiver_x = 0.1\n",
        {"samples.csv": "003c59c7c85d592cad49b7c75ea015ce5607f256e085fb678b8d836fa2c7725f"}),
    "samples_unit": (
        ["channel-sample", "--trials", "400", "--seed", "8"], "[scenario]\ngain = unit\n",
        {"samples.csv": "4027338b367972545e8870ddad182285d829f2f7449513af93dbb1a35ff651ad"}),
    "multihop": (
        ["multihop", "--hops", "40", "--trials", "3000", "--seed", "5"], None,
        {"multihop.csv": "49578def1562acde79d7914321ca9b89b41885c362630ee64c62b730d9216424",
         "contrast.txt": "6ebd12f191d18d316d8280d9dcf99f3bfe5ae658b45be2442881cbbf99708050"}),
    # a flatter charging map than the default curvature 3
    "pco_census_curvature": (
        ["pco", "--trials", "200", "--seed", "3"], "[pco]\ncurvature = 1.5\nepsilon = 0.1\n",
        {"census.csv": "3d80728ec0b7c05fd6c793e685867aa2106c73a961e6d8a6ab87d9e51039ac2c"}),
    "pco_events_curvature": (
        ["pco", "--seed", "3"], "[pco]\ncurvature = 1.5\nepsilon = 0.1\n",
        {"events.csv": "e3c87a445f4fcd854d1d2558a5180b4f7ae131a250f7b98009a866e58b348edd"}),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_PINS))
def test_output_bytes_are_pinned(tmp_path, case):
    argv, body, digests = OUTPUT_PINS[case]
    if body is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body, encoding="ascii")
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert cli.run_command(argv + ["--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256(read_bytes(out / name)).hexdigest() == digest, name


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_pco_trials_below_one_exits_two(tmp_path, capsys, trials):
    assert cli.run_command(["pco", "--trials", trials, "--out", str(tmp_path)]) == 2
    assert "pco.trials" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "events.csv"))


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


def test_unit_gain_keeps_wave_speed_and_gate(tmp_path):
    cfg = tmp_path / "unit.cfg"
    cfg.write_text("[scenario]\ngain = unit\ngate = 5.0\nwave_speed = 2.0\n",
                   encoding="ascii")
    steady, sample = tmp_path / "steady", tmp_path / "sample"
    assert cli.run_command(["steady", "--nodes", "400", "--phases", "2", "--seed", "1",
                            "--config", str(cfg), "--out", str(steady)]) == 0
    _, rows = read_csv(steady / "phases.csv")
    assert len(rows) == 2
    assert all(r[2] == "nan" and r[4] == "1" for r in rows)     # every phase gated
    assert cli.run_command(["channel-sample", "--trials", "400", "--seed", "8",
                            "--config", str(cfg), "--out", str(sample)]) == 0
    _, rows = read_csv(sample / "samples.csv")
    delays = np.array([float(r[1]) for r in rows])
    assert all(r[2] == "1" for r in rows)
    # the centre receiver's farthest transmitter sits at a corner
    assert np.all(delays >= 0.0) and delays.max() <= Region().corner_reach(0.5, 0.5) / 2.0


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
    for command, value in (("steady", "nan"), ("steady", "inf"), ("multihop", "nan")):
        out = tmp_path / f"{command}-{value}"
        assert cli.run_command([command, "--sigma2", value, "--out", str(out)]) == 2
        assert not list(out.glob("*.csv"))
    for command in ("steady", "pco", "multihop", "channel-sample"):
        out = tmp_path / f"{command}-seed"
        assert cli.run_command([command, "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("pco", "curvature", "abc"), ("multihop", "sigma2", "nan"), ("scenario", "receiver_x", "zz")])
def test_unread_sections_are_validated(tmp_path, capsys, section, key, value):
    # steady reads neither [pco], [multihop] nor the receiver, yet would record them
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="ascii")
    out = tmp_path / "out"
    assert cli.run_command(["steady", "--nodes", "50", "--config", str(cfg),
                            "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("leaf", [None, "sub"])
def test_out_through_an_existing_file_exits_two(tmp_path, capsys, leaf):
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="ascii")
    out = afile if leaf is None else afile / leaf
    assert cli.run_command(["steady", "--nodes", "50", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chronomesh: error:") and str(out) in err
    assert afile.read_text(encoding="ascii") == "kept\n"


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
    for key, value in (("tau_nz", "nan"), ("delta_low", "-inf"), ("gate", "inf")):
        cfg.write_text(f"[run]\ncommand = steady\n\n[scenario]\n{key} = {value}\n",
                       encoding="ascii")
        assert cli.run_command(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"scenario.{key}" in capsys.readouterr().err
    # math.expm1 overflows past b = log(DBL_MAX), about 709.78
    cfg.write_text("[run]\ncommand = pco\n\n[pco]\ncurvature = 800\n", encoding="ascii")
    assert cli.run_command(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "curvature" in capsys.readouterr().err
