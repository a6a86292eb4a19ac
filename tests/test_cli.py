import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zplsim
from zplsim.cli import _parse_sweep, main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def fig4a(config_dir):
    return str(config_dir / "fig4a.ini")


@pytest.fixture()
def fig5a(config_dir):
    return str(config_dir / "fig5a.ini")


@pytest.fixture()
def fig3b(config_dir):
    return str(config_dir / "fig3b.ini")


class TestSimulate:
    def test_writes_outputs_and_manifest(self, tmp_path, fig4a):
        out = tmp_path / "run"
        assert run(["simulate", "--config", fig4a, "--duration", "2 ms",
                    "--seed", 5, "--out", out]) == 0
        assert (out / "tags.ptag").exists()
        assert (out / "truth.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert "sha256" in manifest["inputs"]["config"]

    def test_csv_format(self, tmp_path, fig4a):
        out = tmp_path / "run"
        assert run(["simulate", "--config", fig4a, "--duration", "1 ms",
                    "--format", "csv", "--out", out]) == 0
        header = (out / "tags.csv").read_text().splitlines()[0]
        assert header == "channel,time_ps"

    def test_deterministic_bytes(self, tmp_path, fig4a):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["simulate", "--config", fig4a, "--duration", "1 ms",
                        "--seed", 9, "--out", out]) == 0
            outs.append(out)
        for fname in ("tags.ptag", "truth.csv", "manifest.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_missing_config_exits_1(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.ini",
                    "--duration", "1 ms", "--out", tmp_path]) in (1, 3)

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scene]\nbackground_rte = 1\n")
        assert run(["simulate", "--config", bad, "--duration", "1 ms",
                    "--out", tmp_path]) == 1
        assert "background_rte" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", [".", "1e999 s"])
    def test_bad_duration_exits_1(self, tmp_path, fig4a, duration):
        assert run(["simulate", "--config", fig4a, "--duration", duration,
                    "--out", tmp_path]) == 1

    def test_zero_duration_exits_2(self, tmp_path, fig4a):
        assert run(["simulate", "--config", fig4a, "--duration", "0 s",
                    "--out", tmp_path]) == 2


class TestCorrelate:
    def test_pipeline(self, tmp_path, fig4a):
        sim = tmp_path / "sim"
        assert run(["simulate", "--config", fig4a, "--duration", "20 ms",
                    "--out", sim]) == 0
        out = tmp_path / "corr"
        assert run(["correlate", "--tags", sim / "tags.ptag", "--out", out]) == 0
        lines = (out / "histogram.csv").read_text().splitlines()
        assert lines[0] == "lag_s,counts,g2"
        assert len(lines) > 100
        fit = json.loads((out / "fit.json").read_text())
        assert set(fit) == {"g2_zero", "decay_time_s", "g2_zero_error", "decay_time_error_s",
                            "deviance_per_dof", "pairs", "underdetermined"}

    def test_readme_example_flags_undetermined_decay(self, tmp_path, fig4a):
        # ~35 pairs in 50 ms do not fix the decay time; the fit must say so
        # and keep tau finite and within the lag window
        sim, out = tmp_path / "sim", tmp_path / "corr"
        assert run(["simulate", "--config", fig4a, "--duration", "50 ms",
                    "--seed", 8, "--out", sim]) == 0
        assert run(["correlate", "--tags", sim / "tags.ptag", "--bin-width", "250 ps",
                    "--max-lag", "100 ns", "--out", out]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["underdetermined"] is True
        assert 0 < fit["decay_time_s"] <= 100e-9

    def test_single_channel_rejected(self, tmp_path):
        csv = tmp_path / "tags.csv"
        csv.write_text("channel,time_ps\n0,100\n0,200\n")
        assert run(["correlate", "--tags", csv, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("command", [["correlate"], ["pulsed-g2", "--period", "100 ns"]])
    def test_channels_without_0_rejected(self, tmp_path, capsys, command):
        csv = tmp_path / "tags.csv"
        csv.write_text("channel,time_ps\n1,100\n2,200\n1,300\n")
        assert run(command + ["--tags", csv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "channels 0 and 1" in err and "[1, 2]" in err


class TestHom:
    def test_single_point(self, tmp_path, fig5a):
        out = tmp_path / "hom"
        assert run(["hom", "--config", fig5a, "--pulses", 20000,
                    "--voltage", 42.0, "--out", out]) == 0
        result = json.loads((out / "hom.json").read_text())
        assert result["voltage"] == 42.0
        assert 0 <= result["coincidences"] <= result["both_emitted"]

    def test_sweep(self, tmp_path, fig5a):
        out = tmp_path / "sweep"
        assert run(["hom", "--config", fig5a, "--pulses", 5000,
                    "--sweep", "0:42:21", "--out", out]) == 0
        lines = (out / "hom_sweep.csv").read_text().splitlines()
        assert lines[0] == "voltage,p_estimate,p_error"
        assert len(lines) == 4  # 0, 21, 42

    def test_bad_sweep_exits_1(self, tmp_path, fig5a):
        assert run(["hom", "--config", fig5a, "--sweep", "0:42",
                    "--out", tmp_path]) == 1

    def test_requires_two_molecules(self, tmp_path, fig4a):
        assert run(["hom", "--config", fig4a, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("sweep, n, last", [("0:43:2", 22, 42.0), ("0:42:2", 22, 42.0),
                                                ("0:0.3:0.1", 4, 0.3), ("5:5:1", 1, 5.0)])
    def test_sweep_ends_at_or_before_stop(self, sweep, n, last):
        voltages = _parse_sweep(sweep)
        assert len(voltages) == n
        assert voltages[-1] == pytest.approx(last)


class TestSpectrumStarkScanBudget:
    def test_excitation_spectrum(self, tmp_path, fig4a):
        out = tmp_path / "spec"
        assert run(["spectrum", "--config", fig4a, "--kind", "excitation",
                    "--span", "200 MHz", "--points", 501, "--out", out]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "axis,value"
        assert len(lines) == 502

    def test_emission_spectrum(self, tmp_path, config_dir):
        out = tmp_path / "em"
        assert run(["spectrum", "--config", config_dir / "fig2b.ini",
                    "--kind", "emission", "--out", out]) == 0
        assert (out / "spectrum.csv").exists()

    def test_stark(self, tmp_path, fig5a):
        out = tmp_path / "stark"
        assert run(["stark", "--config", fig5a, "--sweep", "0:42:14",
                    "--points", 201, "--out", out]) == 0
        summary = json.loads((out / "stark_summary.json").read_text())
        rows = summary["rows"]
        assert [r["voltage"] for r in rows] == [0.0, 14.0, 28.0, 42.0]
        assert rows[0]["resolved"] and not rows[-1]["resolved"]
        assert rows[0]["separation_hz"] == pytest.approx(180e6, abs=5e6)

    def test_scan(self, tmp_path, fig3b):
        out = tmp_path / "scan"
        assert run(["scan", "--config", fig3b, "--out", out, "--seed", 2]) == 0
        pgm = (out / "scan.pgm").read_text().splitlines()
        assert pgm[0] == "P2" and pgm[1] == "50 50"
        fit = json.loads((out / "scan.json").read_text())["fit"]
        assert fit["fwhm_nm"] == pytest.approx(330.0, abs=15.0)

    def test_budget(self, tmp_path, fig4a):
        out = tmp_path / "budget"
        assert run(["budget", "--config", fig4a, "--out", out]) == 0
        budget = json.loads((out / "budget.json").read_text())
        assert budget["p_excited"] == pytest.approx(0.1383, abs=2e-4)
        assert budget["detected_zpl_rate_hz"] > 1e5


class TestMalformedTagFile:
    def test_truncated_ptag_exits_4(self, tmp_path, fig4a, capsys):
        run_dir = tmp_path / "run"
        assert run(["simulate", "--config", fig4a, "--duration", "1 ms",
                    "--out", run_dir]) == 0
        tags = run_dir / "tags.ptag"
        tags.write_bytes(tags.read_bytes()[:-1])
        assert run(["correlate", "--tags", tags, "--out", tmp_path / "g2"]) == 4
        err = capsys.readouterr().err
        assert "malformed tag file" in err and str(tags) in err


# Each command below must finish without importing scipy; the script reports
# the first command after which scipy is loaded.
_NO_SCIPY_SCRIPT = """
import json
import sys
from zplsim.cli import main

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
    if scipy_loaded():
        sys.exit(f"{argv[0]} loaded scipy")
"""


def test_commands_without_fits_do_not_import_scipy(tmp_path, config_dir):
    fig4a, fig4b, fig5a = (str(config_dir / f"{n}.ini") for n in ("fig4a", "fig4b", "fig5a"))
    sim = str(tmp_path / "sim")
    commands = [
        ["--version"],
        ["simulate", "--config", fig4b, "--duration", "1 ms", "--out", sim],
        ["correlate", "--tags", f"{sim}/tags.ptag", "--out", str(tmp_path / "g2")],
        ["pulsed-g2", "--tags", f"{sim}/tags.ptag", "--period", "263.16 ns",
         "--out", str(tmp_path / "pulsed")],
        ["hom", "--config", fig5a, "--pulses", "1000", "--out", str(tmp_path / "hom")],
        ["budget", "--config", fig4a, "--out", str(tmp_path / "budget")],
    ]
    src = str(Path(zplsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestParser:
    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
