import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zplsim
from zplsim.cli import _parse_sweep, main
from zplsim.errors import ConfigError
from zplsim.kmc import TimeTagSet
from zplsim.tagio import write_ptag


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

    @pytest.mark.parametrize("line", ["resolution = 1e30 ps", "dead_time = 1e300"])
    def test_tick_count_beyond_int64_exits_2(self, tmp_path, fig4a, line, capsys):
        # a tick count int64 cannot hold is a physics error, not a traceback
        key = line.split()[0]
        text = Path(fig4a).read_text().splitlines()
        bad = tmp_path / "bad.ini"
        bad.write_text("\n".join(line if t.startswith(key) else t for t in text))
        assert run(["simulate", "--config", bad, "--duration", "1 ms",
                    "--out", tmp_path / "out"]) == 2
        assert key in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [["--bin-width", "0.5 ps"], ["--max-lag", "1000.5 ps"],
                                       ["--max-lag", "1e300"]])
    def test_window_not_whole_ticks_exits_2(self, tmp_path, capsys, flags):
        csv = tmp_path / "tags.csv"
        csv.write_text("channel,time_ps\n0,100\n1,200\n")
        assert run(["correlate", "--tags", csv, *flags, "--out", tmp_path / "out"]) == 2
        assert "1 ps" in capsys.readouterr().err

    def test_too_many_bins_exits_2(self, tmp_path, capsys):
        # 1 ns bins over 3e6 s are whole 1 ps ticks, but 6e15 bins
        from zplsim.correlator import MAX_BINS
        csv = tmp_path / "tags.csv"
        csv.write_text("channel,time_ps\n0,100\n1,200\n")
        assert run(["correlate", "--tags", csv, "--bin-width", "1 ns", "--max-lag", "3e6",
                    "--out", tmp_path / "out"]) == 2
        assert f"more than {MAX_BINS}" in capsys.readouterr().err

    def test_seed_rejected(self, tmp_path, capsys):
        # correlate draws no random numbers, so it takes no seed
        csv = tmp_path / "tags.csv"
        csv.write_text("channel,time_ps\n0,100\n1,200\n")
        with pytest.raises(SystemExit) as exc:
            run(["correlate", "--tags", csv, "--seed", 1, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

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
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep"] == "0:42:21" and "voltage" not in manifest

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

    def test_sweep_point_count_bounded(self):
        # imported first, so code without the bound never parses 0:1e12:1
        from zplsim.cli import MAX_SWEEP_POINTS
        assert len(_parse_sweep(f"0:{MAX_SWEEP_POINTS - 1}:1")) == MAX_SWEEP_POINTS
        for sweep in (f"0:{MAX_SWEEP_POINTS}:1", "0:1e12:1"):
            with pytest.raises(ConfigError, match="points"):
                _parse_sweep(sweep)


def test_json_artifacts_are_strict(tmp_path, fig5a):
    # non-finite floats are written as null, never as NaN or Infinity
    def strict(path):
        def reject(constant):
            raise ValueError(f"{path.name} holds {constant}")
        return json.loads(path.read_text(), parse_constant=reject)

    tags = tmp_path / "tags.ptag"  # channel 1 declared but empty: no pairs, no rate
    write_ptag(TimeTagSet(1, {0: np.array([5]), 1: np.array([], dtype=np.int64)}, 1000),
               tags)
    assert run(["correlate", "--tags", tags, "--out", tmp_path / "g2"]) == 0
    fit = strict(tmp_path / "g2" / "fit.json")
    assert fit["pairs"] == 0 and fit["g2_zero_error"] is None
    assert run(["hom", "--config", fig5a, "--pulses", 1, "--out", tmp_path / "hom"]) == 0
    hom = strict(tmp_path / "hom" / "hom.json")
    assert hom["both_emitted"] == 0 and hom["p_estimate"] is None


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


# Runs the commands in argv[1] and reports the first one after which the
# module argv[2] (or one of its submodules) is loaded.
_NO_IMPORT_SCRIPT = """
import json
import sys
from zplsim.cli import main

module = sys.argv[2]

def loaded():
    return any(m == module or m.startswith(module + ".") for m in sys.modules)

for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
    if loaded():
        sys.exit(f"{argv[0]} loaded {module}")
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
        ["scan", "--config", str(config_dir / "fig3b.ini"), "--out", str(tmp_path / "scan")],
    ]
    run_without(commands, "scipy")


def run_without(commands, module):
    """Run the CLI commands in one fresh interpreter, failing once ``module`` is loaded."""
    src = str(Path(zplsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_IMPORT_SCRIPT, json.dumps(commands),
                           module], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_stark_and_spectrum_do_not_import_scipy_optimize(tmp_path, config_dir):
    # they may load scipy.special for the Voigt line, but fit without scipy
    fig4a, fig5a = (str(config_dir / f"{n}.ini") for n in ("fig4a", "fig5a"))
    commands = [
        ["stark", "--config", fig5a, "--sweep", "0:42:21", "--out", str(tmp_path / "stark")],
        ["spectrum", "--config", fig4a, "--out", str(tmp_path / "spectrum")],
    ]
    run_without(commands, "scipy.optimize")


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
