import pytest

from zplsim import ConfigError, PhysicsError
from zplsim.config import load_config, parse_quantity


class TestParseQuantity:
    def test_si_suffixes(self):
        assert parse_quantity("9.4 ns") == pytest.approx(9.4e-9)
        assert parse_quantity("30 GHz") == pytest.approx(30e9)
        assert parse_quantity("18 um") == pytest.approx(18e-6)
        assert parse_quantity("42 V") == 42.0
        assert parse_quantity("250 ps") == pytest.approx(250e-12)

    def test_bare_number_is_field_unit(self):
        assert parse_quantity("590", field_unit_si=1e-9) == 590.0

    def test_field_unit_conversion(self):
        assert parse_quantity("590 nm", field_unit_si=1e-9) == pytest.approx(590.0)

    def test_case_sensitive(self):
        with pytest.raises(ConfigError):
            parse_quantity("30 ghz")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("fast")

    @pytest.mark.parametrize("text", ["1e999", "1e300 THz"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity(text)

    @pytest.mark.parametrize("text", [".", "-.", ". ns"])
    def test_no_digit_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_quantity(text)


def write_config(tmp_path, text):
    path = tmp_path / "scene.ini"
    path.write_text(text)
    return path


MINIMAL = """
[scene]
background_rate = 100

[molecule.3]
position = 1.0 um, 2.5 um
zpl_center = 180 MHz
lifetime_t1 = 9.4 ns
zpl_branching = 0.3
vibronic_offset = 40 THz
vibronic_fwhm = 30 GHz
stark_linear = 77.14
stark_quadratic = 0
polarization_angle = 0

[laser]
mode = pulsed
frequency = 40 THz
pulse_width = 700 ps
pulse_rep_rate = 76 MHz
pulse_divider = 20
pulse_peak_pump_rate = 1 GHz

[detection]
collection_efficiency = 0.2
dead_time = 50 ns
resolution = 4 ps

[electrode]
gap = 18 um
voltage = 42 V
max_voltage = 90 V
"""


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        mol = cfg.scene.molecules[0]
        assert mol.id == 3
        assert mol.position == pytest.approx((1.0, 2.5))
        assert mol.zpl_center == pytest.approx(180e6)
        assert mol.lifetime_t1 == pytest.approx(9.4e-9)
        assert cfg.scene.background_rate == 100.0
        assert cfg.laser.mode == "pulsed"
        assert cfg.laser.pulse_divider == 20
        assert cfg.laser.pulse_period == pytest.approx(20 / 76e6)
        assert cfg.detection.resolution == 4
        assert cfg.detection.dead_time == pytest.approx(50e-9)
        assert cfg.scene.electrode.voltage == 42.0

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, "[scene]\nbackground_rte = 1\n")
        with pytest.raises(ConfigError, match="background_rte"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, "[cryostat]\ntemp = 1.4\n")
        with pytest.raises(ConfigError, match="cryostat"):
            load_config(path)

    def test_physics_violation_surfaces(self, tmp_path):
        path = write_config(tmp_path, "[molecule.1]\nlifetime_t1 = -1 ns\n")
        with pytest.raises(PhysicsError):
            load_config(path)

    def test_bundled_fixtures_parse(self, config_dir):
        for name in ("fig2b.ini", "fig3b.ini", "fig4a.ini", "fig4b.ini", "fig5a.ini"):
            cfg = load_config(str(config_dir / name))
            assert cfg.scene.molecules

    def test_fig5a_encodes_merge_calibration(self, config_dir):
        from zplsim import stark_shift
        cfg = load_config(str(config_dir / "fig5a.ini"))
        mol_b = cfg.scene.molecules[1]
        shift = stark_shift(mol_b, cfg.scene.electrode.__class__(
            gap=cfg.scene.electrode.gap, voltage=42.0,
            max_voltage=cfg.scene.electrode.max_voltage))
        assert mol_b.zpl_center + shift == pytest.approx(0.0, abs=100.0)
