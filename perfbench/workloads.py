"""The benchmark's workloads: CLI command sequences and their output checks.

Each workload is a function ``(seed, out, inputs, warmup) -> [Command]``.
``out(label)`` gives the fresh output directory of the command called
``label``; ``inputs`` maps input names to files the benchmark generated.
With ``warmup=True`` the same commands run on small inputs, which compiles
every ``.pyc`` and loads every library the timed commands use.

Sizes are chosen so that three to six passes fit in one 22 s run on a
2-CPU machine; cw_g2 uses the README example's 50 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CONFIGS = "src/zplsim/configs"


@dataclass
class Command:
    label: str
    stage: str          # "simulate", "analysis", "hom" or "other"
    args: list[str]     # zplsim CLI arguments
    check: dict = field(default_factory=dict)


def cw_g2(seed, out, inputs, warmup=False):
    cfg = f"{CONFIGS}/fig4a.ini"
    duration = 0.001 if warmup else 0.05
    tags = f"{out('simulate')}/tags.ptag"
    return [
        Command("simulate", "simulate",
                ["simulate", "--config", cfg, "--duration", repr(duration),
                 "--seed", str(seed), "--out", out("simulate")],
                {"kind": "simulate", "config": cfg, "duration_s": duration}),
        Command("correlate", "analysis",
                ["correlate", "--tags", tags, "--bin-width", "250 ps",
                 "--max-lag", "100 ns", "--out", out("correlate")],
                {"kind": "correlate", "tags": tags, "bin_ps": 250,
                 "max_lag_ps": 100_000, "per_bin": True,
                 "fit_model": {"config": cfg}}),
    ]


def pulsed_g2(seed, out, inputs, warmup=False):
    cfg = f"{CONFIGS}/fig4b.ini"
    duration = 0.002 if warmup else 0.1
    tags = f"{out('simulate')}/tags.ptag"
    return [
        Command("simulate", "simulate",
                ["simulate", "--config", cfg, "--duration", repr(duration),
                 "--seed", str(seed), "--out", out("simulate")],
                {"kind": "simulate", "config": cfg, "duration_s": duration}),
        Command("pulsed-g2", "analysis",
                ["pulsed-g2", "--tags", tags, "--period", "263.16 ns",
                 "--out", out("pulsed-g2")],
                {"kind": "pulsed_ratio", "tags": tags, "config": cfg,
                 "period": "263.16 ns", "window": "100 ns", "bin_width": "250 ps"}),
    ]


def g2_longlag(seed, out, inputs, warmup=False):
    tags = inputs["warmup_tags" if warmup else "tags"]
    model = {"synthetic": True}
    return [
        Command("correlate-short", "analysis",
                ["correlate", "--tags", tags, "--bin-width", "250 ps",
                 "--max-lag", "100 ns", "--out", out("correlate-short")],
                {"kind": "correlate", "tags": tags, "bin_ps": 250,
                 "max_lag_ps": 100_000, "per_bin": True, "fit_model": model}),
        Command("correlate-long", "analysis",
                ["correlate", "--tags", tags, "--bin-width", "10 ns",
                 "--max-lag", "100 us", "--out", out("correlate-long")],
                {"kind": "correlate", "tags": tags, "bin_ps": 10_000,
                 "max_lag_ps": 100_000_000, "per_bin": False, "plateau": True}),
    ]


def hom_stark(seed, out, inputs, warmup=False):
    fig5a, fig3b, fig4a = (f"{CONFIGS}/{n}.ini" for n in ("fig5a", "fig3b", "fig4a"))
    pulses = "1000" if warmup else "1000000"
    sweep = "0:2:2" if warmup else "0:42:2"
    stark_sweep = "0:2:1" if warmup else "0:42:1"
    return [
        Command("hom-sweep", "hom",
                ["hom", "--config", fig5a, "--sweep", sweep, "--pulses", pulses,
                 "--seed", str(seed), "--out", out("hom-sweep")],
                {"kind": "hom_sweep", "config": fig5a, "sweep": sweep,
                 "pulses": int(pulses)}),
        Command("hom-42V", "hom",
                ["hom", "--config", fig5a, "--voltage", "42", "--pulses", pulses,
                 "--seed", str(seed), "--out", out("hom-42V")],
                {"kind": "hom", "config": fig5a, "voltage": 42.0,
                 "pulses": int(pulses)}),
        Command("stark", "other",
                ["stark", "--config", fig5a, "--sweep", stark_sweep, "--out", out("stark")],
                {"kind": "stark", "config": fig5a, "sweep": stark_sweep,
                 "span_hz": 800e6, "points": 801}),
        Command("scan", "other",
                ["scan", "--config", fig3b, "--seed", str(seed), "--out", out("scan")],
                {"kind": "scan", "config": fig3b, "psf_fwhm_nm": 330.0, "grid": 50,
                 "pitch_um": 0.05, "brightness": 2.0e5, "background": 20.0}),
        Command("spectrum", "other",
                ["spectrum", "--config", fig4a, "--out", out("spectrum")],
                {"kind": "spectrum", "config": fig4a, "span_hz": 1e9, "points": 2001}),
        Command("budget", "other",
                ["budget", "--config", fig4a, "--out", out("budget")],
                {"kind": "budget", "config": fig4a}),
    ]


WORKLOADS = {"cw_g2": cw_g2, "pulsed_g2": pulsed_g2,
             "g2_longlag": g2_longlag, "hom_stark": hom_stark}

# the g2_longlag input: seconds of synthetic tags for the timed and warm-up runs
LONGLAG_DURATION_S = 0.5
LONGLAG_WARMUP_DURATION_S = 0.01
