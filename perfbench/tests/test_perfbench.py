"""Tests of the benchmark's own code: spans, the tag generator and the checks.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import check  # noqa: E402
import gen_tags  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, with_self_time  # noqa: E402
from zplsim.cli import main as cli  # noqa: E402

CONFIGS = ROOT / "src" / "zplsim" / "configs"


def _span(i, parent, start, end):
    return {"id": i, "name": f"s{i}", "parent": parent, "start_ns": start,
            "end_ns": end, "workload": "w", "run_id": "0.0", "counts": {}}


def test_self_time_subtracts_union_of_direct_children():
    spans = [_span(0, None, 0, 100), _span(1, 0, 10, 30), _span(2, 0, 20, 50),
             _span(3, 1, 12, 14), _span(4, 0, 90, 120)]
    out = {s["id"]: s for s in with_self_time(spans)}
    # children of 0 cover [10, 50) and [90, 100) after clipping: 50 ns
    assert out[0]["self_s"] == pytest.approx(50e-9)
    assert out[1]["self_s"] == pytest.approx(18e-9)   # grandchild is not subtracted from 0
    assert out[2]["self_s"] == pytest.approx(30e-9)
    assert out[3]["self_s"] == pytest.approx(2e-9)
    assert out[0]["duration_s"] == pytest.approx(100e-9)


def test_recorder_nests_spans_and_counts():
    rec = Recorder("w", "1.2")
    inner = rec.wrap("layer.inner", lambda n: list(range(n)),
                     counts=lambda r, a, k: {"items": len(r)})
    outer = rec.wrap("layer.outer", lambda: [inner(3), inner(4)])
    outer()
    names = [(s["name"], s["parent"], s["counts"]) for s in rec.spans]
    assert names == [("layer.outer", None, {}), ("layer.inner", 0, {"items": 3}),
                     ("layer.inner", 0, {"items": 4})]
    out = with_self_time(rec.spans)
    assert out[0]["self_s"] <= out[0]["duration_s"]
    assert all(s["self_s"] >= 0 for s in out)


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen_tags.write_tags(tmp_path / "a.ptag", seed=5, duration=0.002)
    b = gen_tags.write_tags(tmp_path / "b.ptag", seed=5, duration=0.002)
    c = gen_tags.write_tags(tmp_path / "c.ptag", seed=6, duration=0.002)
    assert a["sha256"] == b["sha256"] != c["sha256"]
    assert (tmp_path / "a.ptag").read_bytes() == (tmp_path / "b.ptag").read_bytes()
    assert a["counts"] == b["counts"]


def test_generator_rate_matches_its_model(tmp_path):
    info = gen_tags.write_tags(tmp_path / "t.ptag", seed=1, duration=0.01)
    rate = 1.0 / (1.0 / gen_tags.PUMP_HZ + 1.0 / gen_tags.GAMMA_HZ)
    expected = 0.5 * gen_tags.EFFICIENCY * rate * 0.01
    for n in info["counts"]:
        assert abs(n - expected) <= 5 * math.sqrt(expected)
    duration_ps, channels = check.read_ptag(tmp_path / "t.ptag")
    assert duration_ps == 10**10
    assert [len(channels[c]) for c in (0, 1)] == info["counts"]


def test_bin_bounds_match_brute_force():
    rng = np.random.default_rng(3)
    a = np.sort(rng.integers(0, 20_000, 300))
    b = np.sort(rng.integers(0, 20_000, 300))
    bin_ps, max_lag = 10, 200
    lower, upper = check.bin_bounds(a, b, bin_ps, max_lag)
    n = check.half_bins(max_lag, bin_ps)
    exact = np.zeros(2 * n + 1, dtype=np.int64)
    for x in a:
        for y in b:
            if abs(y - x) <= max_lag:
                exact[int(math.floor((y - x) / bin_ps + 0.5)) + n] += 1
    assert np.all(lower <= exact) and np.all(exact <= upper)
    certain, possible = check.pair_total_bounds(a, b, max_lag)
    assert certain <= exact.sum() <= possible


# ---------------------------------------------------------------------------
# each output check accepts the real artifact and rejects a corrupted one

def _rewrite_json(path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def _rewrite_csv_cell(path, row, col, fn):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _remove_one_count(path):
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines[1:]) if int(line.split(",")[1]) > 0)
    _rewrite_csv_cell(path, row, 1, lambda c: str(int(c) - 1))


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:-4])


def _simulate(tmp_path, config, duration):
    out = tmp_path / "sim"
    assert cli(["simulate", "--config", str(CONFIGS / config), "--duration",
                repr(duration), "--seed", "3", "--out", str(out)]) == 0
    return out


def _build(tmp_path, name, seed=3):
    """(check dict, output dir, corruption) for one workload command."""
    out = lambda label: str(tmp_path / label)  # noqa: E731
    if name == "simulate":
        d = _simulate(tmp_path, "fig4a.ini", 0.005)
        chk = {"kind": "simulate", "config": str(CONFIGS / "fig4a.ini"), "duration_s": 0.005}
        return chk, d, lambda: _truncate(d / "tags.ptag")
    if name in ("correlate", "correlate-long"):
        tags = tmp_path / "syn.ptag"
        gen_tags.write_tags(tags, seed=seed, duration=0.02)
        short = name == "correlate"
        bin_ps, lag_ps = (250, 100_000) if short else (10_000, 1_000_000)
        d = tmp_path / name
        assert cli(["correlate", "--tags", str(tags), "--bin-width", f"{bin_ps} ps",
                    "--max-lag", f"{lag_ps} ps", "--out", str(d)]) == 0
        chk = {"kind": "correlate", "tags": str(tags), "bin_ps": bin_ps,
               "max_lag_ps": lag_ps, "per_bin": short}
        chk.update({"fit_model": {"synthetic": True}} if short else {"plateau": True})
        return chk, d, lambda: _remove_one_count(d / "histogram.csv")
    if name == "pulsed_ratio":
        sim = _simulate(tmp_path, "fig4b.ini", 0.02)
        cmd = workloads.pulsed_g2(3, out, {})[1]
        cmd.check["tags"] = str(sim / "tags.ptag")
        cmd.check["config"] = str(CONFIGS / "fig4b.ini")
        args = cmd.args[:]
        args[args.index("--tags") + 1] = cmd.check["tags"]
        assert cli(args) == 0
        d = Path(out("pulsed-g2"))
        return cmd.check, d, lambda: _rewrite_json(
            d / "ratio.json", ratio=json.loads((d / "ratio.json").read_text())["ratio"] * 1.01)
    cmds = {c.label: c for c in workloads.hom_stark(seed, out, {})}
    label = {"hom_sweep": "hom-sweep", "hom": "hom-42V"}.get(name, name)
    cmd = cmds[label]
    args = [str(ROOT / a) if a.startswith(workloads.CONFIGS) else a for a in cmd.args]
    if label.startswith("hom"):
        args[args.index("--pulses") + 1] = "20000"
        cmd.check["pulses"] = 20000
    cmd.check = {k: str(ROOT / v) if k == "config" else v for k, v in cmd.check.items()}
    assert cli(args) == 0
    d = Path(out(label))
    corrupt = {
        "hom-sweep": lambda: _rewrite_csv_cell(d / "hom_sweep.csv", 21, 1, lambda c: "0.2"),
        "hom-42V": lambda: _rewrite_json(d / "hom.json", coincidences=0),
        "stark": lambda: _rewrite_json(d / "stark_summary.json", rows=[
            {**r, "separation_hz": r["separation_hz"] + 5e6} if i == 0 else r
            for i, r in enumerate(json.loads((d / "stark_summary.json").read_text())["rows"])]),
        "scan": lambda: _rewrite_json(d / "scan.json", fit={"fwhm_nm": 360.0}),
        "spectrum": lambda: _rewrite_csv_cell(d / "spectrum.csv", 1000, 1, lambda c: "0.0"),
        "budget": lambda: _rewrite_json(d / "budget.json", p_excited=0.5),
    }[label]
    return cmd.check, d, corrupt


@pytest.mark.parametrize("name", ["simulate", "correlate", "correlate-long", "pulsed_ratio",
                                  "hom_sweep", "hom", "stark", "scan", "spectrum", "budget"])
def test_check_accepts_output_and_rejects_corruption(tmp_path, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    chk, out, corrupt = _build(tmp_path, name)
    ok, detail = check.run_check(chk, str(out))
    assert ok, detail
    corrupt()
    ok, detail = check.run_check(chk, str(out))
    assert not ok, f"corrupted {name} output passed: {detail}"


def test_truncated_tags_fail_the_analysis_check(tmp_path):
    chk, out, _ = _build(tmp_path, "correlate")
    _truncate(Path(chk["tags"]))
    ok, detail = check.run_check(chk, str(out))
    assert not ok and "truncated" in detail


def test_benchmark_json_names_every_reported_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty_pass = {"commands": [{"import_s": 0.0, "import_scipy_optimize_s": 0.0,
                                "overhead_s": 0.0, "spans": []}]}
    reported = set(run.layer_metrics(empty_pass)) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    plain_pass = {"traced": False, "wall_s": 1.0, "peak_rss_mb": 1.0, "out_mb": 1.0,
                  "commands": [{"stage": "other"}]}
    e2e, _, _ = run.summarize([1.0], [plain_pass])
    assert {m["name"] for m in bench["end_to_end"]} == set(e2e)
    predictions = json.loads((HERE.parent / "predictions.json").read_text())
    predicted = {n for p in predictions["predictions"] for n in p["layer_metrics"]}
    assert predicted == reported
    assert set(bench["workloads"][i]["name"] for i in range(4)) == set(workloads.WORKLOADS)
