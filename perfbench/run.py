"""zplsim benchmark: CLI workloads timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload cw_g2 --seed 1 --seconds 22 --trace 0

Run from the root of a zplsim source tree.  Every command is the real CLI
(``zplsim.cli:main``, as the ``zplsim`` script runs it) in a fresh child
process with ``PYTHONPATH=src``; the load is a closed loop with one client,
one command at a time.  A run

1. generates the workload's inputs from ``--seed`` (``g2_longlag`` only, in a
   child process, by ``gen_tags.py``);
2. runs every command once on small inputs, untimed, so ``.pyc`` compilation
   and the file cache do not land in the timings;
3. times ``SETUP_SAMPLES`` bare CLI starts (``zplsim --version``);
4. repeats the workload's command sequence ("pass") for ``--seconds``, each
   command with its own fresh ``--out`` directory, and checks every output
   against the physics model (``check.py``, in a child process).

With ``--trace 1`` the passes alternate between plain passes and traced
passes, in which every command runs under ``tracer.py`` with a span around
each layer call; the per-layer metrics come from the traced passes.

Peak RSS is each child's ``ru_maxrss`` from ``os.wait4``.  On Linux a
child's ``ru_maxrss`` includes the parent's peak RSS at ``exec``, so this
process imports nothing heavy: all numerical work runs in children.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
(environment, every pass and command, metrics) and, for traced runs, a
spans file are written under ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import LONGLAG_DURATION_S, LONGLAG_WARMUP_DURATION_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
CLI = "import sys; from zplsim.cli import main; sys.exit(main())"
SETUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 150.0

STAGES = ("simulate", "analysis", "hom")

# per-layer metrics that are the summed duration of one span name
SPAN_TIMES = [
    ("config.load_config_s", "config.load_config"),
    ("kmc.simulate_stream_s", "kmc.simulate_stream"),
    ("kmc.apply_detection_s", "kmc.apply_detection"),
    ("tagio.write_truth_csv_s", "tagio.write_truth_csv"),
    ("tagio.write_ptag_s", "tagio.write_ptag"),
    ("tagio.read_tags_s", "tagio.read_tags"),
    ("correlator.correlate_s", "correlator.correlate"),
    ("correlator.normalize_g2_s", "correlator.normalize_g2"),
    ("correlator.fit_antibunching_s", "correlator.fit_antibunching"),
    ("correlator.pulsed_peak_ratio_s", "correlator.pulsed_peak_ratio"),
    ("interference.hom_sweep_s", "interference.hom_sweep"),
    ("spectroscopy.stark_scan_s", "spectroscopy.stark_scan"),
    ("spectroscopy.confocal_scan_s", "spectroscopy.confocal_scan"),
    ("spectroscopy.fit_gaussian_s", "spectroscopy.fit_gaussian"),
    ("spectroscopy.excitation_spectrum_s", "spectroscopy.excitation_spectrum"),
]


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = str(work)
    return env


def run_child(argv, env, log_path) -> dict:
    """Run one child to completion: wall time, peak RSS and exit code."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode}


def dir_digests(path: Path) -> dict:
    """{relative path: (size, sha256)} of every file under ``path``."""
    if not path.exists():
        return {}
    return {str(f.relative_to(path)): (f.stat().st_size, sha256_file(f))
            for f in sorted(path.rglob("*")) if f.is_file()}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_tree_id(path: Path) -> str:
    """Git's tree id of ``path`` (``git rev-parse <commit>:src``), so a result
    file can be matched to a commit without a git checkout.  ``__pycache__``
    is skipped, as the repository ignores it."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__":
            continue
        if child.is_dir():
            mode, key, oid = b"40000", child.name + "/", git_tree_id(child)
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            key = child.name
            oid = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        entries.append((key, mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(oid)))
    body = b"".join(e for _, e in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    threads = str(os.cpu_count() or 1)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), **versions,
            "blas_threads": {v: threads for v in ("OMP_NUM_THREADS",
                                                  "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
            "git_commit": commit, "src_tree": git_tree_id(ROOT / "src")}


def import_cumulative_s(log_path, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    with open(log_path, errors="replace") as fh:
        for line in fh:
            if line.startswith("import time:"):
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == module:
                    return int(parts[1]) * 1e-6
    return 0.0


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.work = work
        self.env = child_env(work)
        self.inputs: dict[str, str] = {}
        self.input_sha: str | None = None
        self.reference: dict | None = None

    def _cli(self, args, label, log_dir: Path) -> dict:
        return run_child([sys.executable, "-c", CLI, *args], self.env,
                         log_dir / f"{label}.log")

    def generate_inputs(self):
        if self.args.workload != "g2_longlag":
            return
        input_dir = self.work / "input"
        input_dir.mkdir()
        for name, duration in (("tags", LONGLAG_DURATION_S),
                               ("warmup_tags", LONGLAG_WARMUP_DURATION_S)):
            path = input_dir / f"{name}.ptag"
            out = subprocess.run(
                [sys.executable, str(HERE / "gen_tags.py"), "--seed", str(self.args.seed),
                 "--duration", repr(duration), "--out", str(path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, check=True,
                timeout=COMMAND_TIMEOUT_S)
            self.inputs[name] = str(path)
            if name == "tags":
                self.input_sha = json.loads(out.stdout)["sha256"]

    def warm_up(self):
        warm = self.work / "warmup"
        cmds = self.workload(self.args.seed, lambda label: str(warm / label),
                             self.inputs, warmup=True)
        warm.mkdir()
        for i, cmd in enumerate(cmds):
            self._cli(cmd.args, f"{i}-{cmd.label}", warm)
        shutil.rmtree(warm)

    def setup_samples(self) -> list[float]:
        return [self._cli(["--version"], f"version-{i}", self.work)["wall_s"]
                for i in range(SETUP_SAMPLES)]

    def run_pass(self, index: int, traced: bool) -> dict:
        # the same directory names every pass, so outputs (manifests included)
        # are byte-identical across passes of one seed
        pass_dir = self.work / "pass"
        logs = self.work / "logs"
        pass_dir.mkdir()
        logs.mkdir()
        input_ok = (self.input_sha is None
                    or sha256_file(self.inputs["tags"]) == self.input_sha)
        cmds = self.workload(self.args.seed, lambda label: str(pass_dir / label),
                             self.inputs)
        results = []
        for i, cmd in enumerate(cmds):
            run_id = f"{index}.{i}"
            log = logs / f"{i}-{cmd.label}.log"
            if traced:
                spans_path = logs / f"{i}-{cmd.label}.spans.json"
                argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
                        "--spans", str(spans_path), "--workload", self.args.workload,
                        "--run-id", run_id, "--", *cmd.args]
            else:
                argv = [sys.executable, "-c", CLI, *cmd.args]
            res = run_child(argv, self.env, log)
            res.update(label=cmd.label, stage=cmd.stage, run_id=run_id)
            if traced:
                res["import_scipy_optimize_s"] = import_cumulative_s(log, "scipy.optimize")
                if spans_path.exists():
                    with open(spans_path) as fh:
                        doc = json.load(fh)
                    res["import_s"] = doc["import_s"]
                    res["spans"] = doc["spans"]
            results.append(res)
        digests = {c.label: dir_digests(pass_dir / c.label) for c in cmds}
        if self.reference is None:
            # the first pass is checked against the model; later passes must
            # reproduce its outputs byte for byte
            verdicts = self.check(cmds, results, pass_dir, logs)
            self.reference = {c.label: (digests[c.label], v) for c, v in zip(cmds, verdicts)}
        else:
            verdicts = []
            for c, r in zip(cmds, results):
                ref_digests, ref_verdict = self.reference[c.label]
                same = r["exit_code"] == 0 and digests[c.label] == ref_digests
                verdicts.append({"ok": same and ref_verdict["ok"],
                                 "detail": "identical to pass 0" if same
                                 else "outputs differ from pass 0"})
        shutil.rmtree(pass_dir)
        shutil.rmtree(logs)
        for res, verdict in zip(results, verdicts):
            res["ok"] = verdict["ok"] and input_ok and res["exit_code"] == 0
            res["check"] = verdict["detail"] if input_ok else "input sha256 changed"
        out_bytes = sum(size for d in digests.values() for size, _ in d.values())
        return {"index": index, "traced": traced, "commands": results,
                "wall_s": sum(r["wall_s"] for r in results),
                "peak_rss_mb": max(r["rss_mb"] for r in results),
                "out_mb": out_bytes / 1e6,
                **{f"{s}_s": sum(r["wall_s"] for r in results if r["stage"] == s)
                   for s in STAGES}}

    def check(self, cmds, results, pass_dir: Path, logs: Path) -> list[dict]:
        spec = {"commands": [{"label": c.label, "out": str(pass_dir / c.label),
                              "exit_code": r["exit_code"], "check": c.check}
                             for c, r in zip(cmds, results)]}
        spec_path = logs / "check.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(HERE / "check.py"), str(spec_path)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            detail = "checker failed: " + (lines[-1] if lines else f"exit {proc.returncode}")
            return [{"ok": False, "detail": detail} for _ in cmds]
        return json.loads(proc.stdout)

    def measure(self) -> list[dict]:
        deadline = time.monotonic() + self.args.seconds
        kinds = itertools.cycle([False, True]) if self.args.trace else itertools.repeat(False)
        passes = []
        for index, traced in enumerate(kinds):
            t0 = time.monotonic()
            passes.append(self.run_pass(index, traced))
            last = time.monotonic() - t0
            both = not self.args.trace or len(passes) >= 2
            if both and time.monotonic() + 0.5 * last > deadline:
                return passes


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    cmds = p["commands"]
    spans = [s for c in cmds for s in c.get("spans", [])]

    def total(name, key="duration_s"):
        return sum(s[key] for s in spans if s["name"] == name)

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    m = {metric: total(name) for metric, name in SPAN_TIMES}
    m["cli.import_s"] = sum(c.get("import_s", 0.0) for c in cmds)
    m["cli.import_scipy_optimize_s"] = sum(c["import_scipy_optimize_s"] for c in cmds)
    m["cli.overhead_s"] = sum(c["overhead_s"] for c in cmds)
    photons = count("kmc.simulate_stream", "photons")
    m["kmc.photons"] = photons
    m["kmc.ns_per_photon"] = m["kmc.simulate_stream_s"] / photons * 1e9 if photons else 0.0
    m["kmc.stream_mb"] = count("kmc.simulate_stream", "bytes") / 1e6
    tags = count("kmc.apply_detection", "tags")
    m["kmc.tags"] = tags
    attempted = count("kmc.apply_detection", "photons")
    m["kmc.detected_per_photon"] = tags / attempted if attempted else 0.0
    m["tagio.truth_mb"] = count("tagio.write_truth_csv", "bytes") / 1e6
    m["tagio.ptag_mb"] = count("tagio.write_ptag", "bytes") / 1e6
    pairs = count("correlator.correlate", "pairs")
    m["correlator.pairs"] = pairs
    m["correlator.ns_per_pair"] = m["correlator.correlate_s"] / pairs * 1e9 if pairs else 0.0
    hom = [s["duration_s"] for s in spans if s["name"] == "interference.simulate_hom"]
    pulses = count("interference.simulate_hom", "pulses")
    m["interference.simulate_hom_s"] = median(hom)
    m["interference.simulate_hom_max_s"] = max(hom, default=0.0)
    m["interference.ns_per_pulse"] = sum(hom) / pulses * 1e9 if pulses else 0.0
    return m


def command_overheads(p: dict) -> None:
    """cli.overhead_s of each traced command: wall - import - top-level spans
    (argparse, manifest sha256, CSV/JSON formatting, interpreter start)."""
    for c in p["commands"]:
        top = sum(s["duration_s"] for s in c.get("spans", []) if s["parent"] is None)
        c["overhead_s"] = c["wall_s"] - c.get("import_s", 0.0) - top


def summarize(setup: list[float], passes: list[dict]):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e = {"wall_s": median(p["wall_s"] for p in plain),
           "setup_s": median(setup),
           "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
           "out_mb": median(p["out_mb"] for p in plain)}
    present = {c["stage"] for c in passes[0]["commands"]}
    stages = {f"{s}_s": median(p[f"{s}_s"] for p in plain) for s in STAGES if s in present}
    layers = {}
    if traced:
        for p in traced:
            command_overheads(p)
        per_pass = [layer_metrics(p) for p in traced]
        layers = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                      - median(p["wall_s"] for p in plain))
    return e2e, stages, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zplsim" / "cli.py").is_file():
        print(f"perfbench: no zplsim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_ROOT))
    bench = Bench(args, work)
    try:
        bench.generate_inputs()
        bench.warm_up()
        setup = bench.setup_samples()
        passes = bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, stages, layers = summarize(setup, passes)
    commands = [c for p in passes for c in p["commands"]]
    failed = [c for c in commands if not c["ok"]]
    error_rate = len(failed) / len(commands)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {SETUP_SAMPLES} setup samples")
    for c in commands:
        mark = "ok" if c["ok"] else "FAIL"
        extra = f", overhead {c['overhead_s']:.4f} s" if "overhead_s" in c else ""
        print(f"  pass {c['run_id']:>5} {c['label']:<16} {c['wall_s']:8.3f} s "
              f"{c['rss_mb']:7.1f} MB{extra}  [{mark}] {c['check']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in stages.items():
        print(f"{name} {value:.6g} s")
    print(f"error_rate {error_rate:.6g} ratio ({len(failed)}/{len(commands)} commands)")
    for name, value in layers.items():
        print(f"{name} {value:.6g} {units[name]}")
    overheads = [c["overhead_s"] for c in commands if "overhead_s" in c]
    if overheads:
        print(f"cli.overhead_s per command: min {min(overheads):.6g} s over {len(overheads)}")

    if args.trace:
        listed, values = spec["per_layer"], layers
    else:
        listed, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    results = OUT_ROOT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    spans = [s for p in passes for c in p["commands"] for s in c.pop("spans", [])]
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "input_sha256": bench.input_sha, "setup_samples_s": setup, "passes": passes,
        "end_to_end": e2e, "stages": stages, "error_rate": error_rate,
        "per_layer": layers}, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(commands),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
