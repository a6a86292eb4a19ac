"""Run one zplsim CLI command with a span around every layer call it makes.

    python3 -X importtime perfbench/tracer.py --spans spans.json \
        --workload cw_g2 --run-id 0.1 -- simulate --config ... --out ...

The public functions the CLI calls are replaced, in ``zplsim.cli`` and in
their own modules, by wrappers that record spans; calls one layer makes to
another public function (``hom_sweep`` -> ``simulate_hom``, ``stark_scan`` ->
``excitation_spectrum``) therefore appear as child spans.  The command then
runs through ``zplsim.cli.main`` exactly as the ``zplsim`` script runs it.
At exit the spans, the import time of ``zplsim.cli`` and the exit code are
written to the ``--spans`` file, and the process exits with the command's
exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from spans import Recorder


def _tag_count(tagset) -> dict:
    return {"tags": int(sum(len(c) for c in tagset.channels.values()))}


def _file_bytes(result, args, kwargs) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _stream_counts(stream, args, kwargs) -> dict:
    nbytes = sum(a.nbytes for a in (stream.times, stream.frequencies,
                                    stream.source_ids, stream.branches))
    return {"photons": len(stream), "bytes": int(nbytes)}


def _detection_counts(tagset, args, kwargs) -> dict:
    return {**_tag_count(tagset), "photons": len(args[0])}


# (module, function, counts) for every public function the CLI calls
TRACED = [
    ("config", "load_config", None),
    ("kmc", "simulate_stream", _stream_counts),
    ("kmc", "apply_detection", _detection_counts),
    ("tagio", "write_ptag", _file_bytes),
    ("tagio", "write_truth_csv", _file_bytes),
    ("tagio", "read_tags", lambda r, a, k: _tag_count(r)),
    ("correlator", "correlate", lambda r, a, k: {"pairs": int(r.bins.sum())}),
    ("correlator", "normalize_g2", None),
    ("correlator", "fit_antibunching", None),
    ("correlator", "pulsed_peak_ratio", None),
    ("interference", "simulate_hom", lambda r, a, k: {"pulses": int(r.n_pulses)}),
    ("interference", "hom_sweep", None),
    ("spectroscopy", "stark_scan", None),
    ("spectroscopy", "confocal_scan", None),
    ("spectroscopy", "fit_gaussian", None),
    ("spectroscopy", "excitation_spectrum", None),
    ("spectroscopy", "emission_spectrum", None),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter_ns()
    import zplsim.cli as cli
    import_ns = time.perf_counter_ns() - t0

    recorder = Recorder(args.workload, args.run_id)
    for module_name, name, counts in TRACED:
        module = sys.modules[f"zplsim.{module_name}"]
        traced = recorder.wrap(f"{module_name}.{name}", getattr(module, name), counts)
        setattr(module, name, traced)
        if hasattr(cli, name):
            setattr(cli, name, traced)

    code = cli.main(cli_args)
    recorder.dump(args.spans, import_s=import_ns * 1e-9, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
