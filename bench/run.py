"""Benchmark of `kinetic-flow run`: four workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src``.  Each operation is one experiment run in a fresh process with
KF_WORKERS set to the number of usable CPUs.  Operations repeat for about
S seconds (at least one); every output is checked, and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports wall_s, setup_s and peak_rss_mb as
medians over the run.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of the traced ones, their
median, plus the tracing overhead.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_outputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = "bench-out"
TRACE_DIR = "bench-trace"
OPERATION_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 5

# Every workload is d = 1 on the plain hoelder-drift field; the seed is the
# only input that changes between runs, so the work per operation does not.
WORKLOADS = {
    # converge on a dyadic mollification ladder: the mollified drift
    # (144 base-drift evaluations per state) does nearly all the work
    "rough-ladder": {"experiment": "converge", "T": 1.0, "dt": 1 / 64, "N": 128,
                     "p": 12.0, "n_ladder": "4,8,16,32"},
    # zvonkin on the fixed 128^2 x 128 resolvent grid; lambda = 1 is tried
    # and rejected before lambda* = 2; N paths for the residual along paths
    "resolvent": {"experiment": "zvonkin", "T": 1.0, "dt": 1 / 128, "N": 32768,
                  "lambda": 1.0},
    # fokker-planck with many atoms: full path store, 12-member weak
    # residual and the atoms.csv writer dominate; at this N, arrays of the
    # full path are about 3/4 of peak RSS
    "particles": {"experiment": "fokker-planck", "T": 1.0, "dt": 1 / 64,
                  "N": 50000},
    # flow: four coupled two-point estimates through parallel_map; Philox
    # noise is redrawn for every start
    "coupled-flow": {"experiment": "flow", "T": 1.0, "dt": 1 / 128, "N": 16384},
}

_KEYS = ("T", "dt", "N", "p", "lambda", "n_ladder")


def config_text(spec, seed, output):
    lines = [f"experiment = {spec['experiment']}", f"seed = {seed}"]
    lines += [f"{key} = {spec[key]}" for key in _KEYS if key in spec]
    lines += ["field.name = hoelder-drift", f"output = {output}"]
    return "\n".join(lines) + "\n"


def worker_env(workers):
    env = dict(os.environ)
    env["KF_WORKERS"] = str(workers)
    env.pop("PYTHONPATH", None)
    return env


class Operations:
    """Fresh-process experiment runs of one workload and their results."""

    def __init__(self, name, seed):
        self.spec = dict(WORKLOADS[name], seed=seed, d=1)
        self.name, self.seed = name, seed
        self.out = os.path.join(OUT_DIR, name)
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.workers = min(len(os.sched_getaffinity(0)), 64)
        self.results = []          # (result dict, traced, output dir)
        self.setup_samples = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _spawn(self, tag, extra, workers=None):
        out = os.path.join(self.out, tag)
        cfg_path, res_path = out + ".cfg", out + ".json"
        text = config_text(self.spec, self.seed, out)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--config", cfg_path, "--result", res_path] + extra
        proc = subprocess.run(cmd, env=worker_env(workers or self.workers),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=OPERATION_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{tag}: worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        with open(res_path, encoding="utf-8") as fh:
            return json.load(fh), out, text

    def setup_probe(self):
        result, _, _ = self._spawn("setup", ["--setup-only"])
        return result["import_s"] + result["parse_s"]

    def operation(self, traced, workers=None, tag=None):
        """One experiment run; returns its wall-clock cost in seconds."""
        tag = tag or f"op{len(self.results)}"
        extra = []
        if traced:
            os.makedirs(TRACE_DIR, exist_ok=True)
            extra = ["--trace", os.path.join(TRACE_DIR, f"{self.name}-seed{self.seed}-{tag}.jsonl")]
        start = time.perf_counter()
        self.attempted += 1
        try:
            result, out, text = self._spawn(tag, extra, workers)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.failed += 1
            print(f"operation failed: {exc}", file=sys.stderr)
            return time.perf_counter() - start
        self.setup_samples.append(result["import_s"] + result["parse_s"])
        if not self.results:
            self.errors += check_outputs(out, self.spec, text, result["outputs"])
        else:
            self.errors += self.compare_outputs(self.results[0][2], out, result["outputs"])
        self.results.append((result, traced, out))
        return time.perf_counter() - start

    def compare_outputs(self, first, other, outputs):
        """Every CSV of a repeated operation must match the first byte for byte."""
        errors = []
        for name in outputs:
            if name.endswith(".csv"):
                with open(os.path.join(first, name), "rb") as a, \
                        open(os.path.join(other, name), "rb") as b:
                    if a.read() != b.read():
                        errors.append(f"{other}/{name} differs from {first}/{name}")
        return errors

    def measured(self, key, traced):
        return [r[key] for r, t, _ in self.results if t == traced]


def run(name, seed, seconds, trace):
    ops = Operations(name, seed)
    ops.setup_probe()              # warm the file cache and bytecode; not counted
    start = time.perf_counter()
    costs = []
    while not costs or time.perf_counter() - start + statistics.median(costs) <= seconds:
        cost = ops.operation(traced=False)
        if trace:
            cost += ops.operation(traced=True)
        costs.append(cost)
        if ops.failed:
            break
    while len(ops.setup_samples) < MIN_SETUP_SAMPLES and not ops.failed:
        ops.setup_samples.append(ops.setup_probe())
    if WORKLOADS[name]["experiment"] == "flow" and not ops.failed:
        # one untimed serial run: flow.csv must not depend on KF_WORKERS
        timed = len(ops.results)
        ops.operation(traced=False, workers=1, tag="serial")
        del ops.results[timed:]

    metrics = {}
    if not ops.failed:
        walls = ops.measured("wall_s", False)
        if trace:
            layers = {key: statistics.median(r["layers"][key] for r, t, _ in ops.results if t)
                      for key in ops.results[1][0]["layers"]}
            layers["runner.output_bytes"] = statistics.median(ops.measured("output_bytes", True))
            layers["process.cpu_util"] = statistics.median(
                r["cpu_s"] / r["wall_s"] for r, t, _ in ops.results if not t)
            layers["setup.import_s"] = statistics.median(
                r["import_s"] for r, _, _ in ops.results)
            layers["setup.parse_s"] = statistics.median(
                r["parse_s"] for r, _, _ in ops.results)
            layers["trace.overhead_s"] = (statistics.median(ops.measured("wall_s", True))
                                          - statistics.median(walls))
            units = per_layer_units()
            metrics = {key: {"value": layers[key], "unit": unit} for key, unit in units.items()}
        else:
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(ops.setup_samples), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(ops.measured("peak_rss_mb", False)),
                                "unit": "MB"},
            }
    for message in ops.errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not ops.errors, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def per_layer_units():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2^32)")
    if not os.path.isfile(os.path.join("src", "kinetic_flow", "runner.py")):
        print("error: run from the root of a kinetic_flow checkout "
              "(src/kinetic_flow not found)", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
