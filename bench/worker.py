"""One benchmark operation: a fresh process runs one `kinetic-flow run` config.

    python3 bench/worker.py --config CFG --result OUT.json [--trace SPANS.jsonl]
    python3 bench/worker.py --config CFG --result OUT.json --setup-only

The package is imported from ``src`` of the working directory.  Set-up
(package import plus config parse) and the ``run_experiment`` call are
timed apart; with ``--trace`` the layer wrappers are installed after
set-up, so set-up is measured the same way in traced and untraced runs.
The result file holds the timings, the process's peak RSS and CPU time,
and, when traced, the per-layer summary.
"""

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", help="write spans here and report layers")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import kinetic_flow.config
    import kinetic_flow.runner
    imported = time.perf_counter()
    if not os.path.abspath(kinetic_flow.__file__).startswith(src + os.sep):
        raise SystemExit(f"kinetic_flow was imported from {kinetic_flow.__file__}, "
                         f"not from {src}")
    with open(args.config, encoding="utf-8") as fh:
        cfg = kinetic_flow.config.parse_config_text(fh.read())
    parsed = time.perf_counter()
    result = {"import_s": imported - start, "parse_s": parsed - imported}

    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        cpu_start = os.times()
        run_start = time.perf_counter()
        outputs = kinetic_flow.runner.run_experiment(cfg)
        wall = time.perf_counter() - run_start
        cpu_end = os.times()
        cpu = (cpu_end.user - cpu_start.user) + (cpu_end.system - cpu_start.system)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "outputs": outputs,
            "output_bytes": sum(os.path.getsize(os.path.join(cfg.output, name))
                                for name in outputs),
        })
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write_spans(args.trace)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
