"""Trainer benchmark: end-to-end and per-layer figures for both training modes.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-shape --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --self-test                   # tiny sizes, seconds

One run of a workload writes its corpus from ``--seed``, checks the FFT
convolution against a direct sum, times the set-up several times, then runs
``l2t`` and ``baseline`` training in two processes, one after the other
(see ``worker.py``). ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced variant and prints its
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Run files (corpus,
results, spans) go to ``perfbench/out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

# One BLAS thread, here and in the workers that inherit this environment. On
# two shared vCPUs a second OpenBLAS thread makes a step's time hang on the
# load of the other vCPU (a busy process there doubled the step time of
# smoke-learn) and gains nothing at smoke-learn size; see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# A fixed string-hash seed for the workers. With a random one, the heap of the
# baseline process settled in one of two states from run to run, and
# evaluate on long-ctx ran 9 % faster in one than in the other (its peak RSS
# moved by 4 MB with it).
os.environ["PYTHONHASHSEED"] = "0"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
MODES = ("l2t", "baseline")
# Shares of --seconds for each mode's timed training and for evaluate.
TRAIN_SHARE = {"l2t": 0.4, "baseline": 0.35}
EVAL_SHARE = 0.25
# Timed chunks per mode after the fixed steps; set-up is timed once per round
# and once before, so its median also spans the run.
ROUNDS = 4
# Reference-kernel runs after each set-up timing; their mean scales it.
SETUP_KERNEL_RUNS = 3
# A run must end within 180 s; children get what is left of this.
RUN_DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def conv_check(w, seed: int, found: checks.Checks) -> None:
    """hyena.fft_causal_conv against a direct O(L^2) sum at the workload's L."""
    from l2t_hyena import hyena

    L = w.config["seq_len"]
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((2, L, 4)).astype(np.float32)
    decay = np.exp(-3.0 * np.arange(L) / L)[:, None]
    h = (rng.standard_normal((L, 4)) * decay).astype(np.float32)
    err = checks.rel_err(hyena.fft_causal_conv(u, h), checks.direct_causal_conv(u, h))
    found.expect(err <= checks.CONV_REL_TOL, f"fft_causal_conv rel err {err:.2e} at L={L}")


def drive_timed_workers(spec, seconds: float, between, deadline: float) -> None:
    """Start both mode processes, then alternate timed chunks between them.

    Each process trains its fixed steps alone and reports the seconds of
    those it timed; the rest of each share is split over ROUNDS rounds of
    l2t training, baseline training and baseline evaluate. Only one process
    computes at a time: the other waits for its next command. ``between``
    runs after each round.
    """
    procs = {}
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0),
                               lambda: [p.kill() for p in procs.values()])
    watchdog.start()

    def reply(mode: str) -> str:
        line = procs[mode].stdout.readline()
        if not line:
            raise RuntimeError(f"{mode} worker ended early (exit {procs[mode].wait()})")
        return line

    def ask(mode: str, cmd: str, budget: float) -> None:
        procs[mode].stdin.write(f"{cmd} {budget}\n")
        procs[mode].stdin.flush()
        reply(mode)

    try:
        left = {}
        for mode in MODES:
            procs[mode] = subprocess.Popen([sys.executable, WORKER, spec(mode)],
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                           text=True)
            left[mode] = max(TRAIN_SHARE[mode] * seconds - float(reply(mode).split()[1]), 0.0)
        for _ in range(ROUNDS):
            for mode in MODES:
                ask(mode, "train", left[mode] / ROUNDS)
            ask("baseline", "eval", EVAL_SHARE * seconds / ROUNDS)
            between()
        for mode in MODES:
            procs[mode].stdin.write("finish\n")
            procs[mode].stdin.close()
            if procs[mode].wait() != 0:
                raise RuntimeError(f"{mode} worker failed")
    finally:
        watchdog.cancel()
        for p in procs.values():
            if p.poll() is None:
                p.kill()
            p.wait()


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool,
                 deadline: float) -> dict:
    import worker  # imports the program, so only after main() found it

    w = workloads.get(name, tiny)
    run_name = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    out_dir = os.path.join(HERE, "out", run_name)
    os.makedirs(out_dir, exist_ok=True)
    workloads.write_corpus(w, seed, *worker.corpus_paths(out_dir))
    found = checks.Checks()
    conv_check(w, seed, found)
    attempted = 1

    setup_times, setup_kernel = [], []
    kernel = calibrate.Kernel()

    def time_setup():
        t0 = time.perf_counter()
        worker.setup(w, "l2t", out_dir)
        setup_times.append(time.perf_counter() - t0)
        setup_kernel.append(kernel(SETUP_KERNEL_RUNS))

    def spec(mode: str) -> str:
        return json.dumps(dict(workload=name, tiny=tiny, mode=mode,
                               train_s=TRAIN_SHARE[mode] * seconds,
                               eval_s=EVAL_SHARE * seconds, trace=trace, out_dir=out_dir))

    for mode in MODES:
        path = os.path.join(out_dir, f"{mode}.json")
        if os.path.exists(path):
            os.remove(path)
    if trace:
        for mode in MODES:
            subprocess.run([sys.executable, WORKER, spec(mode)], check=True,
                           timeout=max(deadline - time.monotonic(), 1.0))
    else:
        time_setup()
        drive_timed_workers(spec, seconds, time_setup, deadline)
    attempted += len(setup_times)

    results = {}
    for mode in MODES:
        with open(os.path.join(out_dir, f"{mode}.json"), encoding="utf-8") as fh:
            results[mode] = json.load(fh)
        attempted += results[mode]["attempted"]
        found.failures += results[mode]["failures"]

    l2t, base = results["l2t"], results["baseline"]
    if trace:
        metrics = {**l2t["per_layer"], **base["per_layer"]}
    else:
        metrics = {
            "l2t_train_tok_s": l2t["train_tok_s"],
            "baseline_train_tok_s": base["train_tok_s"],
            "eval_tok_s": base["eval_tok_s"],
            "l2t_peak_rss_mb": l2t["peak_rss_mb"],
            "baseline_peak_rss_mb": base["peak_rss_mb"],
            "setup_s": calibrate.at_reference(setup_times, setup_kernel),
            "l2t_val_ppl": l2t["val_ppl"],
            "baseline_val_ppl": base["val_ppl"],
        }
        raw = {
            "l2t_train_tok_s": l2t["raw_train_tok_s"],
            "baseline_train_tok_s": base["raw_train_tok_s"],
            "eval_tok_s": base["raw_eval_tok_s"],
            "setup_s": statistics.median(setup_times),
            "kernel_ms": 1e3 * statistics.median(
                l2t["step_kernel_s"] + base["step_kernel_s"] + base["eval_kernel_s"]),
        }
        ppl_check(w, l2t, base, found)
        with open(os.path.join(out_dir, "setup.json"), "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_times, "setup_kernel_s": setup_kernel}, fh)
    return {"failures": found.failures, "attempted": attempted, "metrics": metrics,
            "raw": {} if trace else raw}


def ppl_check(w, l2t: dict, base: dict, found: checks.Checks) -> None:
    """Both modes' val_ppl must lie between the language's entropy bound and a ceiling."""
    bounds = workloads.language_bounds(w)
    for mode, r in (("l2t", l2t), ("baseline", base)):
        ppl = r["val_ppl"]
        # Five standard errors of the true model's mean log-loss on a valid
        # set of this size: the sampling tolerance of the entropy bound.
        floor = bounds["entropy_ppl"] * math.exp(
            -5.0 * bounds["logloss_sd"] / math.sqrt(r["val_tokens"]))
        ceiling = bounds["unigram_ppl"] if w.ppl_ceiling == "unigram" else r["vocab_size"]
        found.expect(floor <= ppl < ceiling,
                     f"{mode} val_ppl {ppl:.3f} outside [{floor:.3f}, {ceiling:.3f})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny sizes: every code path and check in seconds")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "l2t_hyena")):
        print(f"perfbench: no program source at {SRC}/l2t_hyena", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.self_test else spec["run_seconds"])
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    failures, attempted, metrics = [], 0, {}
    for name in names:
        r = run_workload(name, args.seed, seconds, args.trace, args.self_test, deadline)
        attempted += r["attempted"]
        for m in wanted:
            key = m["name"] if len(names) == 1 else f"{name}/{m['name']}"
            value = r["metrics"].get(m["name"])
            if value is None:
                r["failures"].append(f"metric {m['name']} was not measured")
                continue
            metrics[key] = {"value": value, "unit": m["unit"]}
            print(f"{key:60s} {value:14.6g} {m['unit']}")
        for metric, value in r["raw"].items():
            print(f"{'raw ' + name + '/' + metric:60s} {value:14.6g}")
        failures += [f"{name}: {f}" for f in r["failures"]]
    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": 0, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
