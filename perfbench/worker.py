"""One training mode of one workload, in a process of its own.

``run.py`` starts this file once per mode, one process at a time, so that
each mode's peak RSS is its own. The argument is a JSON object with the
keys ``workload``, ``tiny``, ``mode``, ``train_s``, ``eval_s``, ``trace``
and ``out_dir`` (which holds the run's corpus); the result is written to
``<out_dir>/<mode>.json``.

Untraced (``trace`` 0): train ``fixed_steps`` steps, read the validation
perplexity, then run timed chunks of training (and, in the baseline
process, of ``evaluate``) as run.py asks for them; see ``run_timed``.
Checks run after the peak RSS is read.

Traced (``trace`` 1): train ``trace_after_steps`` steps, copy the state,
time steps untraced for ``train_s / 3`` seconds, then replay the same steps from
the copies with span tracing and, for a few steps, with tracemalloc. The
per-step losses of all three passes must be bit-identical.
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from l2t_hyena import checkpoint, corpus, dln, hyena, teacher, trainer  # noqa: E402
from l2t_hyena.config import resolve_config  # noqa: E402

TRACED_MODULES = (hyena, dln, teacher, trainer, corpus, checkpoint)
MEMORY_STEPS = 3
# Validation batches whose CE is recomputed in float64 (a prefix of the set).
CE_CHECK_BATCHES = 2
# Steps after the timed region whose loss is recomputed in float64.
CHECKED_STEPS = 2


def corpus_paths(out_dir: str) -> tuple[str, str]:
    return os.path.join(out_dir, "train.txt"), os.path.join(out_dir, "valid.txt")


def setup(w: workloads.Workload, mode: str, out_dir: str):
    """Everything before the first step: read, vocab, encode, batch, init.

    The model's initial weights come from the fixed ``MODEL_SEED``; only the
    training text varies with ``--seed``.
    """
    train_path, valid_path = corpus_paths(out_dir)
    cfg = resolve_config(None, dict(
        w.config, mode=mode, seed=workloads.MODEL_SEED, train_path=train_path,
        valid_path=valid_path, out_dir=out_dir,
    ))
    train_lines = corpus.read_lines(train_path)
    valid_lines = corpus.read_lines(valid_path)
    vocab = corpus.build_vocab(train_lines, cfg.max_vocab)
    batches = corpus.make_batches(corpus.encode(train_lines, vocab),
                                  cfg.batch_size, cfg.seq_len)
    val_batches = corpus.make_batches(corpus.encode(valid_lines, vocab),
                                      cfg.batch_size, cfg.seq_len)
    state = trainer.init_train_state(cfg, len(vocab), len(batches))
    return state, batches, val_batches


class Runner:
    def __init__(self, spec: dict):
        self.spec = spec
        self.w = workloads.get(spec["workload"], spec["tiny"])
        self.l2t = spec["mode"] == "l2t"
        self.checks = ref.Checks()
        self.attempted = 0
        self.spans: list[dict] = []
        self.per_layer: dict[str, float] = {}

    def step(self, state, batches) -> tuple[dict, float]:
        batch = batches[state.step % len(batches)]
        t0 = time.perf_counter()
        m = trainer.train_step(state, batch)
        dt = time.perf_counter() - t0
        self.attempted += 1
        if self.l2t:
            self.checks.expect(
                0.0 < m["lambda"] < 1.0 and m["teacher_active"],
                f"l2t step {m['step']}: lambda {m['lambda']} or teacher inactive",
            )
        else:
            self.checks.expect(m["lambda"] == 0.0 and not m["teacher_active"],
                               f"baseline step {m['step']}: lambda {m['lambda']}")
        return m, dt

    def evaluate(self, state, val_batches) -> tuple[float, float, float]:
        t0 = time.perf_counter()
        val_loss, val_ppl = trainer.evaluate(state.student, state.model_cfg, val_batches)
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.checks.expect(val_ppl == math.exp(val_loss),
                           f"val_ppl {val_ppl} != exp(val_loss {val_loss})")
        return val_loss, val_ppl, dt

    def traced(self, label: str, memory: bool, fn):
        tracer = tracing.Tracer(memory=memory)
        tracer.install(TRACED_MODULES)
        try:
            result = fn(tracer)
        finally:
            tracer.uninstall()
        self.spans.extend(dict(s, **{"pass": label}) for s in tracer.spans)
        return result, tracer.spans

    # -- untraced ---------------------------------------------------------

    def run_timed(self, state, batches, val_batches) -> dict:
        """Fixed steps and val_ppl, then timed chunks on command, then peak RSS.

        Commands arrive one per line on stdin from run.py: ``train <s>`` and
        ``eval <s>`` run steps or one-batch evaluate calls until ``s``
        seconds have passed, ``finish`` ends the loop. Each is answered with
        ``done`` on stdout. run.py alternates chunks of the two modes, so
        each metric samples the whole run rather than one stretch of it.
        Every timed call is followed by the workload's ``kernel_runs`` runs
        of the reference kernel (``calibrate.py``), which count toward the
        chunk's seconds.
        """
        w = self.w
        kernel = calibrate.Kernel()
        runs = w.kernel_runs
        step_s, step_k, eval_s, eval_k = [], [], [], []
        while state.step < w.fixed_steps:
            warm = state.step < w.warmup_steps
            _, dt = self.step(state, batches)
            if not warm:
                step_s.append(dt)
                step_k.append(kernel(runs))
        val_loss, val_ppl, _ = self.evaluate(state, val_batches)
        print(f"ready {sum(step_s) + sum(step_k)}", flush=True)
        for line in sys.stdin:
            cmd, *arg = line.split()
            if cmd == "finish":
                break
            budget = float(arg[0])
            spent = 0.0
            while True:
                if cmd == "train":
                    dt = self.step(state, batches)[1]
                    step_s.append(dt)
                    step_k.append(kernel(runs))
                    spent += dt + step_k[-1]
                else:
                    batch = val_batches[len(eval_s) % len(val_batches)]
                    dt = self.evaluate(state, [batch])[2]
                    eval_s.append(dt)
                    eval_k.append(kernel(runs))
                    spent += dt + eval_k[-1]
                if spent >= budget:
                    break
            print("done", flush=True)
        # Medians, not means: the machine has slow spells of a few seconds.
        out = {
            "train_tok_s": batches[0].inputs.size / calibrate.at_reference(step_s, step_k),
            "raw_train_tok_s": batches[0].inputs.size / statistics.median(step_s),
            "step_s": step_s,
            "step_kernel_s": step_k,
            "val_loss": val_loss,
            "val_ppl": val_ppl,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if eval_s:
            tokens = val_batches[0].targets.size
            out["eval_tok_s"] = tokens / calibrate.at_reference(eval_s, eval_k)
            out["raw_eval_tok_s"] = tokens / statistics.median(eval_s)
            out["eval_s"] = eval_s
            out["eval_kernel_s"] = eval_k
        return out

    # -- traced -----------------------------------------------------------

    def run_traced(self, state, batches, val_batches) -> None:
        while state.step < self.w.trace_after_steps:
            self.step(state, batches)
        copies = copy.deepcopy(state), copy.deepcopy(state)
        losses, untraced_s = [], 0.0
        while untraced_s < self.spec["train_s"] / 3 or len(losses) < MEMORY_STEPS:
            m, dt = self.step(state, batches)
            losses.append(m["loss"])
            untraced_s += dt

        def replay(tracer, which, count):
            st, out, total = copies[which], [], 0.0
            for _ in range(count):
                tracer.step = st.step
                m, dt = self.step(st, batches)
                out.append(m["loss"])
                total += dt
            return out, total

        self.compare_traced(self.spec["mode"], replay, losses, untraced_s, 1, MEMORY_STEPS)
        if self.l2t:
            self.per_layer["l2t.teacher.buffer_len"] = float(len(copies[0].buffer))
        else:
            self.trace_eval(state, val_batches)

    def trace_eval(self, state, val_batches) -> None:
        losses, untraced_s = [], 0.0
        while untraced_s < self.spec["eval_s"] / 3 or not losses:
            val_loss, _, dt = self.evaluate(state, val_batches)
            losses.append(val_loss)
            untraced_s += dt
        self.checks.expect(len(set(losses)) == 1, "repeated evaluate differs")

        def replay(tracer, which, count):
            out, total = [], 0.0
            for i in range(count):
                tracer.step = i
                val_loss, _, dt = self.evaluate(state, val_batches)
                out.append(val_loss)
                total += dt
            return out, total

        self.compare_traced("eval", replay, losses, untraced_s, len(val_batches), 1)

    def compare_traced(self, phase: str, replay, reference: list, untraced_s: float,
                       per_call: int, memory_calls: int) -> None:
        """Replay the untraced calls with spans, then the first few with tracemalloc.

        ``replay(tracer, which, count)`` repeats the first ``count`` calls
        (``which`` 0 for the span pass, 1 for the tracemalloc pass) and
        returns their results, which must equal ``reference`` bit for bit,
        and their seconds. Figures are per step, or per batch when one call
        covers ``per_call`` batches.
        """
        n = len(reference)
        (values, traced_s), spans = self.traced(
            f"{phase}-time", False, lambda tracer: replay(tracer, 0, n))
        (mem_values, _), mem_spans = self.traced(
            f"{phase}-memory", True, lambda tracer: replay(tracer, 1, memory_calls))
        self.checks.expect(values == reference and mem_values == reference[:memory_calls],
                           f"{phase}: traced results differ from untraced")
        self.per_layer.update(tracing.summarize(spans, n * per_call, phase))
        self.per_layer.update(
            (k, v) for k, v in tracing.summarize(mem_spans, memory_calls * per_call, phase).items()
            if k.endswith("_peak_alloc_mb"))
        self.per_layer[f"{phase}.trace_overhead_ms"] = (
            1e3 * (traced_s - untraced_s) / (n * per_call))

    # -- checks -----------------------------------------------------------

    def check_val_ce(self, state, val_batches) -> None:
        val_batches = val_batches[:CE_CHECK_BATCHES]
        val_loss, _, _ = self.evaluate(state, val_batches)
        total, count = 0.0, 0
        for b in val_batches:
            logits = hyena.forward(b.inputs, state.student, state.model_cfg)
            ce, _ = ref.ce_and_l2_f64(logits, b.targets)
            total += ce * b.targets.size
            count += b.targets.size
        self.checks.expect(abs(total / count - val_loss) <= ref.CE_ABS_TOL,
                           f"val CE f64 {total / count} vs evaluate {val_loss}")

    def check_steps(self, state, batches) -> None:
        beta = state.run_cfg.beta
        for _ in range(CHECKED_STEPS):
            pre = {k: v.astype(np.float64) for k, v in state.student.items()}
            batch = batches[state.step % len(batches)]
            m, _ = self.step(state, batches)
            logits = hyena.forward(batch.inputs, pre, state.model_cfg)
            ce, l2 = ref.ce_and_l2_f64(logits, batch.targets)
            expected = ce + m["lambda"] * beta * l2
            self.checks.expect(abs(m["ce"] - ce) <= ref.CE_ABS_TOL,
                               f"step {m['step']}: ce {m['ce']} vs f64 {ce}")
            self.checks.expect(abs(m["l2"] - l2) <= ref.REL_TOL * l2,
                               f"step {m['step']}: l2 {m['l2']} vs f64 {l2}")
            self.checks.expect(
                abs(m["loss"] - expected) <= ref.CE_ABS_TOL + ref.REL_TOL * abs(expected),
                f"step {m['step']}: loss {m['loss']} vs ce + lambda*beta*l2 {expected}",
            )

    def check_archive(self, state) -> None:
        path = os.path.join(self.spec["out_dir"], "roundtrip.l2th")
        arrays = trainer.archive_arrays(state)

        def round_trip(tracer):
            checkpoint.save_archive(arrays, path)
            return checkpoint.load_archive(path)

        if self.spec["trace"]:
            loaded, spans = self.traced("archive", False, round_trip)
            self.per_layer.update(tracing.summarize(spans, 1, "archive"))
            self.per_layer["archive.checkpoint.archive_mb"] = os.path.getsize(path) / 2**20
        else:
            loaded = round_trip(None)
        self.attempted += 1
        same = loaded.keys() == arrays.keys() and all(
            loaded[k].dtype == np.dtype("<f4")
            and np.array_equal(loaded[k], np.asarray(arrays[k], dtype="<f4"))
            and loaded[k].shape == np.shape(arrays[k])
            for k in arrays
        )
        self.checks.expect(same, "checkpoint round trip is not bit-equal")

    def run(self) -> dict:
        spec = self.spec
        if spec["trace"] and self.l2t:
            (state, batches, val_batches), spans = self.traced(
                "setup", False,
                lambda tracer: setup(self.w, spec["mode"], spec["out_dir"]),
            )
            self.per_layer.update(tracing.summarize(spans, 1, "setup"))
        else:
            state, batches, val_batches = setup(self.w, spec["mode"], spec["out_dir"])
        out = {}
        if spec["trace"]:
            self.run_traced(state, batches, val_batches)
        else:
            out = self.run_timed(state, batches, val_batches)
        self.check_val_ce(state, val_batches)
        self.check_steps(state, batches)
        if self.l2t:
            self.check_archive(state)
        out.update(
            attempted=self.attempted,
            failures=self.checks.failures,
            per_layer=self.per_layer,
            vocab_size=state.model_cfg.vocab_size,
            val_tokens=sum(b.targets.size for b in val_batches),
        )
        return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    runner = Runner(spec)
    result = runner.run()
    out_dir = spec["out_dir"]
    if runner.spans:
        with open(os.path.join(out_dir, f"spans-{spec['mode']}.jsonl"), "w") as fh:
            for span in runner.spans:
                fh.write(json.dumps(span) + "\n")
    with open(os.path.join(out_dir, f"{spec['mode']}.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
