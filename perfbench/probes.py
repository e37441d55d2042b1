"""Outside-in instrumentation of the `accept` package.

Nothing here edits the program.  Both classes below replace names on the
loaded `accept` modules and classes, at every place a caller looks them
up, and put the originals back on exit:

- `Probe` takes timestamps at the few boundaries the end-to-end metrics
  need (optimizer step, evaluate call, backbone forward, loss value).
  It is active in every run and costs a few microseconds per step.
- `Tracer` wraps the public functions of every layer and the backward
  closure of every op node, for the per-layer metrics.  It is active only
  in a traced run (`--trace 1`).
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# The tensor ops the per-layer split reports, plus the composition op that
# factorization builds through tensor.make_op.
TENSOR_OPS = (
    "matmul",
    "add",
    "scale",
    "gelu",
    "softmax",
    "layer_norm",
    "gather_rows",
    "concat_rows",
    "reshape",
    "transpose",
    "expand_leading",
    "masked_mean_rows",
    "softmax_cross_entropy",
)
OPS = TENSOR_OPS + ("compose",)


def accept_modules() -> list:
    """Every loaded module of the `accept` package."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "accept" or name.startswith("accept.")
    ]


class Patches:
    """Replacements of module and class attributes, undone in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, original, wrapper) -> None:
        """Replace `original` under every name any accept module binds it to.

        Modules that did ``from .x import f`` hold their own binding, so
        each one is rebound; a single setattr on the defining module
        would miss those callers.
        """
        for mod in accept_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Probe:
    """Boundary timestamps for the end-to-end metrics of one run.

    A step is closed by each `AdamW.step` return (``step_on="optim"``:
    loss forward, backward and update) or by each `BackboneModel.forward`
    return inside an `evaluate` call (``step_on="forward"``: one eval
    batch).  The first optimizer step of a unit is not timed, because its
    interval also holds the unit's own set-up (config resolution, model
    load, optimizer state).
    """

    def __init__(self, acc, step_on: str):
        self.acc = acc
        self.step_on = step_on
        self.step_ms: list[float] = []
        self.eval_s: list[float] = []
        self.optim_steps = 0
        self.eval_calls = 0
        self.unit_examples = 0
        self.unit_losses: list[float] = []
        # One entry per evaluate call of the current unit: (logits, ...)
        self.unit_eval_logits: list[list] = []
        self.last_step_end: float | None = None
        self._mark: float | None = None
        self._in_eval = 0
        self._patches = Patches()

    def begin_unit(self) -> None:
        self.unit_examples = 0
        self.unit_losses = []
        self.unit_eval_logits = []
        self._mark = None

    def _close_step(self) -> None:
        now = time.perf_counter()
        if self._mark is not None:
            self.step_ms.append((now - self._mark) * 1e3)
        self._mark = now
        self.last_step_end = now

    def __enter__(self) -> "Probe":
        acc = self.acc
        probe = self
        model_cls = acc.backbone.BackboneModel
        adamw_cls = acc.optim.AdamW
        orig_forward = model_cls.forward
        orig_step = adamw_cls.step
        orig_evaluate = acc.training.evaluate
        orig_xent = acc.tensor.softmax_cross_entropy

        def forward(self, assembled):
            out = orig_forward(self, assembled)
            vals = assembled.values
            probe.unit_examples += vals.shape[0] if vals.ndim == 3 else 1
            if probe._in_eval:
                probe.unit_eval_logits[-1].append(out.data)
                if probe.step_on == "forward":
                    probe._close_step()
            return out

        def step(self, grads, lr_for):
            orig_step(self, grads, lr_for)
            probe.optim_steps += 1
            if probe.step_on == "optim":
                probe._close_step()

        def evaluate(*args, **kwargs):
            probe.eval_calls += 1
            probe.unit_eval_logits.append([])
            probe._in_eval += 1
            t0 = time.perf_counter()
            if probe.step_on == "forward":
                probe._mark = t0
            try:
                return orig_evaluate(*args, **kwargs)
            finally:
                probe._in_eval -= 1
                end = time.perf_counter()
                probe.eval_s.append(end - t0)
                if probe.step_on == "optim" and probe._mark is not None:
                    probe._mark = end

        def softmax_cross_entropy(logits, labels):
            out = orig_xent(logits, labels)
            probe.unit_losses.append(float(out.data))
            return out

        self._patches.method(model_cls, "forward", forward)
        self._patches.method(adamw_cls, "step", step)
        self._patches.function(orig_evaluate, evaluate)
        self._patches.function(orig_xent, softmax_cross_entropy)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Per-layer busy time and work counts, gathered by wrapping from outside.

    Times are inclusive: a layer's time covers the layers it calls.  The
    exception is ``tensor.backward_self_ms``, which is `tensor.backward`
    minus the op closures it runs (the graph walk and the gradient sums).
    """

    def __init__(self, acc):
        self.acc = acc
        self.ms: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._in_eval = 0
        self._in_train = 0
        self._patches = Patches()

    # -- wrapper factories ----------------------------------------------------

    def _timed(self, original, key: str, scale: float = 1e3):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.ms[key] += (time.perf_counter() - t0) * scale

        return wrapper

    def _op(self, original, name: str):
        tracer = self

        def closure_timer(closure):
            def timed_closure(g):
                t0 = time.perf_counter()
                try:
                    return closure(g)
                finally:
                    tracer.ms[f"bwd.{name}"] += (time.perf_counter() - t0) * 1e3
                    tracer.count["nodes_used"] += 1

            return timed_closure

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            tracer.ms[f"fwd.{name}"] += (time.perf_counter() - t0) * 1e3
            tracer.count[f"calls.{name}"] += 1
            if out._backward is not None:
                out._backward = closure_timer(out._backward)
                tracer.count["nodes_built"] += 1
            if name == "compose" and tracer._in_eval:
                tracer.count["compose_in_eval"] += 1
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        acc = self.acc
        tracer = self
        p = self._patches
        for name in TENSOR_OPS:
            original = getattr(acc.tensor, name)
            p.function(original, self._op(original, name))
        p.function(acc.factorization.compose, self._op(acc.factorization.compose, "compose"))
        p.function(acc.tensor.backward, self._timed(acc.tensor.backward, "backward"))

        model_cls = acc.backbone.BackboneModel
        orig_forward = model_cls.forward
        p.method(model_cls, "embed_batch", self._timed(model_cls.embed_batch, "embed_batch"))
        p.method(model_cls, "assemble_input", self._timed(model_cls.assemble_input, "assemble_input"))

        def forward(self, assembled):
            t0 = time.perf_counter()
            out = orig_forward(self, assembled)
            tracer.ms["forward"] += (time.perf_counter() - t0) * 1e3
            mask = assembled.mask
            tracer.count["rows_real"] += int(mask.sum())
            tracer.count["rows_total"] += int(mask.size)
            return out

        p.method(model_cls, "forward", forward)

        adamw_cls = acc.optim.AdamW
        orig_step = adamw_cls.step

        def step(self, grads, lr_for):
            for ref in self.refs:
                g = grads.get(ref.get())
                if g is not None:
                    tracer.count["params_updated"] += int(g.size)
            tracer.count["optim_steps"] += 1
            t0 = time.perf_counter()
            orig_step(self, grads, lr_for)
            tracer.ms["optim_step"] += (time.perf_counter() - t0) * 1e3

        p.method(adamw_cls, "step", step)

        orig_evaluate = acc.training.evaluate
        orig_train = acc.training.train

        def evaluate(*args, **kwargs):
            tracer.count["eval_calls"] += 1
            tracer._in_eval += 1
            t0 = time.perf_counter()
            try:
                return orig_evaluate(*args, **kwargs)
            finally:
                tracer._in_eval -= 1
                dt = (time.perf_counter() - t0) * 1e3
                tracer.ms["evaluate"] += dt
                if tracer._in_train:
                    tracer.ms["evaluate_in_train"] += dt

        def train(*args, **kwargs):
            tracer._in_train += 1
            t0 = time.perf_counter()
            try:
                return orig_train(*args, **kwargs)
            finally:
                tracer._in_train -= 1
                tracer.ms["train"] += (time.perf_counter() - t0) * 1e3

        p.function(orig_evaluate, evaluate)
        p.function(orig_train, train)

        p.function(acc.tasks.gen_task, self._timed(acc.tasks.gen_task, "gen_task"))
        orig_write = acc.checkpoint.write_fragment
        orig_read = acc.checkpoint.read_fragment

        def write_fragment(dirpath, name, manifest, array):
            t0 = time.perf_counter()
            orig_write(dirpath, name, manifest, array)
            tracer.ms["save"] += (time.perf_counter() - t0) * 1e3
            tracer.count["bytes_written"] += int(array.nbytes)

        def read_fragment(dirpath, name, shape):
            t0 = time.perf_counter()
            manifest, arr = orig_read(dirpath, name, shape)
            tracer.ms["load"] += (time.perf_counter() - t0) * 1e3
            tracer.count["bytes_read"] += int(arr.nbytes)
            return manifest, arr

        p.function(orig_write, write_fragment)
        p.function(orig_read, read_fragment)
        p.function(
            acc.experiments.resolve_experiment,
            self._timed(acc.experiments.resolve_experiment, "resolve_experiment"),
        )
        p.function(
            acc.experiments.run_experiment,
            self._timed(acc.experiments.run_experiment, "run_experiment", scale=1.0),
        )
        p.function(acc.cli.main, self._timed(acc.cli.main, "cli_main", scale=1.0))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # -- report -----------------------------------------------------------------

    def metrics(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Times and work counts are per work unit (totals divided by
        `units`); ratios are over the whole traced run.  A layer the
        workload never reaches reads 0.
        """
        ms, count = self.ms, self.count
        per = 1.0 / units

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in OPS:
            out[f"tensor.fwd_ms.{name}"] = (ms[f"fwd.{name}"] * per, "ms")
            out[f"tensor.bwd_ms.{name}"] = (ms[f"bwd.{name}"] * per, "ms")
            out[f"tensor.calls.{name}"] = (count[f"calls.{name}"] * per, "count")
        closures = sum(ms[f"bwd.{name}"] for name in OPS)
        out["tensor.backward_self_ms"] = (max(ms["backward"] - closures, 0.0) * per, "ms")
        out["tensor.grad_nodes_used_ratio"] = (
            ratio(count["nodes_used"], count["nodes_built"]),
            "ratio",
        )
        out["backbone.forward_ms"] = (ms["forward"] * per, "ms")
        out["backbone.embed_batch_ms"] = (ms["embed_batch"] * per, "ms")
        out["backbone.assemble_input_ms"] = (ms["assemble_input"] * per, "ms")
        out["backbone.real_row_ratio"] = (ratio(count["rows_real"], count["rows_total"]), "ratio")
        out["factorization.compose_ms"] = ((ms["fwd.compose"] + ms["bwd.compose"]) * per, "ms")
        out["factorization.compose_calls_per_eval"] = (
            ratio(count["compose_in_eval"], count["eval_calls"]),
            "count",
        )
        out["optim.step_ms"] = (ms["optim_step"] * per, "ms")
        out["optim.params_updated"] = (
            ratio(count["params_updated"], count["optim_steps"]),
            "count",
        )
        out["training.evaluate_ms"] = (ms["evaluate"] * per, "ms")
        out["training.evaluate_share_of_train"] = (
            ratio(ms["evaluate_in_train"], ms["train"]),
            "ratio",
        )
        out["tasks.gen_task_ms"] = (ms["gen_task"] * per, "ms")
        out["checkpoint.save_ms"] = (ms["save"] * per, "ms")
        out["checkpoint.load_ms"] = (ms["load"] * per, "ms")
        out["checkpoint.bytes_written"] = (count["bytes_written"] * per, "bytes")
        out["checkpoint.bytes_read"] = (count["bytes_read"] * per, "bytes")
        out["experiments.resolve_experiment_ms"] = (ms["resolve_experiment"] * per, "ms")
        out["experiments.run_experiment_s"] = (ms["run_experiment"] * per, "s")
        out["cli.main_s"] = (ms["cli_main"] * per, "s")
        return out
