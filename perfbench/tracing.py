"""Span tracing of ragvqa's public functions, installed from outside the package.

Every listed function is replaced by a recording wrapper at each module
binding that holds it. Modules import by name, so ``ragtrain.retrieve``,
``ragtrain.cosine``, ``model.tokenize`` and the like are separate bindings of
one function object and all of them are swapped. A function that no longer
exists is reported as absent instead of failing the run.

Spans (name, start, end, parent, step) live in flat in-memory arrays and are
written out once, by ``Tracer.write``. Times come from ``CLOCK``, which every
other figure of the benchmark uses too.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "ragvqa"
CLOCK = time.process_time  # the one clock of the whole benchmark

# module -> public functions the traced run wraps
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus": ("generate_synthetic",),
    "primitives": ("tokenize", "pos_tag", "extract_linguistic", "extract_visual"),
    "model": (
        "encode_question", "encode_image", "loss_and_grads", "optimizer_step",
        "predict_answer", "corpus_accuracy",
    ),
    "primdb": ("build_dq", "build_dv", "encode_index", "retrieve", "cosine"),
    "ragtrain": ("train", "augment_sample", "aggregate"),
    "benchmark": (
        "train_signature", "compositions_of", "filter_candidates", "build_splits",
        "verify_splits",
    ),
    "evaluation": ("evaluate",),
}

# A training step ends when its optimizer update returns; spans opened inside
# ``ragtrain.train`` share the id of the step they belong to. The per-epoch
# index refresh runs before the epoch's first step and shares that step's id.
STEP_SCOPE = "ragtrain.train"
STEP_END = "model.optimizer_step"


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _param_bytes(params) -> int:
    return sum(a.nbytes for a in params.arrays())


# span name -> counters taken from the call's arguments and result
COUNTERS = {
    "model.optimizer_step": lambda a, kw, r: {
        # parameters read + gradients read + new parameters written
        "bytes_computed": _param_bytes(_arg(a, kw, 0, "params"))
        + _param_bytes(_arg(a, kw, 1, "grads"))
        + _param_bytes(r[0]),
    },
    "primdb.encode_index": lambda a, kw, r: {"rows": r.size},
    "primdb.retrieve": lambda a, kw, r: {
        "rows_scanned": _arg(a, kw, 1, "index").size,
        "returned": len(r),
        "requested": _arg(a, kw, 2, "k"),
    },
    "ragtrain.augment_sample": lambda a, kw, r: {"retrieval_rounds": r.retrieval_rounds},
    "benchmark.filter_candidates": lambda a, kw, r: {
        "admitted": len(r[0]),
        "offered": len(_arg(a, kw, 0, "val_corpus").samples),
    },
    "benchmark.verify_splits": lambda a, kw, r: {"checked": r.checked},
    "evaluation.evaluate": lambda a, kw, r: {"samples": r.n_evaluated},
}


class Tracer:
    """Records one span per call of each wrapped function while active."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.step = array("q")
        self.name = array("l")
        self.counters: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._open: list[int] = []
        self._step = 0
        self._train_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap every listed function for its wrapper at all ragvqa bindings."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module_name, functions in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for function_name in functions:
                span_name = f"{module_name}.{function_name}"
                original = getattr(home, function_name, None)
                if not callable(original):
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        counter = COUNTERS.get(span_name)
        scope = span_name == STEP_SCOPE
        step_end = span_name == STEP_END
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.step.append(tracer._step if tracer._train_depth else -1)
            tracer.end.append(0.0)
            tracer._open.append(index)
            if scope:
                tracer._train_depth += 1
            tracer.start.append(CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = CLOCK()
                tracer._open.pop()
                if scope:
                    tracer._train_depth -= 1
                if step_end and tracer._train_depth:
                    tracer._step += 1
            if counter is not None:
                tracer._count(span_name, counter, args, kwargs, result)
            return result

        return wrapper

    def _count(self, span_name, counter, args, kwargs, result) -> None:
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            # the function's signature or result changed; its counters read 0
            self.broken_counters.add(span_name)
            return
        totals = self.counters.setdefault(span_name, {})
        for key, value in values.items():
            totals[key] = totals.get(key, 0) + value

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``, plus counters."""
        n_names = len(self.names)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        if len(self.start):
            name = np.array(self.name)
            parent = np.array(self.parent)
            duration = np.array(self.end) - np.array(self.start)
            has_parent = parent >= 0
            child_time = np.bincount(
                parent[has_parent], weights=duration[has_parent], minlength=len(duration)
            )
            calls = np.bincount(name, minlength=n_names)
            total = np.bincount(name, weights=duration, minlength=n_names)
            self_total = np.bincount(name, weights=duration - child_time, minlength=n_names)
            for i, span_name in enumerate(self.names):
                out[span_name] = {
                    "calls": int(calls[i]),
                    "s": float(total[i]),
                    "self_s": float(self_total[i]),
                }
        for span_name, totals in self.counters.items():
            out[span_name].update(totals)
        return out

    def write(self, path: Path) -> None:
        """Write all spans as one ``.npz``: parallel arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            step=np.array(self.step, dtype=np.int64),
        )
