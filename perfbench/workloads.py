"""The ragvqa benchmark: workloads, timed phases, correctness checks, metrics.

Run it through ``perfbench/run.py``; see ``perfbench/README.md`` for the
workloads, the metrics and how to read them.

Every time is process CPU time (``time.process_time``). The benchmark is one
process with one thread (BLAS is pinned to one thread before numpy loads), so
on an idle machine CPU time equals wall time; on a shared host it leaves out
the time the scheduler hands to other tenants, which otherwise swamps the
figures.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ragvqa import benchmark, config, corpus, evaluation, model, primdb, ragtrain
from ragvqa.primitives import default_lexicon

from tracing import CLOCK, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One epoch per training round, not criterion 7's four, keeps a rag-bigdb run
# near half a minute. 50 per split is the most the wide inventory fills on
# every seed tried; with 30, the level-1 accuracy's interquartile range across
# ten seeds was 20 % of its median.
EPOCHS = 1
N_PER_SPLIT = 50
SETUP_REPS = 3  # set-up and split build run this often per run
VERIFY_REPS = 3  # verification runs this often per set-up
EVAL_REPS = 40
# the traced run times each phase once, untraced and then traced
TRACED_PASS = dict(setup_reps=1, verify_reps=1, train_seconds=0, eval_reps=1)
SPOT_CHECK_QUERIES = 200  # half drawn from each index, each searched in both
NORM_FLOOR = 1e-12
SIM_TOLERANCE = 1e-12  # near-equal similarities may swap places in a top-K list

_WIDE_CATEGORIES = tuple(
    "dog cat bird horse car bus tree flower chair table ball book shoe cup hat box "
    "boat lamp door plate".split()
)
_WIDE_ATTRIBUTES = tuple(
    "white black red blue green brown yellow gray purple orange small big tall round "
    "old wooden".split()
)
_GQA = config.PRESETS["gqa"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: corpus.SynthConfig
    t_q: int
    t_v: int
    retrieval: bool

    def aggregation(self) -> ragtrain.AggregationConfig | None:
        if not self.retrieval:
            return None
        return ragtrain.AggregationConfig(
            w_q=_GQA["w_q"], w_v=_GQA["w_v"], k_q=_GQA["k_q"], k_v=_GQA["k_v"]
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rag-train",
            why="default corpus, gqa preset: retrieval-augmented training where "
            "per-call retrieval overhead dominates (tiny indices, ~21k retrieve calls "
            "per epoch)",
            synth=corpus.SynthConfig(),
            t_q=_GQA["t_q"], t_v=_GQA["t_v"], retrieval=True,
        ),
        Workload(
            name="rag-bigdb",
            why="wide 20x16 concept inventory with T_q 64 / T_v 256: retrieval over "
            "~2k/~7k-row indices, bound by per-row scoring and sorting",
            synth=corpus.SynthConfig(categories=_WIDE_CATEGORIES, attributes=_WIDE_ATTRIBUTES),
            t_q=64, t_v=256, retrieval=True,
        ),
        Workload(
            name="plain-train",
            why="rag-train's inputs with retrieval off: the bypass, where the model "
            "layer (loss_and_grads, optimizer_step) does the work",
            synth=corpus.SynthConfig(),
            t_q=_GQA["t_q"], t_v=_GQA["t_v"], retrieval=False,
        ),
    )
}

# (name, unit, better): printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("split_build_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("train_samples_per_s", "samples/s", "higher"),
    ("eval_samples_per_s", "samples/s", "higher"),
    ("final_loss", "nats", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed and recorded with every untraced run, but not bounded: after the one
# epoch a run can afford they swing by up to 2.5x across seeds on rag-bigdb
QUALITY = (
    ("iid_accuracy", "fraction", "higher"),
    ("level1_accuracy", "fraction", "higher"),
)

# (name, unit, better): printed with --trace 1; <module>.<function>.<stat>
# reads the stat straight from the tracer, the rest are derived below
PER_LAYER = (
    ("corpus.generate_synthetic.s", "s", "lower"),
    ("primitives.tokenize.calls", "count", "lower"),
    ("primitives.tokenize.s", "s", "lower"),
    ("primitives.pos_tag.calls", "count", "lower"),
    ("primitives.pos_tag.s", "s", "lower"),
    ("primitives.extract_linguistic.calls", "count", "lower"),
    ("primitives.extract_linguistic.s", "s", "lower"),
    ("primitives.extract_visual.calls", "count", "lower"),
    ("primitives.extract_visual.s", "s", "lower"),
    ("model.encode_question.calls", "count", "lower"),
    ("model.encode_question.s", "s", "lower"),
    ("model.encode_image.calls", "count", "lower"),
    ("model.encode_image.s", "s", "lower"),
    ("model.loss_and_grads.calls", "count", "lower"),
    ("model.loss_and_grads.self_s", "s", "lower"),
    ("model.optimizer_step.calls", "count", "lower"),
    ("model.optimizer_step.s", "s", "lower"),
    ("model.optimizer_step.bytes_computed", "bytes", "lower"),
    ("model.predict_answer.calls", "count", "lower"),
    ("model.predict_answer.s", "s", "lower"),
    ("model.corpus_accuracy.s", "s", "lower"),
    ("primdb.build_dq.s", "s", "lower"),
    ("primdb.build_dv.s", "s", "lower"),
    ("primdb.encode_index.calls", "count", "lower"),
    ("primdb.encode_index.s", "s", "lower"),
    ("primdb.encode_index.rows", "count", "lower"),
    ("primdb.retrieve.calls", "count", "lower"),
    ("primdb.retrieve.s", "s", "lower"),
    ("primdb.retrieve.self_s", "s", "lower"),
    ("primdb.retrieve.rows_scanned", "count", "lower"),
    ("primdb.retrieve.fill_ratio", "fraction", "higher"),
    ("primdb.cosine.calls", "count", "lower"),
    ("primdb.cosine.s", "s", "lower"),
    ("ragtrain.train.s", "s", "lower"),
    ("ragtrain.augment_sample.calls", "count", "lower"),
    ("ragtrain.augment_sample.self_s", "s", "lower"),
    ("ragtrain.aggregate.calls", "count", "lower"),
    ("ragtrain.aggregate.s", "s", "lower"),
    ("ragtrain.aggregate.self_s", "s", "lower"),
    ("ragtrain.retrieval_rounds", "count", "lower"),
    ("benchmark.train_signature.s", "s", "lower"),
    ("benchmark.compositions_of.calls", "count", "lower"),
    ("benchmark.compositions_of.s", "s", "lower"),
    ("benchmark.filter_candidates.s", "s", "lower"),
    ("benchmark.filter_candidates.admit_ratio", "fraction", "higher"),
    ("benchmark.build_splits.s", "s", "lower"),
    ("benchmark.verify_splits.s", "s", "lower"),
    ("benchmark.verify_splits.checked", "count", "higher"),
    ("evaluation.evaluate.s", "s", "lower"),
    ("evaluation.evaluate.samples", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ---------------------------------------------------------------------------
# Counting operations and their failures
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# Timed phases: every call into the package goes through a module attribute,
# so the traced run's wrappers see it.
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    train: corpus.Corpus
    val: corpus.Corpus
    vocabs: model.Vocabularies
    params: model.ParamSet
    db_q: primdb.LinguisticDB
    db_v: primdb.VisualDB
    splits: dict[str, list[str]]


def set_up(w: Workload, seed: int, lexicon, splits_path: Path) -> tuple[Setup, float, float]:
    """Corpus, vocabularies, parameters, D_q/D_v and the seven splits.

    Returns the set-up and its time, and the time of the split build
    (signature, filter, splits, write) within it.
    """
    start = CLOCK()
    train_c, val_c = corpus.generate_synthetic(w.synth, seed)
    vocabs = model.build_vocabularies(train_c)
    params = model.init_params(
        len(vocabs.words), len(vocabs.labels), len(vocabs.answers), seed=seed
    )
    db_q = primdb.build_dq(train_c, w.t_q, seed, lexicon)
    db_v = primdb.build_dv(train_c, w.t_v, seed)
    split_start = CLOCK()
    signature = benchmark.train_signature(train_c, lexicon)
    candidates, _skipped = benchmark.filter_candidates(val_c, signature, lexicon)
    splits, _warnings = benchmark.build_splits(candidates, N_PER_SPLIT, seed)
    benchmark.write_splits(splits, candidates, splits_path)
    end = CLOCK()
    setup = Setup(train_c, val_c, vocabs, params, db_q, db_v, splits)
    return setup, end - start, end - split_start


def verify(setup: Setup, lexicon, splits_path: Path):
    start = CLOCK()
    splits = benchmark.read_splits(splits_path)
    report = benchmark.verify_splits(splits, setup.train, setup.val, lexicon)
    return splits, report, CLOCK() - start


def train_round(w: Workload, setup: Setup, lexicon):
    """One training run from the set-up's initial parameters.

    Returns (result or None, time, failure message or "").
    """
    train_config = ragtrain.TrainConfig(epochs=EPOCHS)
    start = CLOCK()
    try:
        result = ragtrain.train(
            setup.train, setup.db_q, setup.db_v, setup.params, setup.vocabs, lexicon,
            train_config, w.aggregation(),
        )
    except (ragtrain.TrainingDiverged, model.ModelError) as exc:
        return None, CLOCK() - start, f"training failed: {exc}"
    return result, CLOCK() - start, ""


def iid_samples(setup: Setup) -> list:
    in_split = {sample_id for ids in setup.splits.values() for sample_id in ids}
    return [s for s in setup.val.samples if s.question.id not in in_split]


def eval_round(setup: Setup, params: model.ParamSet, iid: list):
    """Plain-encoder evaluation on the seven splits plus the IID samples."""
    start = CLOCK()
    report = evaluation.evaluate(params, setup.vocabs, setup.splits, setup.val)
    iid_accuracy = model.corpus_accuracy(params, setup.vocabs, iid)
    return report, iid_accuracy, CLOCK() - start


# ---------------------------------------------------------------------------
# Correctness checks (outside the timed regions)
# ---------------------------------------------------------------------------


def check_splits(written, read_back, report, tally: Tally) -> None:
    """Every requested split slot is one operation; short splits and samples
    the verifier rejects are failures."""
    requested = N_PER_SPLIT * len(benchmark.SPLIT_LABELS)
    present = sum(len(ids) for ids in read_back.values())
    failing = {failure.split(":", 1)[0] for failure in report.failures}
    tally.add(
        requested,
        requested - present + min(len(failing), report.checked),
        f"splits: {present} of {requested} slots filled, "
        f"{len(report.failures)} verifier failures",
    )
    tally.add(1, int(read_back != written), "splits file did not round-trip")


def check_training(setup: Setup, rounds, tally: Tally) -> None:
    """Each training step is one operation; a round that raised fails all its
    steps, an epoch with a non-finite mean loss fails the epoch's steps.
    Later rounds must reproduce the first round's losses exactly."""
    n = len(setup.train.samples)
    reference = None
    for result, _seconds, error in rounds:
        tally.add(EPOCHS * n)
        if result is None:
            tally.add(0, EPOCHS * n, error)
            continue
        losses = [entry["mean_loss"] for entry in result.metrics]
        bad = sum(1 for loss in losses if not np.isfinite(loss))
        tally.add(0, bad * n, f"{bad} epochs with a non-finite mean loss")
        if reference is None:
            reference = losses
        else:
            tally.add(1, int(losses != reference), "training is not deterministic")


def oracle_top_k(query, vectors, ordinals, sources, k: int, exclude):
    """Brute-force top-K by cosine: (-similarity, ordinal) order, records from
    ``exclude`` left out. Returns (ordinals, similarities)."""
    rows = np.arange(len(ordinals)) if exclude is None else np.flatnonzero(sources != exclude)
    q_norm = float(np.sqrt((query * query).sum()))
    norms = np.sqrt((vectors[rows] * vectors[rows]).sum(axis=1))
    sims = np.zeros(len(rows))
    if q_norm >= NORM_FLOOR:
        valid = norms >= NORM_FLOOR
        sims[valid] = (vectors[rows][valid] * query).sum(axis=1) / (norms[valid] * q_norm)
        sims = np.clip(sims, -1.0, 1.0)
    by_ordinal = np.argsort(ordinals[rows], kind="stable")
    order = by_ordinal[np.argsort(-sims[by_ordinal], kind="stable")][:k]
    return ordinals[rows][order], sims[order]


def spot_check_retrieval(setup: Setup, params, seed: int, tally: Tally) -> str:
    """Query the final parameters' index snapshots and compare every answer
    with the oracle. Returns "absent" when the single-query API is gone."""
    encode = getattr(primdb, "encode_index", None)
    retrieve = getattr(primdb, "retrieve", None)
    if encode is None or retrieve is None:
        return "absent"
    indices = []
    for db, k in ((setup.db_q, _GQA["k_q"]), (setup.db_v, _GQA["k_v"])):
        index = encode(db, params, setup.vocabs, setup.train, 0)
        ordinals = np.array([r.ordinal for r in index.records], dtype=np.int64)
        sources = np.array([r.source_id for r in index.records], dtype=object)
        indices.append((index, k, ordinals, sources))
    rng = random.Random(seed)
    mismatches = 0
    for i in range(SPOT_CHECK_QUERIES):
        own, _k, _ordinals, own_sources = indices[i % 2]
        row = rng.randrange(own.size)
        query = own.vectors[row]
        for index, k, ordinals, sources in indices:
            exclude = own_sources[row] if index is own else None
            got = retrieve(query, index, k, exclude_source=exclude)
            got_ordinals = [item.record.ordinal for item in got.items]
            got_sims = np.array([item.similarity for item in got.items])
            want_ordinals, want_sims = oracle_top_k(
                query, index.vectors, ordinals, sources, k, exclude
            )
            same = got_ordinals == want_ordinals.tolist() or (
                len(got_sims) == len(want_sims)
                and bool(np.all(np.abs(got_sims - want_sims) <= SIM_TOLERANCE))
            )
            mismatches += not same
    tally.add(2 * SPOT_CHECK_QUERIES, mismatches, f"retrieval: {mismatches} oracle mismatches")
    return "ok" if not mismatches else "mismatch"


# ---------------------------------------------------------------------------
# One measurement: set-up reps, training rounds, evaluation reps
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    split_build_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_samples: int = 0
    setup: Setup | None = None
    params: model.ParamSet | None = None
    losses: list[float] = field(default_factory=list)
    iid_accuracy: float = float("nan")
    level1_accuracy: float = float("nan")

    @property
    def total_s(self) -> float:
        return sum(self.setup_s) + sum(self.verify_s) + sum(self.train_s) + sum(self.eval_s)


def measure(
    w: Workload, seed: int, lexicon, tally: Tally, *,
    setup_reps: int, verify_reps: int, train_seconds: float, eval_reps: int,
) -> Measurement:
    """Run every phase; training rounds repeat until ``train_seconds`` of
    training time are spent (at least one round)."""
    OUT_DIR.mkdir(exist_ok=True)
    splits_path = OUT_DIR / f"splits-{w.name}-seed{seed}.jsonl"
    m = Measurement()
    for _ in range(setup_reps):
        m.setup = None  # let the previous repetition's set-up be freed first
        setup, setup_s, split_s = set_up(w, seed, lexicon, splits_path)
        m.setup_s.append(setup_s)
        m.split_build_s.append(split_s)
        for _ in range(verify_reps):
            read_back, report, verify_s = verify(setup, lexicon, splits_path)
            m.verify_s.append(verify_s)
            check_splits(setup.splits, read_back, report, tally)
        m.setup = setup

    rounds = []
    while not rounds or sum(m.train_s) < train_seconds:
        result, seconds, error = train_round(w, m.setup, lexicon)
        rounds.append((result, seconds, error))
        m.train_s.append(seconds)
        if result is None:
            break
    check_training(m.setup, rounds, tally)
    first = rounds[0][0]
    m.params = first.params if first is not None else m.setup.params
    m.losses = [entry["mean_loss"] for entry in first.metrics] if first else []

    iid = iid_samples(m.setup)
    outcomes = []
    for _ in range(eval_reps):
        report, iid_accuracy, seconds = eval_round(m.setup, m.params, iid)
        m.eval_s.append(seconds)
        outcomes.append((report.per_split_counts, iid_accuracy))
        m.eval_samples = report.n_evaluated + len(iid)
        m.iid_accuracy = iid_accuracy
        m.level1_accuracy = report.per_level_accuracy["level_1"]
    tally.add(
        len(outcomes) - 1,
        sum(outcome != outcomes[0] for outcome in outcomes[1:]),
        "evaluation is not deterministic",
    )
    return m


def end_to_end_metrics(m: Measurement) -> dict[str, float]:
    steps = EPOCHS * len(m.setup.train.samples)
    return {
        "setup_s": statistics.median(m.setup_s),
        "split_build_s": statistics.median(m.split_build_s),
        "verify_s": statistics.median(m.verify_s),
        "train_samples_per_s": statistics.median(steps / s for s in m.train_s),
        "eval_samples_per_s": statistics.median(m.eval_samples / s for s in m.eval_s),
        "final_loss": m.losses[-1] if m.losses else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(stats: dict[str, dict[str, float]], overhead_ratio: float) -> dict[str, float]:
    def stat(span: str, key: str) -> float:
        return stats.get(span, {}).get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    derived = {
        "primdb.retrieve.fill_ratio": ratio(
            stat("primdb.retrieve", "returned"), stat("primdb.retrieve", "requested")
        ),
        "benchmark.filter_candidates.admit_ratio": ratio(
            stat("benchmark.filter_candidates", "admitted"),
            stat("benchmark.filter_candidates", "offered"),
        ),
        "ragtrain.retrieval_rounds": stat("ragtrain.augment_sample", "retrieval_rounds"),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = stat(span, key)
    return out


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def git_rev(root: Path = ROOT) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def source_loc(src: Path = SRC / "ragvqa") -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def index_rows(db) -> int:
    return sum(len(sources) for sources in db.entries.values())


def metadata(w: Workload, seed: int, seconds: float, trace: bool, setup: Setup) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "clock": "process_time",
        "src_loc": source_loc(),
        "n_train": len(setup.train.samples),
        "n_val": len(setup.val.samples),
        "epochs": EPOCHS,
        "n_per_split": N_PER_SPLIT,
        "index_rows": {"D_q": index_rows(setup.db_q), "D_v": index_rows(setup.db_v)},
    }


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Tally]:
    """Measure one workload; returns (metrics, extra metadata, tally)."""
    lexicon = default_lexicon()
    tally = Tally()
    extra: dict = {}
    if not trace:
        m = measure(
            w, seed, lexicon, tally,
            setup_reps=SETUP_REPS, verify_reps=VERIFY_REPS, train_seconds=seconds,
            eval_reps=EVAL_REPS,
        )
        extra["train_rounds"] = len(m.train_s)
        extra["setup_reps"] = len(m.setup_s)
        extra["verify_reps"] = len(m.verify_s)
        extra["eval_reps"] = len(m.eval_s)
        extra["quality"] = {"iid_accuracy": m.iid_accuracy, "level1_accuracy": m.level1_accuracy}
        metrics = end_to_end_metrics(m)
    else:
        plain = measure(w, seed, lexicon, tally, **TRACED_PASS)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            m = measure(w, seed, lexicon, tally, **TRACED_PASS)
            tracer.active = False
        finally:
            tracer.uninstall()
        stats = tracer.stats()
        tally.add(1, int(m.losses != plain.losses), "tracing changed the training losses")
        if "model.loss_and_grads" not in tracer.absent:
            expected = EPOCHS * len(m.setup.train.samples)
            calls = stats["model.loss_and_grads"]["calls"]
            tally.add(1, int(calls != expected),
                      f"loss_and_grads traced {calls} calls, expected {expected}")
        spans_path = OUT_DIR / f"spans-{w.name}-seed{seed}.npz"
        tracer.write(spans_path)
        extra["absent"] = tracer.absent
        extra["broken_counters"] = sorted(tracer.broken_counters)
        extra["spans"] = len(tracer.start)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = layer_metrics(stats, m.total_s / plain.total_s - 1)
    extra["retrieval_spot_check"] = spot_check_retrieval(m.setup, m.params, seed, tally)
    extra.update(metadata(w, seed, seconds, trace, m.setup))
    return metrics, extra, tally


def _number(value: float):
    return value if np.isfinite(value) else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import ragvqa

    if not Path(ragvqa.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: ragvqa was imported from {ragvqa.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.ERROR)  # build_splits warns on short splits; counted instead

    w = WORKLOADS[args.workload]
    metrics, extra, tally = run(w, args.seed, args.seconds, bool(args.trace))
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}

    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: {w.why}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    for name, unit, _better in QUALITY if not args.trace else ():
        print(f"  {name:<42} {extra['quality'][name]:>16.6g} {unit} (not bounded)")
    error_rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':<42} {error_rate:>16.6g} fraction "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": _number(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    record = OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": extra, "error_rate": error_rate, **result}, indent=1))
    print("meta " + json.dumps(extra, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
