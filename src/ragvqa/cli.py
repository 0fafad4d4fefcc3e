"""Command-line surface: corpus generation, benchmark builds, training,
evaluation, the ablation harness, gradient checking, and split verification.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import benchmark, corpus as corpus_mod, evaluation, model, primdb, ragtrain
from .config import KEY_TYPES, PRESETS, ExperimentConfig, load_experiment_config
from .primitives import default_lexicon, load_lexicon

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

GRAD_CHECK_TOLERANCE = 1e-4


def _write_corpus(split_corpus, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(
        split_corpus, directory / "questions.jsonl", directory / "scene_graphs.json"
    )


def _load_corpora(data_dir: Path):
    """(train, val, {split: records skipped at ingest}). Each split's skip
    count and first five skips, with their reasons, go to stderr."""
    loaded, skipped = {}, {}
    for split in ("train", "val"):
        loaded[split], report = corpus_mod.load_corpus(
            data_dir / split / "questions.jsonl",
            data_dir / split / "scene_graphs.json",
            split,
            answer_vocab=loaded["train"].answer_vocab if loaded else None,
        )
        skipped[split] = len(report.skipped)
        if skipped[split]:
            reasons = list(report.skipped.values())[:5]
            print(f"{split}: ingest skipped {skipped[split]} record(s)",
                  *(f"{reason}; sample skipped" for reason in reasons), sep="\n  ", file=sys.stderr)
    return loaded["train"], loaded["val"], skipped


def _lexicon(args):
    return load_lexicon(args.lexicon) if getattr(args, "lexicon", None) else default_lexicon()


def cmd_gen_synth(args) -> int:
    if args.config:
        config, file_seed = corpus_mod.parse_synth_config(args.config)
        seed = args.seed if args.seed is not None else (file_seed or 0)
    else:
        config, seed = corpus_mod.SynthConfig(), args.seed or 0
    train, val = corpus_mod.generate_synthetic(config, seed)
    out = Path(args.out)
    _write_corpus(train, out / "train")
    _write_corpus(val, out / "val")
    print(f"wrote {len(train.samples)} train and {len(val.samples)} val samples to {out}")
    return EXIT_OK


def cmd_build_benchmark(args) -> int:
    train, val, skipped = _load_corpora(Path(args.data))
    lexicon = _lexicon(args)
    signature = benchmark.train_signature(train, lexicon)
    candidates, _ = benchmark.filter_candidates(val, signature, lexicon)
    splits, warnings = benchmark.build_splits(candidates, args.n_per_split, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    benchmark.write_splits(splits, candidates, out / "splits.jsonl")
    stats = benchmark.split_stats(splits, candidates)
    stats["ingest_skipped"] = skipped
    stats["shortfall_warnings"] = warnings
    (out / "report.json").write_text(json.dumps(stats, indent=1, sort_keys=True), "utf-8")
    print(f"{len(candidates)} candidates -> {stats['total']} split samples "
          f"({len(warnings)} shortfall warnings)")
    return EXIT_OK


def _train_once(train_corpus, val_corpus, exp: ExperimentConfig, lexicon, agg_config):
    seed = exp.training.seed
    vocabs = model.build_vocabularies(train_corpus)
    params = model.init_params(
        len(vocabs.words), len(vocabs.labels), len(vocabs.answers),
        d=exp.d, d_h=exp.d_h, seed=seed,
    )
    db_q = db_v = None
    if agg_config is not None:
        if agg_config.use_dq:
            db_q = primdb.build_dq(train_corpus, exp.t_q, seed, lexicon)
        if agg_config.use_dv:
            db_v = primdb.build_dv(train_corpus, exp.t_v, seed)
    result = ragtrain.train(
        train_corpus, db_q, db_v, params, vocabs, lexicon,
        exp.training, agg_config, val_corpus=val_corpus,
    )
    return result, vocabs


def _experiment_config(args) -> ExperimentConfig:
    # every flag whose destination is a config key overrides that key
    overrides = {key: value for key, value in vars(args).items() if key in KEY_TYPES}
    return load_experiment_config(args.config, preset=args.preset, overrides=overrides)


def cmd_train(args) -> int:
    exp = _experiment_config(args)
    train_corpus, val_corpus, _ = _load_corpora(Path(args.data))
    lexicon = _lexicon(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exp.write_resolved(out / "config.resolved")
    agg_config = None if args.no_retrieval else exp.aggregation
    result, vocabs = _train_once(train_corpus, val_corpus, exp, lexicon, agg_config)
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.metrics:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    model.save_checkpoint(out / "checkpoint.bin", result.params, vocabs)
    final = result.metrics[-1]
    print(f"trained {exp.training.epochs} epochs; final mean loss {final['mean_loss']:.4f}, "
          f"val accuracy {final['val_accuracy']}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, vocabs = model.load_checkpoint(args.checkpoint)
    _train_corpus, val_corpus, _ = _load_corpora(Path(args.data))
    splits = benchmark.read_splits(args.splits)
    fingerprint = evaluation.config_fingerprint({"checkpoint": str(args.checkpoint)})
    report = evaluation.evaluate(params, vocabs, splits, val_corpus, fingerprint)
    payload = json.dumps(report.to_dict(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload, "utf-8")
    print(payload)
    return EXIT_OK


def cmd_ablate(args) -> int:
    exp = _experiment_config(args)
    train_corpus, val_corpus, _ = _load_corpora(Path(args.data))
    splits = benchmark.read_splits(args.splits)
    lexicon = _lexicon(args)
    seeds = args.seeds or [exp.training.seed]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    candidate_ids = {sid for ids in splits.values() for sid in ids}
    iid_samples = [s for s in val_corpus.samples if s.question.id not in candidate_ids]

    grid = evaluation.ablation_grid(exp.aggregation)
    failures = 0
    with open(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "seed", *benchmark.SPLIT_LABELS, "level_1", "level_2", "level_3",
             "overall", "iid_accuracy", "error"]
        )
        for seed in seeds:
            run = dataclasses.replace(exp, training=dataclasses.replace(exp.training, seed=seed))
            for name, variant in grid:
                # a failing variant gets an error row; the rest of the grid still runs
                try:
                    # no per-epoch val accuracy: the table does not read it
                    result, vocabs = _train_once(train_corpus, None, run, lexicon, variant)
                    report = evaluation.evaluate(result.params, vocabs, splits, val_corpus)
                    iid = model.corpus_accuracy(result.params, vocabs, iid_samples)
                except Exception as exc:  # noqa: BLE001 - recorded in the table
                    log.exception("ablation variant %s, seed %d failed", name, seed)
                    writer.writerow([name, seed] + [""] * 11 + [str(exc)])
                    failures += 1
                    continue
                writer.writerow(
                    [name, seed]
                    + [report.per_split_accuracy[l] for l in benchmark.SPLIT_LABELS]
                    + [report.per_level_accuracy[f"level_{i}"] for i in (1, 2, 3)]
                    + [report.overall, iid, ""]
                )
    print(f"wrote {out / 'ablation.csv'} ({len(seeds) * len(grid)} rows, {failures} failures)")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    n_words, n_labels, n_answers, d = 12, 9, 5, 4
    params = model.init_params(n_words, n_labels, n_answers, d=d, d_h=6, seed=args.seed)
    token_ids = rng.integers(0, n_words, size=5).tolist()
    objects = [
        (int(rng.integers(0, n_labels)), tuple(int(a) for a in rng.integers(0, n_labels, size=2)))
        for _ in range(3)
    ]
    answer = int(rng.integers(0, n_answers))
    q_delta = 0.05 * rng.standard_normal((5, d)) if args.augmented else None
    v_delta = 0.05 * rng.standard_normal((3, d)) if args.augmented else None

    _loss, _probs, grads = model.loss_and_grads(params, token_ids, objects, answer, q_delta, v_delta)

    def loss_fn(p):
        value, _, _ = model.loss_and_grads(p, token_ids, objects, answer, q_delta, v_delta)
        return value

    max_err = model.gradient_check(params, loss_fn, grads, n_coords=100, seed=args.seed)
    status = "PASS" if max_err < GRAD_CHECK_TOLERANCE else "FAIL"
    print(f"grad-check {'(augmented) ' if args.augmented else ''}"
          f"max relative error {max_err:.3e} [{status}]")
    return EXIT_OK if max_err < GRAD_CHECK_TOLERANCE else EXIT_VERIFICATION


def cmd_verify_splits(args) -> int:
    train_corpus, val_corpus, _ = _load_corpora(Path(args.data))
    splits = benchmark.read_splits(args.splits)
    report = benchmark.verify_splits(splits, train_corpus, val_corpus, _lexicon(args))
    if report.ok:
        print(f"verified {report.checked} split samples: all sound")
        return EXIT_OK
    for failure in report.failures[:20]:
        print(f"FAIL {failure}")
    print(f"{len(report.failures)} of {report.checked} samples failed verification")
    return EXIT_VERIFICATION


def _seed_list(text: str) -> list[int]:
    try:
        return [int(seed) for seed in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``train`` and ``ablate`` share. A flag whose destination is
    a config key overrides that key of the resolved config."""
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--w-q", type=float)
    p.add_argument("--w-v", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragvqa",
        description="Retrieval-augmented VQA training and benchmark toolkit",
        allow_abbrev=False,  # so a flag prefix such as --e is a usage error, not --epochs
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("gen-synth", help="generate a synthetic train/val corpus pair")
    p.add_argument("--config", help="synth config file (key = value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = add_parser("build-benchmark", help="build the seven compositional test splits")
    p.add_argument("--data", required=True)
    p.add_argument("--n-per-split", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_benchmark)

    p = add_parser("train", help="train a model, with or without retrieval")
    _add_run_flags(p)
    p.add_argument("--no-retrieval", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="evaluate a checkpoint on built splits")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = add_parser("ablate", help="run the database ablation grid")
    _add_run_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--seeds", type=_seed_list, help="comma-separated seeds (default: the config's seed)")
    p.set_defaults(func=cmd_ablate)

    p = add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augmented", action="store_true")
    p.set_defaults(func=cmd_grad_check)

    p = add_parser("verify-splits", help="independent re-check of built splits")
    p.add_argument("--data", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_verify_splits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (corpus_mod.CorpusError, benchmark.BenchmarkError, model.ModelError,
            primdb.RetrievalError, evaluation.EvalError, ragtrain.TrainingDiverged,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
