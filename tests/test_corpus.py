import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ragvqa.benchmark import sample_primitives
from ragvqa.corpus import (
    ConfigurationError,
    IngestionError,
    SynthConfig,
    build_corpus,
    generate_synthetic,
    load_corpus,
    load_questions,
    load_scene_graphs,
    parse_synth_config,
    save_corpus,
)

from conftest import SMALL_SYNTH


# -- load_questions -----------------------------------------------------------


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_questions_passthrough(tmp_path):
    path = _write(
        tmp_path / "q.jsonl",
        [json.dumps({"id": "q1", "image_id": "i1", "question": "Is the dog black?", "answer": "no"})],
    )
    records = load_questions(path)
    assert len(records) == 1
    assert records[0].question.text == "Is the dog black?"
    assert records[0].answer == "no"


def test_load_questions_empty_file(tmp_path):
    path = (tmp_path / "q.jsonl")
    path.write_text("", encoding="utf-8")
    assert load_questions(path) == []


def test_load_questions_missing_field_names_record(tmp_path):
    path = _write(
        tmp_path / "q.jsonl",
        [json.dumps({"id": "q1", "image_id": "i1", "question": "x?"})],
    )
    with pytest.raises(IngestionError, match="'q1'.*'answer'"):
        load_questions(path)


def test_load_questions_duplicate_id(tmp_path):
    record = {"id": "q1", "image_id": "i1", "question": "x?", "answer": "no"}
    path = _write(tmp_path / "q.jsonl", [json.dumps(record), json.dumps(record)])
    with pytest.raises(IngestionError, match="line 2.*duplicate"):
        load_questions(path)


def test_load_questions_malformed_json_reports_line(tmp_path):
    path = _write(tmp_path / "q.jsonl", ["{not json"])
    with pytest.raises(IngestionError, match="line 1"):
        load_questions(path)


_GOOD_RECORD = {"id": "q1", "image_id": "i1", "question": "x?", "answer": "no"}


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '"q1"',
        json.dumps({**_GOOD_RECORD, "question": 5}),
        json.dumps({**_GOOD_RECORD, "id": ["q1"]}),
        json.dumps({**_GOOD_RECORD, "image_id": None}),
        json.dumps({**_GOOD_RECORD, "answer": None}),
        json.dumps({**_GOOD_RECORD, "answer": ["yes"]}),
        json.dumps({**_GOOD_RECORD, "answer": 5}),
    ],
)
def test_load_questions_rejects_wrong_json_shape(tmp_path, line):
    path = _write(tmp_path / "q.jsonl", [json.dumps(_GOOD_RECORD | {"id": "q0"}), line])
    with pytest.raises(IngestionError, match="line 2"):
        load_questions(path)


@pytest.mark.parametrize(
    "payload, where",
    [
        ([], "scene-graph file"),
        ({"i1": []}, "'i1'"),
        ({"i1": {"objects": ["o1"]}}, "'i1'"),
        ({"i1": {"objects": {"o1": "dog"}}}, "'i1'.*'o1'"),
        ({"i1": {"objects": {"o1": {"name": 5}}}}, "'i1'.*'o1'.*name"),
        ({"i1": {"objects": {"o1": {"name": "dog", "attributes": "red"}}}}, "'i1'.*attributes"),
        ({"i1": {"objects": {"o1": {"name": "dog", "attributes": [1]}}}}, "'i1'.*attribute"),
    ],
)
def test_load_scene_graphs_rejects_wrong_json_shape(tmp_path, payload, where):
    path = tmp_path / "sg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IngestionError, match=where):
        load_scene_graphs(path)


# -- load_scene_graphs ----------------------------------------------------------


def test_load_scene_graphs_lowercases_and_dedupes(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(
        json.dumps({"i1": {"objects": {"o1": {"name": "dog", "attributes": ["White", "white"]}}}}),
        encoding="utf-8",
    )
    graphs, warnings = load_scene_graphs(path)
    assert warnings == []
    (graph,) = graphs
    assert graph.image_id == "i1"
    assert graph.objects[0].category == "dog"
    assert graph.objects[0].attributes == frozenset({"white"})


def test_load_scene_graphs_empty_image_warns(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(json.dumps({"i1": {"objects": {}}}), encoding="utf-8")
    graphs, warnings = load_scene_graphs(path)
    assert graphs[0].objects == ()
    assert any("i1" in w for w in warnings)


def test_load_scene_graphs_missing_category(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(json.dumps({"i1": {"objects": {"o1": {"attributes": []}}}}), encoding="utf-8")
    with pytest.raises(IngestionError, match="'o1'"):
        load_scene_graphs(path)


def test_load_scene_graphs_duplicate_object_id(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(
        '{"i1": {"objects": {"o1": {"name": "dog"}, "o1": {"name": "cat"}}}}',
        encoding="utf-8",
    )
    with pytest.raises(IngestionError, match="duplicate"):
        load_scene_graphs(path)


def test_load_scene_graphs_orders_objects_by_id(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(
        json.dumps({"i1": {"objects": {"o2": {"name": "cat"}, "o1": {"name": "dog"}}}}),
        encoding="utf-8",
    )
    graphs, _ = load_scene_graphs(path)
    assert [o.object_id for o in graphs[0].objects] == ["o1", "o2"]


# -- build_corpus ---------------------------------------------------------------


def test_build_corpus_skips_missing_scene_graph(tmp_path):
    q_path = _write(
        tmp_path / "q.jsonl",
        [
            json.dumps({"id": "q1", "image_id": "i1", "question": "x?", "answer": "no"}),
            json.dumps({"id": "q2", "image_id": "missing", "question": "y?", "answer": "yes"}),
        ],
    )
    sg_path = tmp_path / "sg.json"
    sg_path.write_text(json.dumps({"i1": {"objects": {"o1": {"name": "dog"}}}}), encoding="utf-8")
    corpus, report = load_corpus(q_path, sg_path, "train")
    assert [s.question.id for s in corpus.samples] == ["q1"]
    assert report.skipped_sample_ids == ["q2"]


def test_answer_vocab_first_occurrence_order():
    from conftest import make_sample
    from ragvqa.corpus import QuestionRecord

    samples = [
        make_sample("a?", [("dog", set())], "no", qid="q1", image_id="i1"),
        make_sample("b?", [("dog", set())], "yes", qid="q2", image_id="i2"),
        make_sample("c?", [("dog", set())], "no", qid="q3", image_id="i3"),
    ]
    records = [QuestionRecord(s.question, s.answer) for s in samples]
    corpus, _ = build_corpus(records, [s.scene_graph for s in samples], "train")
    assert corpus.answer_vocab == ("no", "yes")


# -- synthetic generation ----------------------------------------------------


def test_generate_synthetic_deterministic(tmp_path):
    a_train, a_val = generate_synthetic(SMALL_SYNTH, seed=7)
    b_train, b_val = generate_synthetic(SMALL_SYNTH, seed=7)
    assert a_train == b_train
    assert a_val == b_val

    # byte-identical through the file format as well
    for name, corpus in (("a", a_train), ("b", b_train)):
        save_corpus(corpus, tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


_WIDE_PAIR_DUMP = """
import json
from ragvqa.corpus import SynthConfig, generate_synthetic
categories = tuple("dog cat bird horse car bus tree flower chair table ball book shoe cup "
                   "hat box boat lamp door plate".split())
attributes = tuple("white black red blue green brown yellow gray purple orange small big "
                   "tall round old wooden".split())
_, val = generate_synthetic(SynthConfig(categories=categories, attributes=attributes), 0)
print(json.dumps([
    (s.question.text, [(o.category, sorted(o.attributes)) for o in s.scene_graph.objects])
    for s in val.samples
]))
"""


def test_generate_synthetic_independent_of_hash_seed():
    """The wide 20x16 inventory's val split must not follow set iteration order."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _WIDE_PAIR_DUMP],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]


def test_generate_synthetic_seed_changes_output():
    a_train, _ = generate_synthetic(SMALL_SYNTH, seed=0)
    b_train, _ = generate_synthetic(SMALL_SYNTH, seed=1)
    assert a_train != b_train


def test_generate_synthetic_too_small_inventory():
    with pytest.raises(ConfigurationError):
        SynthConfig(categories=("dog",), attributes=("white",))


def test_generate_synthetic_primitive_coverage(synth_pair, lexicon):
    """Every primitive extracted from the train split occurs at least twice."""
    train, _ = synth_pair
    counts: dict = {}
    for sample in train.samples:
        for p in sample_primitives(sample, lexicon):
            counts[p] = counts.get(p, 0) + 1
    assert counts, "train split has no primitives"
    rare = [p for p, n in counts.items() if n < 2]
    assert rare == []


def test_generate_synthetic_referential_integrity(small_pair):
    for corpus in small_pair:
        graphs = corpus.scene_graphs()
        for sample in corpus.samples:
            assert graphs[sample.question.image_id] is not None
            assert sample.scene_graph.objects  # synthetic scenes are never empty
            assert sample.answer in corpus.answer_vocab


def test_generate_synthetic_val_shares_train_vocab(small_pair):
    train, val = small_pair
    assert val.answer_vocab == train.answer_vocab


def test_round_trip_save_load(tmp_path, small_pair):
    train, _ = small_pair
    save_corpus(train, tmp_path / "q.jsonl", tmp_path / "sg.json")
    reloaded, report = load_corpus(tmp_path / "q.jsonl", tmp_path / "sg.json", "train")
    assert report.skipped_sample_ids == []
    assert reloaded.samples == train.samples
    assert reloaded.answer_vocab == train.answer_vocab


# -- synth config file ---------------------------------------------------------


def test_parse_synth_config(tmp_path):
    path = _write(
        tmp_path / "synth.cfg",
        [
            "# comment",
            "categories = dog, cat, bird, car, tree",
            "attributes = white, black",
            "n_train = 300",
            "n_val = 100",
            "holdout_fraction = 0.2",
            "seed = 11",
        ],
    )
    config, seed = parse_synth_config(path)
    assert config.categories == ("dog", "cat", "bird", "car", "tree")
    assert config.n_train == 300
    assert config.holdout_fraction == 0.2
    assert seed == 11


def test_parse_synth_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path / "synth.cfg", ["n_trian = 300"])
    with pytest.raises(ConfigurationError, match="line 1.*'n_trian'"):
        parse_synth_config(path)


def test_parse_synth_config_rejects_garbage(tmp_path):
    path = _write(tmp_path / "synth.cfg", ["categories dog cat"])
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_synth_config(path)


def test_parse_synth_config_unparsable_value_names_file_line_and_key(tmp_path):
    path = _write(tmp_path / "synth.cfg", ["n_val = 100", "n_train = abc"])
    with pytest.raises(ConfigurationError, match=r"synth\.cfg, line 2: key 'n_train'"):
        parse_synth_config(path)
