import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode
from mtunlearn import (
    GenConfig,
    MultiTaskDataset,
    Subset,
    SyntheticProblem,
    default_forget_split,
    generate_synthetic,
    partition,
)
from mtunlearn.data import DATASET_SCHEMA_VERSION, config_from_doc, problem_to_json
from mtunlearn.errors import ConfigError, DimensionError


def make_config(**overrides):
    base = dict(
        n_instances=10,
        input_dim=4,
        n_tasks=2,
        task_dims=(2, 3),
        shared_dim=5,
        teacher_rank=2,
        noise_std=0.1,
        seed=0,
        n_val=6,
    )
    base.update(overrides)
    return GenConfig(**base)


def test_generation_shapes_and_determinism():
    cfg = make_config()
    p1 = generate_synthetic(cfg)
    p2 = generate_synthetic(cfg)
    assert p1.dataset.inputs.shape == (10, 4)
    assert p1.dataset.task_dims == (2, 3)
    assert p1.val_dataset.n_instances == 6
    assert np.array_equal(p1.dataset.inputs, p2.dataset.inputs)
    for t in range(2):
        assert np.array_equal(p1.dataset.targets[t], p2.dataset.targets[t])
    assert np.array_equal(p1.teacher, p2.teacher)


def test_different_seeds_differ():
    a = generate_synthetic(make_config(seed=0))
    b = generate_synthetic(make_config(seed=1))
    assert not np.array_equal(a.dataset.inputs, b.dataset.inputs)


def test_noiseless_targets_are_exact_teacher_outputs():
    p = generate_synthetic(make_config(noise_std=0.0))
    shared = p.dataset.inputs @ p.teacher
    for t, head in enumerate(p.heads):
        assert np.allclose(p.dataset.targets[t], shared @ head.T)


def test_teacher_rank_is_respected():
    p = generate_synthetic(make_config(teacher_rank=2))
    assert np.linalg.matrix_rank(p.teacher) == 2


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(n_instances=1)
    with pytest.raises(ConfigError):
        make_config(task_dims=(2,))
    with pytest.raises(ConfigError):
        make_config(noise_std=-0.5)
    with pytest.raises(ConfigError):
        make_config(teacher_rank=99)


def test_gen_config_requires_a_validation_set():
    assert make_config(n_val=None).n_val == 50  # max(50, n_instances // 2)
    assert make_config(n_instances=300, n_val=None).n_val == 150
    with pytest.raises(ConfigError, match=r"^n_val must be >= 1"):
        make_config(n_val=0)
    p = generate_synthetic(make_config())
    with pytest.raises(ConfigError, match=r"^val_dataset is required"):
        dataclasses.replace(p, val_dataset=None)


def test_partition_covers_grid_exactly_once():
    ds = generate_synthetic(make_config()).dataset
    part = partition(ds, forget_instances=[0, 3], forget_tasks=[1])
    blocks = (part.forget, part.retain_task, part.retain_inst, part.retain_clean)
    assert all(b.dtype == np.intp and b.ndim == 2 and b.shape[1] == 2 for b in blocks)
    cells = np.concatenate(blocks).tolist()
    assert sorted(cells) == sorted(ds.all_pairs().tolist())
    assert len(set(map(tuple, cells))) == len(cells)
    assert part.forget.tolist() == [[0, 1], [3, 1]]
    assert all(i in (0, 3) and t == 0 for i, t in part.retain_task.tolist())
    assert all(i not in (0, 3) and t == 1 for i, t in part.retain_inst.tolist())
    assert all(i not in (0, 3) and t == 0 for i, t in part.retain_clean.tolist())


def test_partition_arrays_are_read_only():
    # The model layer memoizes subsets grouped from them on the spec.
    ds = generate_synthetic(make_config()).dataset
    part = partition(ds, forget_instances=[0, 3], forget_tasks=[1])
    names = ("forget_instances", "retain_instances", "forget", "retain_task", "retain_inst")
    for name in (*names, "retain_clean"):
        array = getattr(part, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_full_task_partition_has_no_cross_subsets():
    ds = generate_synthetic(make_config()).dataset
    part = partition(ds, forget_instances=[1], forget_tasks=[0, 1])
    assert part.retain_task.shape == (0, 2)
    assert len(part.retain_inst) == 18
    assert part.retain_clean.shape == (0, 2)
    assert len(part.forget) == 2


def test_partition_rejects_out_of_range():
    ds = generate_synthetic(make_config()).dataset
    with pytest.raises(DimensionError):
        partition(ds, [99], [0])
    with pytest.raises(DimensionError):
        partition(ds, [0], [5])


def reference_partition(n, k, forget_ids, forget_tasks):
    """The four blocks by a double loop over the grid, in pair order."""
    xf, tf = set(forget_ids), set(forget_tasks)
    blocks = {"forget": [], "retain_task": [], "retain_inst": [], "retain_clean": []}
    for i in range(n):
        for t in range(k):
            if i in xf:
                blocks["forget" if t in tf else "retain_task"].append([i, t])
            else:
                blocks["retain_inst" if t in tf else "retain_clean"].append([i, t])
    return blocks


@pytest.mark.parametrize(
    "inputs, targets, message",
    [
        (np.zeros((10, 4)), [np.zeros((12, 2))], r"^task 0 targets \(12, 2\), need \(10, m\)$"),
        (np.zeros((10, 4)), [np.zeros((8, 2))], r"^task 0 targets \(8, 2\), need \(10, m\)$"),
        (np.zeros((10, 4)), [np.zeros((10, 2)), np.zeros(10)], r"^task 1 targets \(10,\), need"),
        (np.zeros(10), [np.zeros((10, 2))], r"^inputs must be 2-D, got shape \(10,\)$"),
    ],
    ids=["12_rows", "8_rows", "1d_targets", "1d_inputs"],
)
def test_dataset_rejects_arrays_not_2d_with_a_row_per_instance(inputs, targets, message):
    with pytest.raises(DimensionError, match=message):
        MultiTaskDataset(inputs, targets)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_partition_matches_double_loop_reference(data):
    n, k = data.draw(st.integers(2, 40)), data.draw(st.integers(2, 5))
    forget_ids = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    tasks = data.draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
    ds = MultiTaskDataset(np.zeros((n, 1)), [np.zeros((n, 1))] * k)
    part = partition(ds, forget_ids, tasks)
    ref = reference_partition(n, k, forget_ids, tasks)
    for name, pairs in ref.items():
        block = getattr(part, name)
        assert block.dtype == np.intp and block.shape == (len(pairs), 2)
        assert block.tolist() == pairs
    retain = ref["retain_task"] + ref["retain_inst"] + ref["retain_clean"]
    assert part.retain.tolist() == retain
    assert ds.all_pairs().tolist() == [[i, t] for i in range(n) for t in range(k)]
    assert part.forget_instances.tolist() == sorted(set(forget_ids))
    assert part.retain_instances.tolist() == sorted(set(range(n)) - set(forget_ids))
    assert part.forget_instances.dtype == part.retain_instances.dtype == np.intp
    assert part.forget_tasks == tuple(sorted(tasks))
    assert part.retain_tasks == tuple(sorted(set(range(k)) - set(tasks)))


def test_subset_from_pair_array_equals_subset_from_tuples():
    ds = generate_synthetic(make_config(n_instances=40)).dataset
    part = default_forget_split(ds, 0.2, [1], seed=0)
    tuples = [tuple(p) for p in part.retain.tolist()]
    for pairs in (part.retain, list(part.retain)):
        got, want = Subset.from_pairs(ds, pairs), Subset.from_pairs(ds, tuples)
        assert np.array_equal(got.tasks, want.tasks)
        assert got.counts == want.counts
        for name in ("r", "z", "rho"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_default_forget_split_fraction_and_determinism():
    ds = generate_synthetic(make_config(n_instances=50)).dataset
    p1 = default_forget_split(ds, 0.10, [0], seed=3)
    p2 = default_forget_split(ds, 0.10, [0], seed=3)
    assert len(p1.forget_instances) == 5
    assert np.array_equal(p1.forget_instances, p2.forget_instances)
    assert np.array_equal(p1.forget, p2.forget)
    with pytest.raises(ConfigError):
        default_forget_split(ds, 1.5, [0], seed=3)
    with pytest.raises(ConfigError, match=r"partition\.forget_fraction: 0\.99 forgets all 50"):
        default_forget_split(ds, 0.99, [0], seed=3)


def decoded_problem(text):
    """The problem that ``problem_to_json`` wrote ``text`` from, read back from its bytes."""
    doc = json.loads(text)
    assert doc["schema_version"] == DATASET_SCHEMA_VERSION

    def dataset(inputs, targets):
        return MultiTaskDataset(decode(doc[inputs]), [decode(y) for y in doc[targets]])

    return SyntheticProblem(
        dataset=dataset("inputs", "targets"),
        val_dataset=dataset("val_inputs", "val_targets"),
        heads=[decode(h) for h in doc["heads"]],
        teacher=decode(doc["teacher"]),
        config=config_from_doc(GenConfig, doc["config"], "config"),
    )


def test_json_round_trip_is_value_identical():
    p = generate_synthetic(make_config())
    text = problem_to_json(p)
    q = decoded_problem(text)
    assert np.array_equal(p.dataset.inputs, q.dataset.inputs)
    for t in range(p.dataset.n_tasks):
        assert np.array_equal(p.dataset.targets[t], q.dataset.targets[t])
        assert np.array_equal(p.heads[t], q.heads[t])
    assert np.array_equal(p.teacher, q.teacher)
    assert np.array_equal(p.val_dataset.inputs, q.val_dataset.inputs)
    assert q.config == p.config
    # serialization itself is deterministic
    assert problem_to_json(q) == text


def all_arrays(p):
    ds, val = p.dataset, p.val_dataset
    return [ds.inputs, *ds.targets, *p.heads, p.teacher, val.inputs, *val.targets]


def test_json_round_trip_is_bit_identical_for_signed_zero_and_subnormal():
    p = generate_synthetic(make_config())
    special = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, np.nextafter(0.0, -1.0)]
    p.dataset.inputs[0, : len(special)] = special
    q = decoded_problem(problem_to_json(p))
    for a, b in zip(all_arrays(p), all_arrays(q)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.signbit(q.dataset.inputs[0, 0])


def test_json_arrays_are_documented_layout():
    p = generate_synthetic(make_config())
    f = json.loads(problem_to_json(p))["targets"][1]
    assert f["dtype"] == "<f8" and f["shape"] == [10, 3]
    got = np.frombuffer(base64.b64decode(f["data"]), "<f8").reshape(f["shape"])
    assert np.array_equal(got, p.dataset.targets[1])


def test_problem_to_json_is_deterministic():
    a = problem_to_json(generate_synthetic(make_config(seed=4)))
    b = problem_to_json(generate_synthetic(make_config(seed=4)))
    assert a == b
