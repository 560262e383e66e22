"""One-pass pruning and one-block SMOTE against their reference loops.

The Step 4 grid prunes a grown C4.5 tree and synthesises SMOTE rows
for every (plan, fold) pair.  Both run in restructured forms -- pruning
hands each child's pessimistic estimate up instead of re-walking the
kept subtree, and SMOTE draws per seed but builds every synthetic row
in one block -- under a bit-identity contract with the straightforward
formulations in :mod:`tests.oracle`.
"""

import copy
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.mining.cache import reuse_caches_disabled
from repro.mining.dataset import Attribute, Dataset
from repro.mining.sampling import smote
from repro.mining.tree import C45DecisionTree
from repro.mining.tree import pruning
from repro.mining.tree.pruning import pessimistic_prune, prune_tree
from tests import oracle
from tests.conftest import make_separable
from tests.mining.test_tree_fastpath import datasets


@given(
    dataset=datasets(),
    cf=st.sampled_from([0.05, 0.25, 0.5, 0.75]),
    mlw=st.sampled_from([1.0, 2.0]),
)
@settings(deadline=None, max_examples=60)
def test_one_pass_pruning_matches_rewalking_oracle(dataset, cf, mlw):
    grown = C45DecisionTree(prune=False, min_leaf_weight=mlw).fit(dataset).root
    expected = oracle.prune_tree(copy.deepcopy(grown), cf)
    pruned, estimate, grown_nodes = pessimistic_prune(copy.deepcopy(grown), cf)
    # Structure, class weights, thresholds and attribute indices.
    assert pickle.dumps(pruned) == pickle.dumps(expected)
    assert estimate == oracle.subtree_errors(expected, cf)
    assert grown_nodes == grown.node_count()


def test_pruning_calls_pessimistic_errors_once_per_grown_node(monkeypatch):
    grown = C45DecisionTree(prune=False).fit(make_separable(n=600, noise=0.2)).root
    n_grown = grown.node_count()  # pruning rewrites ``grown`` in place
    calls = []
    original = pruning.pessimistic_errors

    def counting(n, e, cf):
        calls.append(None)
        return original(n, e, cf)

    monkeypatch.setattr(pruning, "pessimistic_errors", counting)
    pruned = prune_tree(grown, 0.25)
    assert n_grown > 20  # deep enough that a re-walk would show
    assert pruned.node_count() < n_grown
    assert len(calls) <= n_grown


def test_fit_span_records_grown_and_pruned_node_counts():
    dataset = make_separable(n=600, noise=0.2)
    grown = C45DecisionTree(prune=False).fit(dataset).root.node_count()
    with obs.tracing() as tracer:
        pruned = C45DecisionTree(prune=True).fit(dataset).root.node_count()
        C45DecisionTree(prune=False).fit(dataset)
    counters = [r.counters for r in tracer.spans if r.name == "c45.fit"]
    assert counters == [
        {"nodes": pruned, "grown_nodes": grown},
        {"nodes": grown, "grown_nodes": grown},
    ]


_EXTREMES = [np.inf, -np.inf, np.nan, 1e308, -1e308]


@st.composite
def smote_datasets(draw) -> Dataset:
    """Mixed datasets with 1..12 minority seeds, some holding extremes."""
    n_minority = draw(st.sampled_from([1, 2, 3, 5, 12]))
    n_majority = draw(st.integers(1, 10))
    n_numeric = draw(st.integers(1, 3))
    n_nominal = draw(st.integers(0, 2))
    n = n_minority + n_majority
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    attributes = [Attribute.numeric(f"num{i}") for i in range(n_numeric)]
    columns = [rng.normal(0, 10, n) for _ in range(n_numeric)]
    for i in range(n_nominal):
        k = draw(st.integers(2, 4))
        attributes.append(
            Attribute.nominal(f"nom{i}", tuple(f"v{j}" for j in range(k)))
        )
        columns.append(rng.integers(0, k, n).astype(float))
    x = np.column_stack(columns)
    y = np.concatenate(
        [np.ones(n_minority, np.int64), np.zeros(n_majority, np.int64)]
    )
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(0, n_minority - 1))
        col = draw(st.integers(0, n_numeric - 1))
        x[row, col] = draw(st.sampled_from(_EXTREMES))
    order = rng.permutation(n)
    weights = rng.uniform(0.25, 2.0, n) if draw(st.booleans()) else None
    return Dataset(
        attributes,
        Attribute.nominal("class", ("neg", "pos")),
        x[order],
        y[order],
        weights=weights,
        name="smote",
    )


@given(
    dataset=smote_datasets(),
    level=st.sampled_from([80.0, 100.0, 150.0, 300.0]),
    k=st.integers(1, 7),
    seed=st.integers(0, 2**31),
    caches=st.booleans(),
)
@settings(deadline=None, max_examples=120)
def test_one_block_smote_matches_per_seed_oracle(dataset, level, k, seed, caches):
    expected_rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        expected = oracle.smote(dataset, level, k, expected_rng)
        rng = np.random.default_rng(seed)
        if caches:
            actual = smote(dataset, level, k, rng)
        else:
            with reuse_caches_disabled():
                actual = smote(dataset, level, k, rng)
    assert actual.x.tobytes() == expected.x.tobytes()
    assert actual.y.tobytes() == expected.y.tobytes()
    assert actual.weights.tobytes() == expected.weights.tobytes()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
