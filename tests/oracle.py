"""Independent reference implementations the tests compare against.

Campaign executor: a plain nested loop over ``Campaign._run_one`` in
canonical order -- variable, bit, injection time, test case -- with no
pool, no injection hints and no task graph.  Comparing an executor's
records against it checks serial == pooled and pruned == exhaustive
against a path that shares none of the executor's machinery.

Step 4 mining: C4.5 pruning that re-walks each kept subtree to sum its
leaves' pessimistic estimates, and SMOTE that builds each seed's
synthetic rows inside the seed loop.  These are the straightforward
formulations the one-pass pruning and the one-block synthesis must
reproduce bit for bit.
"""

import numpy as np

from repro.injection.bitflip import BitFlip
from repro.injection.campaign import CampaignResult
from repro.injection.golden import golden_runs_for
from repro.mining.dataset import Dataset
from repro.mining.knn import NearestNeighbours
from repro.mining.sampling import oversample_minority
from repro.mining.tree.node import DecisionNode, LeafNode
from repro.mining.tree.pruning import pessimistic_errors


def execute_pairs(campaign, pairs, golden_runs):
    """The records of ``pairs`` ((variable, kind, bit) triples), in order."""
    config = campaign.config
    return [
        campaign._run_one(BitFlip(name, kind, bit), time, tc, golden_runs[tc])
        for name, kind, bit in pairs
        for time in config.injection_times
        for tc in config.test_cases
    ]


def serial_result(campaign):
    """The whole campaign, run by the oracle loop."""
    golden_runs = golden_runs_for(campaign.target, campaign.config.test_cases)
    pairs = [
        (spec.name, spec.kind, bit)
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
    ]
    return CampaignResult(
        campaign.target.name,
        campaign.config,
        execute_pairs(campaign, pairs, golden_runs),
        golden_runs,
        campaign.variable_specs,
    )


def subtree_errors(node, confidence_factor):
    """Pessimistic estimate of a subtree: the sum over its leaves."""
    if isinstance(node, LeafNode):
        return pessimistic_errors(
            node.total_weight, node.training_errors, confidence_factor
        )
    return sum(subtree_errors(child, confidence_factor) for child in node.children)


def prune_tree(node, confidence_factor):
    """C4.5 subtree replacement, re-walking every kept subtree."""
    if isinstance(node, LeafNode):
        return node
    assert isinstance(node, DecisionNode)
    node.children = [prune_tree(child, confidence_factor) for child in node.children]
    leaf_estimate = pessimistic_errors(
        node.total_weight, node.training_errors, confidence_factor
    )
    if leaf_estimate <= subtree_errors(node, confidence_factor) + 0.1:
        return LeafNode(node.class_weights)
    return node


def smote(dataset, level, k, rng, positive=1):
    """SMOTE building each seed's rows as its draws are made.

    Neighbours come from per-seed index queries; argument checking is
    left to the implementation under test.
    """
    positive_idx = np.flatnonzero(dataset.y == positive)
    minority = dataset.subset(positive_idx)
    if len(minority) == 1:
        return oversample_minority(dataset, level, rng, positive)
    index = NearestNeighbours(minority)
    numeric = np.array([a.is_numeric for a in dataset.attributes])
    nominal = ~numeric
    n_nominal = int(np.count_nonzero(nominal))
    r_whole, r_frac = divmod(level / 100.0, 1.0)
    chunks = []
    for i in range(len(minority)):
        r = int(r_whole) + (1 if rng.random() < r_frac else 0)
        if r == 0:
            continue
        neighbours = index.neighbours(minority.x[i], k, exclude=i)
        if len(neighbours) == 0:
            continue
        choices = rng.choice(neighbours, size=r, replace=True)
        seed = minority.x[i]
        others = minority.x[choices]
        draws = rng.random(r * (1 + n_nominal)).reshape(r, 1 + n_nominal)
        q = draws[:, :1]
        block = np.repeat(seed[None, :], r, axis=0)
        block[:, numeric] = seed[numeric] + q * (others[:, numeric] - seed[numeric])
        if n_nominal:
            take_other = draws[:, 1:] < 0.5
            block[:, nominal] = np.where(take_other, others[:, nominal], seed[nominal])
        chunks.append(block)
    if not chunks:
        return dataset.copy()
    rows = np.concatenate(chunks, axis=0)
    synthetic = Dataset(
        dataset.attributes,
        dataset.class_attribute,
        rows,
        np.full(len(rows), positive, dtype=np.int64),
        name=dataset.name,
    )
    return dataset.concat(synthetic).shuffled(rng)
