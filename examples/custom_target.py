"""Bringing your own system: instrumenting a custom target.

The methodology is system-agnostic: anything that (a) exposes module
state at probe points and (b) has a failure specification can be
protected.  This example instruments a small bank-ledger service --
a system that is *not* one of the paper's case studies -- and walks
the whole pipeline to a generated detector:

* the ``Ledger`` module posts transactions against an account; its
  entry state (balance, amount, limit, fee scratch) is probed;
* the failure specification is a golden diff of the final statement;
* injected bit flips in the balance or amount corrupt the statement,
  while flips in the recomputed fee scratch variable are absorbed.

Run with::

    python examples/custom_target.py
"""

import random

from repro.core import Methodology, MethodologyConfig, RefinementGrid
from repro.injection import Campaign, CampaignConfig, Location, VariableSpec
from repro.injection.instrument import Harness
from repro.targets.base import TargetSystem


class BankLedgerTarget(TargetSystem):
    """Posts a deterministic batch of transactions per test case."""

    name = "BANK"

    def __init__(self, n_transactions: int = 12) -> None:
        self.n_transactions = n_transactions

    @property
    def modules(self) -> tuple[str, ...]:
        return ("Ledger",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        entry = (
            VariableSpec("balance", "int64"),     # cents
            VariableSpec("amount", "int64"),
            VariableSpec("overdraft_limit", "int64"),
            VariableSpec("fee_scratch", "int64"),
            VariableSpec("txn_index", "int32"),
        )
        exit_only = (
            VariableSpec("new_balance", "int64"),
            VariableSpec("rejected", "bool"),
        )
        if location is Location.ENTRY:
            return entry
        return entry + exit_only

    def _transactions(self, test_case: int) -> list[int]:
        rng = random.Random(0xB4A2 ^ test_case)
        return [rng.randint(-40_000, 60_000) for _ in range(self.n_transactions)]

    # The step protocol: begin() builds the test case's state, step()
    # posts one transaction, end() reads the statement off the state.
    # TargetSystem.run drives the loop.  Because the state is one
    # deep-copyable object between steps, campaigns snapshot the
    # fault-free prefix once and resume every injected run from the
    # step just before its injection.  (A target that overrides only
    # run(test_case, harness) works too; its injected runs replay the
    # whole fault-free prefix.)
    def begin(self, test_case: int) -> dict:
        return {
            "transactions": self._transactions(test_case),
            "balance": 100_000,  # cents
            "overdraft_limit": -50_000,
            "statement": [],
        }

    def n_steps(self, state: dict) -> int:
        return len(state["transactions"])

    def step(self, state: dict, txn_index: int, harness: Harness) -> None:
        probed = harness.probe(
            "Ledger",
            Location.ENTRY,
            {
                "balance": state["balance"],
                "amount": state["transactions"][txn_index],
                "overdraft_limit": state["overdraft_limit"],
                "fee_scratch": 0,
                "txn_index": txn_index,
            },
        )
        balance = int(probed["balance"])
        amount = int(probed["amount"])
        limit = int(probed["overdraft_limit"])
        # fee_scratch is recomputed from scratch: resilient.
        fee = 150 if amount < 0 else 0
        candidate = balance + amount - fee
        rejected = candidate < limit
        if not rejected:
            balance = candidate
        probed = harness.probe(
            "Ledger",
            Location.EXIT,
            {
                "balance": balance,
                "amount": amount,
                "overdraft_limit": limit,
                "fee_scratch": fee,
                "txn_index": txn_index,
                "new_balance": balance,
                "rejected": rejected,
            },
        )
        state["balance"] = int(probed["new_balance"])
        # The observable statement reports balances in $100 bands
        # (a summary report): sub-band corruption is absorbed
        # (inherent resilience), material corruption violates the
        # specification.
        state["statement"].append(
            (txn_index, state["balance"] // 10_000, bool(probed["rejected"]))
        )

    def end(self, state: dict):
        return tuple(state["statement"])

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


def main() -> None:
    target = BankLedgerTarget()

    config = CampaignConfig(
        module="Ledger",
        injection_location=Location.ENTRY,
        sample_location=Location.ENTRY,
        test_cases=tuple(range(8)),
        injection_times=(2, 5, 9),
        bits={"int64": (0, 2, 4, 6, 8, 20, 24, 28, 36, 44, 52, 63),
              "int32": (0, 4, 8, 16, 31)},
    )
    result = Campaign(target, config).run()
    dataset = result.to_dataset("BANK-Ledger")
    counts = dataset.class_counts()
    print(f"campaign: {result.n_runs} runs, failure rate "
          f"{result.failure_rate:.1%} (nofail={counts[0]} fail={counts[1]})")

    method = Methodology(MethodologyConfig(learner="c45", folds=5, seed=2))
    outcome = method.run(dataset, RefinementGrid.reduced())
    detector = outcome.refined.detector(
        location=config.sample_probe, name="ledger_detector"
    )
    summary = outcome.refined.summary()
    print(f"refined detector: TPR={summary['tpr']:.3f} "
          f"FPR={summary['fpr']:.4f} AUC={summary['auc']:.3f}")
    print("\ngenerated runtime assertion:\n")
    print(detector.to_source())

    # Use it inline, as the service would.
    suspicious = {"balance": 100_000 + 2**44, "amount": -5_000,
                  "overdraft_limit": -50_000, "fee_scratch": 0,
                  "txn_index": 3}
    normal = {"balance": 95_000, "amount": -5_000,
              "overdraft_limit": -50_000, "fee_scratch": 0, "txn_index": 3}
    print(f"flags corrupted state: {detector.check(suspicious)}")
    print(f"flags normal state   : {detector.check(normal)}")


if __name__ == "__main__":
    main()
