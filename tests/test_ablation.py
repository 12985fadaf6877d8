"""The design-choice ablations of ``repro.experiments.ablation``."""

from repro.experiments.ablation import pruning_ablation


def test_pruning_ablation_values():
    """DTS pruning shrinks the production auxiliary graph and leaves the
    schedule's cost unchanged, to the bit, on the ablation's N=15
    Haggle-like window (trace seed 77, distance seed 9)."""
    out = pruning_ablation()
    assert out["pruned_aux_nodes"] == 24_702
    assert out["unpruned_aux_nodes"] == 24_936
    assert out["pruned_cost"].hex() == "0x1.9ef9802837624p-33"
    assert out["unpruned_cost"].hex() == "0x1.9ef9802837624p-33"
