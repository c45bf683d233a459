"""The paper's Figure-3/Table-2 findings, each defined once.

The experiments that report these findings, the sensitivity sweep that
perturbs them and the headline tests all read the definitions here.
``averages`` arguments are
:func:`~repro.analysis.speedup.average_speedup_by_architecture` maps.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Mapping, NamedTuple

from repro.analysis.speedup import SpeedupTable, average_speedup_by_architecture
from repro.machine.configurations import Architecture

Averages = Mapping[Architecture, float]

#: The paper's values: Table 2's leaders and its two slowdown ratios.
PAPER_TOP_TWO = frozenset(
    {Architecture.CMP_BASED_SMP, Architecture.CMT_BASED_SMP}
)
PAPER_CMT_GAP = 0.036
PAPER_HT8_SLOWDOWN = 0.067


def ht8_winners(table: SpeedupTable) -> List[str]:
    """Benchmarks faster at HT on 2-8-2 than at HT off 2-4-2."""
    return [
        b for b in table.benchmarks
        if table.get(b, "ht_on_8_2") > table.get(b, "ht_off_4_2")
    ]


def top_two(averages: Averages) -> FrozenSet[Architecture]:
    """The two architectures with the highest average speedup."""
    ranked = sorted(averages, key=lambda a: averages[a], reverse=True)
    return frozenset(ranked[:2])


def ht8_slowdown(averages: Averages) -> float:
    """Fractional slowdown of HT on 2-8-2 (CMT-based SMP) versus HT off
    2-4-2 (CMP-based SMP)."""
    cmp_smp = averages[Architecture.CMP_BASED_SMP]
    return 1.0 - averages[Architecture.CMT_BASED_SMP] / cmp_smp


def cmt_gap(averages: Averages) -> float:
    """Fractional slowdown of CMT (one HT dual-core chip) versus
    CMP-based SMP."""
    cmp_smp = averages[Architecture.CMP_BASED_SMP]
    return 1.0 - averages[Architecture.CMT] / cmp_smp


class Finding(NamedTuple):
    """A boolean finding and the metric reported beside it, both read
    from one speedup table; ``label``, ``claim`` and ``metric_name``
    title the sensitivity report."""

    label: str
    claim: str
    metric_name: str
    metric: Callable[[SpeedupTable], float]
    holds: Callable[[SpeedupTable], bool]


#: 'Except for the [SP] benchmark, the performance of the HT on -8- case
#: is worse than the HT off -4- case' (the group-4 exception).
F1 = Finding(
    label="F1",
    claim="only SP wins at HT on 2-8-2",
    metric_name="SP speedup at HTon-2-8-2",
    metric=lambda table: table.get("SP", "ht_on_8_2"),
    holds=lambda table: ht8_winners(table) == ["SP"],
)

#: 'The CMP-based SMP and CMT-based SMP configurations have the highest
#: average speedup across all of the applications' (Table 2).
F2 = Finding(
    label="F2",
    claim="CMP/CMT-based SMP rank 1-2",
    metric_name="CMP-based SMP average speedup",
    metric=lambda table: table.column_average("ht_off_4_2"),
    holds=lambda table: (
        top_two(average_speedup_by_architecture(table)) == PAPER_TOP_TWO
    ),
)
