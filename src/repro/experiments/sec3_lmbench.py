"""Section 3 platform characterization: LMbench latency/bandwidth table.

Paper targets (reconstructed, see EXPERIMENTS.md): L1 1.43 ns, L2 ~9.6 ns,
main memory ~136.9 ns; read/write streaming bandwidth 3.57 / 1.77 GB/s on
one chip and 4.43 / 2.06 GB/s across both chips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.runcache import content_fingerprint, memo
from repro.core.study import Study
from repro.lmbench import (
    BandwidthResult,
    LatencyPoint,
    bw_mem,
    lat_mem_rd,
    latency_plateaus,
)
from repro.machine.params import MachineParams


@dataclass
class Sec3Result(ExperimentResult):
    """Measured platform characteristics."""

    latency_points: List[LatencyPoint]
    plateaus: Dict[str, float]
    bandwidth: Dict[str, BandwidthResult]


#: The paper's reported values (GB/s and ns).
PAPER_VALUES = {
    "l1_ns": 1.43,
    "l2_ns": 9.6,
    "memory_ns": 136.9,
    "read_1chip": 3.57,
    "write_1chip": 1.77,
    "read_2chip": 4.43,
    "write_2chip": 2.06,
}


def run(
    ctx: Union[RunContext, Study, None] = None,
    params: Optional[MachineParams] = None,
) -> Sec3Result:
    """Run the latency sweep and the four bandwidth measurements."""
    params = params if params is not None else as_context(ctx).machine_params()
    points, bandwidth = memo(
        content_fingerprint("lmbench", params),
        ("sec3",),
        lambda: _measure(params),
    )
    return Sec3Result(
        latency_points=points,
        plateaus=latency_plateaus(points),
        bandwidth=bandwidth,
    )


def _measure(
    params: MachineParams,
) -> Tuple[List[LatencyPoint], Dict[str, BandwidthResult]]:
    """The latency sweep and the four bandwidth measurements."""
    return lat_mem_rd(params=params), {
        "read_1chip": bw_mem(1, "read", params),
        "write_1chip": bw_mem(1, "write", params),
        "read_2chip": bw_mem(2, "read", params),
        "write_2chip": bw_mem(2, "write", params),
    }


def report(result: Sec3Result) -> str:
    """Render the Section-3 table with paper-vs-measured columns."""
    rows = []
    for key, label in [
        ("l1_ns", "L1 latency (ns)"),
        ("l2_ns", "L2 latency (ns)"),
        ("memory_ns", "memory latency (ns)"),
    ]:
        rows.append([label, PAPER_VALUES[key], result.plateaus[key]])
    for key, label in [
        ("read_1chip", "read BW, 1 chip (GB/s)"),
        ("write_1chip", "write BW, 1 chip (GB/s)"),
        ("read_2chip", "read BW, 2 chips (GB/s)"),
        ("write_2chip", "write BW, 2 chips (GB/s)"),
    ]:
        rows.append(
            [label, PAPER_VALUES[key], result.bandwidth[key].gbytes_per_second]
        )
    return format_table(
        ["quantity", "paper", "measured"],
        rows,
        title="Section 3: platform characterization (LMbench)",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
