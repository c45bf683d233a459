"""Extension: would the paper's conclusions survive a shared L2?

Paxville gives each core a private 1 MB L2; the next Intel generation
(Woodcrest/Conroe, shipping months after the paper) shared one large L2
among a chip's cores.  This study re-runs the headline comparisons on
two hypothetical machines — the same platform with (a) the existing
2 MB per chip pooled into one shared L2, and (b) a doubled 4 MB shared
L2 — and reports which findings flip:

* sharing lets one core's working set use the whole pool (good for
  mixed loads and for SP's window fit), but
* co-runners now fight for L2 capacity *across cores*, not just across
  HT siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis import findings
from repro.analysis.report import format_table
from repro.analysis.result import ExperimentResult
from repro.core.context import RunContext, as_context
from repro.core.study import Study
from repro.machine.configurations import Architecture
from repro.machine.params import MachineParams
from repro.machine.registry import DEFAULT_MACHINE, resolve_machine
from repro.machine.spec import MachineSpec, SpecOverride


def shared_l2_spec(
    l2_mb_per_chip: int = 2, base: Optional[MachineSpec] = None
) -> MachineSpec:
    """A variant of *base* (default: stock Paxville) whose chips pool
    their L2 into one shared cache (Woodcrest-style), all else equal.

    Every size derives from the base platform by *re-scoping* the L2:
    widening ``l2_scope`` from ``core`` to ``chip`` makes all four of a
    chip's contexts share one cache (the sharer count follows from the
    topology), and the size override pools the capacity.  The 2 MB and
    4 MB points canonicalize to the same parameters as the registered
    ``nextgen-shared-l2`` machines, so both routes produce identical
    artifacts and share run-cache entries (the cache keys on parameter
    contents, not names).  A base with an N-level ``hierarchy`` has no
    flat ``l2`` to re-scope (``base.flat_l2`` is false): the override
    raises ``SpecError``.
    """
    base = base if base is not None else resolve_machine(DEFAULT_MACHINE)
    sharers = base.params.topo.contexts_in_scope("chip")
    return base.override(
        SpecOverride.set("l2_scope", "chip"),
        SpecOverride.set("l2.shared_contexts", sharers),
        SpecOverride.set(
            "l2.size_bytes", l2_mb_per_chip * 1024 * 1024
        ),
        name=f"nextgen-shared-l2-{l2_mb_per_chip}mb",
        description=(
            f"{base.name} with the L2 re-scoped to the chip and pooled to "
            f"{l2_mb_per_chip} MB (Woodcrest-style)"
        ),
    )


def shared_l2_params(
    l2_mb_per_chip: int = 2, base: Optional[MachineSpec] = None
) -> MachineParams:
    """Engine-facing parameters of :func:`shared_l2_spec`."""
    return shared_l2_spec(l2_mb_per_chip, base).to_params()


@dataclass
class NextGenResult(ExperimentResult):
    """Headline findings per machine variant."""

    variants: List[str] = field(default_factory=list)
    #: variant -> benchmark -> config -> speedup.
    speedups: Dict[str, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )
    #: variant -> benchmarks faster at HT on 2-8-2.
    ht8_winners: Dict[str, List[str]] = field(default_factory=dict)
    #: variant -> average speedup of ht_off_4_2 / ht_on_8_2.
    avg_4_2: Dict[str, float] = field(default_factory=dict)
    avg_8_2: Dict[str, float] = field(default_factory=dict)


#: Display label -> pooled shared-L2 MB per chip of the what-if rows.
#: Variants derive from the context's machine through
#: :func:`shared_l2_spec` scope overrides; the registered
#: ``nextgen-shared-l2`` spec files document the same machines.
VARIANTS = {
    "shared_2MB_per_chip": 2,
    "shared_4MB_per_chip": 4,
}

#: Why a shared-L2 variant has no row on a machine whose caches are a
#: ``hierarchy`` list: its L2 is one level of that list, not the flat
#: ``l2`` that :func:`shared_l2_spec` re-scopes.  Such a variant stays in
#: ``variants`` but has no speedups.
NOT_APPLICABLE = "not applicable: the L2 is a hierarchy level"


def l2_label(params: MachineParams) -> str:
    """The L2 organization of a machine, the label of its own row: e.g.
    ``private_1MB_per_core`` on stock Paxville, ``shared_4MB_per_chip``
    on a chip-shared 4 MB L2."""
    size = params.l2.size_bytes
    amount = f"{size >> 20}MB" if size % (1 << 20) == 0 else f"{size >> 10}KB"
    kind = "private" if params.l2_scope in ("thread", "core") else "shared"
    return f"{kind}_{amount}_per_{params.l2_scope}"


def run(
    ctx: Union[RunContext, Study, None] = None,
    benchmarks: Optional[Sequence[str]] = None,
    problem_class: Optional[str] = None,
) -> NextGenResult:
    """The context's machine as it is, then each shared-L2 variant of it
    (a variant with the machine's own L2 organization is that machine,
    so it gets no second row)."""
    ctx = as_context(ctx)
    machine = ctx.machine_spec()
    benches = list(benchmarks or ctx.workload_names())
    own = l2_label(machine.params)
    result = NextGenResult(variants=[own])
    rows = [(own, ctx.params)]
    for name, l2_mb in VARIANTS.items():
        if name == own:
            continue
        result.variants.append(name)
        if machine.flat_l2:
            rows.append((name, shared_l2_params(l2_mb, machine)))
    for name, params in rows:
        study = ctx.study(problem_class=problem_class, params=params)
        table = study.speedup_table(benchmarks=benches)
        result.speedups[name] = {
            b: {c: table.get(b, c) for c in table.configs}
            for b in table.benchmarks
        }
        result.ht8_winners[name] = findings.ht8_winners(table)
        result.avg_4_2[name] = table.column_average("ht_off_4_2")
        result.avg_8_2[name] = table.column_average("ht_on_8_2")
    return result


def report(result: NextGenResult) -> str:
    rows, notes = [], []
    for v in result.variants:
        if v not in result.speedups:
            rows.append([v, "-", "-", "-", "-"])
            notes.append(f"{v}: {NOT_APPLICABLE}")
            continue
        rows.append([
            v,
            result.avg_4_2[v],
            result.avg_8_2[v],
            findings.ht8_slowdown({
                Architecture.CMP_BASED_SMP: result.avg_4_2[v],
                Architecture.CMT_BASED_SMP: result.avg_8_2[v],
            }) * 100.0,
            ",".join(result.ht8_winners[v]) or "-",
        ])
    table = format_table(
        ["L2 organization", "avg HToff-2-4-2", "avg HTon-2-8-2",
         "HT-on-8 slowdown %", "HTon-8-2 winners"],
        rows,
        title="Next-generation what-if: private vs chip-shared L2",
        float_fmt="%.2f",
    )
    table = "\n".join([table, *notes])
    detail_rows = []
    for v in result.variants:
        for bench in sorted(result.speedups.get(v, {})):
            per = result.speedups[v][bench]
            detail_rows.append([
                v, bench, per["ht_on_4_1"], per["ht_off_4_2"],
                per["ht_on_8_2"],
            ])
    detail = format_table(
        ["variant", "benchmark", "HTon-2-4-1", "HToff-2-4-2",
         "HTon-2-8-2"],
        detail_rows,
        title="Per-benchmark detail",
        float_fmt="%.2f",
    )
    return table + "\n\n" + detail


def main() -> None:  # pragma: no cover - CLI convenience
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
