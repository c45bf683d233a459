"""The class-collapsed resolver equals the per-context oracle exactly.

:meth:`FixedPointResolver.resolve` solves each step once per
contention-equivalence class and fans the result out to the members.
On every machine the registry lists, every Table-1 configuration, and
both a single run and a pair run, each step's resolution must equal
:class:`tests.oracles.resolver.PerContextResolver`'s field for field
(bus outcomes included, floats compared with ``==``), and so must the
whole :class:`RunResult`.  The NUMA and big.LITTLE machines are where a
classifier that ignores sockets or core classes would merge contexts
that differ.  The registry's big.LITTLE machine puts each core class on
its own socket, so a synthetic one-socket variant (both classes behind
one socket) checks the core-class term on its own.
"""

import dataclasses
from typing import Dict, List

import pytest

from repro.core.context import override
from repro.core.study import Study
from repro.machine.configurations import CONFIGURATIONS
from repro.machine.params import MachineParams
from repro.machine.registry import list_machines
from repro.sim.engine import Engine
from repro.sim.resolver import FixedPointResolver, ResolvedContext
from tests.oracles.resolver import PerContextResolver
from tests.test_batch_equivalence import assert_identical_runs


def _machines() -> Dict[str, MachineParams]:
    params = {name: spec.params for name, spec in list_machines().items()}
    big_little = params["biglittle-demo"]
    params["biglittle-one-socket"] = dataclasses.replace(
        big_little,
        topo=dataclasses.replace(
            big_little.topo, sockets=1, chips_per_socket=2
        ),
    )
    return params


MACHINES = _machines()
#: (config, shape) pairs; a pair run needs two hardware contexts.
SHAPES = [
    (config, shape)
    for config, cfg in CONFIGURATIONS.items()
    for shape in ("single", "pair")
    if shape == "single" or cfg.n_contexts >= 2
]


class _CheckedResolver(FixedPointResolver):
    """Resolves like production and checks every step against the
    oracle on the same active set."""

    def __init__(self, oracle: FixedPointResolver, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle = oracle
        self.steps = 0

    def resolve(self, active) -> Dict[str, ResolvedContext]:
        got = super().resolve(active)
        want = self.oracle.resolve(active)
        assert list(got) == list(want)
        for label, r in got.items():
            w = want[label]
            assert r == w, (self.steps, label)
            assert r.bus == w.bus, (self.steps, label)
        assert self.last_residual == self.oracle.last_residual
        self.steps += 1
        return got


def _engines(study: Study, config: str) -> List[Engine]:
    """A production engine checked step by step, and an oracle engine."""
    base = study.engine(config)
    parts = (base.config, base.params, base.topology, base.scheduler,
             base.omp)
    oracle = PerContextResolver(*parts)
    checked = Engine(base.config, base.params, base.scheduler, base.omp,
                     resolver=_CheckedResolver(PerContextResolver(*parts),
                                               *parts))
    return [checked, Engine(base.config, base.params, base.scheduler,
                            base.omp, resolver=oracle)]


@pytest.mark.parametrize("config,shape", SHAPES)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_class_collapse_equals_the_per_context_oracle(machine, config, shape):
    study = Study("W", params=MACHINES[machine])
    checked, oracle = _engines(study, config)
    if shape == "single":
        def run(e):
            return e.run_single(study.workload("cg"))
    else:
        def run(e):
            return e.run_pair(study.workload("mg"), study.workload("ft"))
    with override(verify=False):
        got = run(checked)
        want = run(oracle)
    assert checked.resolver.steps > 0
    assert_identical_runs(got, want, f"{machine}/{config}/{shape}")
