"""One registry contract, held by the machine and the workload registry.

Each kind's ``list_*``/``resolve_*`` pair follows the same rules: edits
to a spec file invalidate the cached listing, two files claiming one
name are refused, a file shadows a same-named built-in, a path token
loads that file, the full and short fingerprint resolve, and an unknown
name gets a did-you-mean suggestion.
"""

import json
import os

import pytest

from repro.cli import main
from repro.machine.registry import (
    UnknownMachineError,
    list_machines,
    resolve_machine,
)
from repro.machine.spec import MachineSpec, SpecError
from repro.workload.registry import (
    UnknownWorkloadError,
    list_workloads,
    resolve_workload,
)
from repro.workload.spec import WorkloadSpecError


def _write_machine(path, name, scale=1.0):
    MachineSpec.from_dict({
        "name": name, "machine": {"memory_latency_ns": 200.0 * scale},
    }).save(path)
    return path


def _write_workload(path, name, scale=1.0):
    path.write_text(json.dumps({
        "schema": 1,
        "name": name,
        "workload": {
            "problem_class": "B",
            "phases": [{
                "name": "only",
                "openmp": "parallel",
                "instructions": 1e9 * scale,
                "mem_ops_per_instr": 0.4,
                "access_mix": [{
                    "kind": "streaming",
                    "weight": 1.0,
                    "footprint_bytes": 2 ** 24,
                }],
                "code_footprint_uops": 5000.0,
                "code_footprint_bytes": 12000.0,
                "branches_per_instr": 0.1,
                "branch_misp_intrinsic": 0.01,
                "branch_sites": 40,
                "ilp": 1.5,
            }],
        },
    }))
    return path


class Kind:
    def __init__(self, name, env, write, listing, resolve, error, unknown,
                 builtin, typo):
        self.name = name
        self.env = env
        self.write = write
        self.listing = listing
        self.resolve = resolve
        self.error = error
        self.unknown = unknown
        self.builtin = builtin
        self.typo = typo


KINDS = {
    "machine": Kind(
        "machine", "REPRO_MACHINES_DIR", _write_machine, list_machines,
        resolve_machine, SpecError, UnknownMachineError, "paxville",
        "paxvile",
    ),
    "workload": Kind(
        "workload", "REPRO_WORKLOADS_DIR", _write_workload,
        lambda: list_workloads("B"), lambda t: resolve_workload(t, "B"),
        WorkloadSpecError, UnknownWorkloadError, "triad", "triadd",
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def test_edits_invalidate_the_cache(kind, tmp_path, monkeypatch):
    path = kind.write(tmp_path / "custom.json", "custom")
    monkeypatch.setenv(kind.env, str(tmp_path))
    before = kind.resolve("custom").fingerprint
    kind.write(path, "custom", scale=2.0)
    # Force a visible mtime change even on coarse filesystems.
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    assert kind.resolve("custom").fingerprint != before


def test_duplicate_names_rejected(kind, tmp_path, monkeypatch):
    kind.write(tmp_path / "a.json", "dup")
    kind.write(tmp_path / "b.json", "dup")
    monkeypatch.setenv(kind.env, str(tmp_path))
    with pytest.raises(kind.error, match=f"duplicate {kind.name} name 'dup'"):
        kind.listing()


def test_file_shadows_builtin(kind, tmp_path, monkeypatch):
    monkeypatch.setenv(kind.env, str(tmp_path))
    assert kind.resolve(kind.builtin).source is None
    path = kind.write(tmp_path / f"{kind.builtin}.json", kind.builtin)
    spec = kind.resolve(kind.builtin)
    assert spec.source == path
    assert kind.listing()[kind.builtin] is spec


def test_path_token_loads_file(kind, tmp_path):
    path = kind.write(tmp_path / "custom.json", "custom")
    for token in (path, str(path)):
        spec = kind.resolve(token)
        assert spec.name == "custom" and spec.source == path


def test_full_and_short_fingerprint_resolve(kind, tmp_path, monkeypatch):
    kind.write(tmp_path / "custom.json", "custom")
    monkeypatch.setenv(kind.env, str(tmp_path))
    for name in (kind.builtin, "custom"):
        spec = kind.resolve(name)
        assert kind.resolve(spec.fingerprint) is spec
        assert kind.resolve(spec.short_fingerprint) is spec


def test_unknown_name_suggests(kind):
    with pytest.raises(kind.unknown) as info:
        kind.resolve(kind.typo)
    assert f"unknown {kind.name} {kind.typo!r}" in str(info.value)
    assert f"did you mean {kind.builtin!r}?" in str(info.value)
    assert kind.builtin in info.value.valid


def test_cli_run_accepts_a_short_machine_fingerprint(capsys):
    token = resolve_machine("paxville").short_fingerprint
    assert main(["run", "fig3", "--machine", token]) == 0
    assert capsys.readouterr().out.strip()
