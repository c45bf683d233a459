"""The shared spec-file layer (repro.specfile) seen from every entry point.

A malformed spec file must surface as a spec error wherever it enters:
the loaders raise the kind's ``SpecError``, the CLI exits 2 with the
path in the message, and a serve submission is a ``JobSpecError``
(HTTP 400).  Without :mod:`tomllib` (Python < 3.11) the registries skip
``.toml`` files instead of failing, while an explicit ``.toml`` path is
still refused with a clear message.
"""

import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.machine.registry import list_machines, machines_dir, resolve_machine
from repro.machine.spec import SpecError, load_spec
from repro.serve.schema import JobSpecError, parse_job
from repro.workload.registry import list_workloads, workloads_dir
from repro.workload.spec import WorkloadSpecError, load_workload_spec

#: (kind, file name, bytes) of each malformed file.
MALFORMED = {
    "machine-toml-syntax": (
        "machine", "bad.toml", b'name = "bad"\n[machine\n',
    ),
    "machine-json-not-utf8": ("machine", "bad.json", b"\xff\xfe{"),
    "workload-json-not-utf8": ("workload", "bad.json", b"\xff\xfe{"),
}


def _load(kind, path, monkeypatch, capsys):
    loader = load_spec if kind == "machine" else load_workload_spec
    with pytest.raises(SpecError) as info:
        loader(path)
    if kind == "workload":
        assert isinstance(info.value, WorkloadSpecError)
    return str(info.value)


def _run(kind, path, monkeypatch, capsys):
    assert main(["run", "fig3", f"--{kind}", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def _list(kind, path, monkeypatch, capsys):
    env = "REPRO_MACHINES_DIR" if kind == "machine" else "REPRO_WORKLOADS_DIR"
    monkeypatch.setenv(env, str(path.parent))
    assert main([f"{kind}s"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def _submit(kind, path, monkeypatch, capsys):
    with pytest.raises(JobSpecError) as info:
        parse_job({
            "kind": "run", "workload": "cg", "config": "serial",
            kind: str(path),
        })
    message = str(info.value)
    assert message.startswith(f"{kind}: ")
    return message


ENTRY_POINTS = {"load": _load, "run": _run, "list": _list, "parse_job": _submit}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_a_spec_error(
    case, entry, tmp_path, monkeypatch, capsys
):
    kind, name, content = MALFORMED[case]
    if entry == "list" and name.endswith(".toml") and sys.version_info < (3, 11):
        pytest.skip("registries skip .toml files without tomllib")  # pragma: no cover
    path = tmp_path / name
    path.write_bytes(content)
    message = ENTRY_POINTS[entry](kind, path, monkeypatch, capsys)
    assert str(path) in message


def test_registries_skip_toml_without_tomllib(monkeypatch):
    if machines_dir() is None or workloads_dir() is None:  # pragma: no cover
        pytest.skip("no machines/ or workloads/ directory in this deployment")
    monkeypatch.setitem(sys.modules, "tomllib", None)  # as on Python < 3.11
    machines = list_machines()
    assert "cascadelake-2s-numa" not in machines
    assert "broadwell-shared-l3" in machines
    assert resolve_machine("paxville").name == "paxville"
    workloads = list_workloads("B")
    assert "triad-l2" not in workloads and "minigmg-c" in workloads
    parse_job({"kind": "run", "workload": "triad", "config": "serial"})
    toml = Path(machines_dir()) / "cascadelake-2s-numa.toml"
    with pytest.raises(SpecError, match="Python 3.11"):
        load_spec(toml)
    with pytest.raises(SpecError, match="Python 3.11"):
        resolve_machine(str(toml))
