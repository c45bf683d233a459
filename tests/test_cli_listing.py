"""Exact stdout of the ``machines`` and ``workloads`` commands.

The listings copy the checked-in ``machines/`` and ``workloads/`` spec
files into a temporary registry directory, so provenance paths are
known; ``{machines}``/``{workloads}`` in the expected text stand for
those directories.  A change to a spec file's contents changes its
fingerprint here too, which is the point: the listings and every
fingerprint are pinned.
"""

import shutil
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[1]

MACHINES = """\
biglittle-demo           7749ee934aff  clock=2.8GHz l2=1MB private/core bus=3.57GB/s mem=136.9ns  [{machines}/biglittle-demo.json]
broadwell-shared-l3      b0d13dada91e  clock=2.4GHz llc=8MB shared/chip bus=12.80GB/s mem=95.0ns  [{machines}/broadwell-shared-l3.json]
cascadelake-2s-numa      73c397dc65a7  clock=2.5GHz llc=11MB shared/chip bus=21.30GB/s mem=89.0ns  [{machines}/cascadelake-2s-numa.toml]
nextgen-shared-l2        74dd64b266c7  clock=2.8GHz l2=2MB shared/chip bus=3.57GB/s mem=136.9ns  [{machines}/nextgen-shared-l2.json]
nextgen-shared-l2-4mb    21f5d0653f13  clock=2.8GHz l2=4MB shared/chip bus=3.57GB/s mem=136.9ns  [{machines}/nextgen-shared-l2-4mb.json]
paxville                 5decdb848071  clock=2.8GHz l2=1MB private/core bus=3.57GB/s mem=136.9ns  [{machines}/paxville.json]
paxville-fast-bus        9c0599d4f2d7  clock=2.8GHz l2=1MB private/core bus=7.14GB/s mem=136.9ns  [{machines}/paxville-fast-bus.toml]
paxville-no-prefetch     4f6179fcb58b  clock=2.8GHz l2=1MB private/core bus=3.57GB/s mem=136.9ns  [{machines}/paxville-no-prefetch.json]
"""


MACHINE_DETAIL = """\
cascadelake-2s-numa  73c397dc65a7  [{machines}/cascadelake-2s-numa.toml]
  Two-socket Cascade Lake-style NUMA box: chip-shared L3, remote tier 1.74x latency / 0.62x bandwidth

topology: 2 socket(s) x 1 chip(s)/socket x 2 core(s)/chip x 2 thread(s)/core = 8 contexts
  socket 0
    chip 0 @ 2.50GHz
      core 0: A0 A1
      core 1: A2 A3
  socket 1
    chip 1 @ 2.50GHz
      core 0: A4 A5
      core 1: A6 A7

hierarchy:
  level  scope      size  line assoc   latency sharers
  l1d    core       32KB   64B     8     4.0cy       2
  l2     core        1MB   64B    16    14.0cy       2
  l3     chip       11MB   64B    11    50.0cy       4
  memory: 89.0ns (222.5 cycles at 2.50GHz), bus 21.30GB/s read per chip

numa tiers (socket x socket multipliers):
  latency:   1.00   1.74
             1.74   1.00
  bandwidth:  1.00   0.62
              0.62   1.00
"""


WORKLOADS_CLASS_S = """\
BT             afc0e9b69ed2  kind=application class=S phases=4 instr=7.3e+08 mem=0.44 ws=552.0KB  [built-in]
CG             394fce352e11  kind=kernel class=S phases=4 instr=1.6e+08 mem=0.46 ws=2.9MB  [built-in]
EP             1d834d2f8461  kind=kernel class=S phases=1 instr=1.7e+09 mem=0.08 ws=3.0KB  [built-in]
FT             0aaf38d148ab  kind=kernel class=S phases=4 instr=3.8e+08 mem=0.38 ws=8.0MB  [built-in]
IS             27aa74629f1a  kind=kernel class=S phases=1 instr=4.0e+07 mem=0.55 ws=524.0KB  [built-in]
LU             e62af926a011  kind=application class=S phases=3 instr=2.3e+08 mem=0.48 ws=280.0KB  [built-in]
MG             f0e49f8378a7  kind=kernel class=S phases=3 instr=1.6e+07 mem=0.50 ws=847.1KB  [built-in]
SP             c87e384b8361  kind=application class=S phases=5 instr=4.0e+08 mem=0.52 ws=480.5KB  [built-in]
minigmg        ebb80debca1b  kind=application class=S phases=4 instr=2.1e+07 mem=0.50 ws=1.0MB  [built-in]
minigmg-c      e043f26fea0e  kind=application class=C phases=8 instr=2.0e+11 mem=0.50 ws=4.0GB  [{workloads}/minigmg-c.json]
strided-512    7072b915dc66  kind=kernel class=S phases=1 instr=5.2e+07 mem=0.50 ws=256.0MB  [{workloads}/strided-512.json]
strided-load   793f4ecbf0cd  kind=kernel class=S phases=1 instr=5.2e+07 mem=0.50 ws=256.5KB  [built-in]
triad          814b4837072d  kind=kernel class=S phases=1 instr=3.3e+07 mem=0.60 ws=384.5KB  [built-in]
triad-l2       d379aa47099b  kind=kernel class=S phases=1 instr=3.3e+08 mem=0.60 ws=768.5KB  [{workloads}/triad-l2.toml]
"""


WORKLOAD_DETAIL = """\
minigmg  2d1199409880  [built-in]
  miniGMG-style geometric multigrid V-cycle: level-by-level 8x-shrinking working sets plus a barrier-bound bottom solve

kind application, class B, memory-bound score 0.80
7 phase(s), 2.53e+10 uops total, working set 512.0MB

phases:
  phase            openmp       uops mem/uop      wset barriers  iters  mix
  smooth_l0        parallel  2.2e+10    0.50   512.0MB        6     10  stencil:0.85 + random:0.15
  smooth_l1        parallel  2.8e+09    0.50    64.0MB        6     10  stencil:0.85 + random:0.15
  smooth_l2        parallel  3.5e+08    0.50     8.0MB        6     10  stencil:0.85 + random:0.15
  smooth_l3        parallel  4.3e+07    0.50     1.0MB        6     10  stencil:0.85 + random:0.15
  smooth_l4        parallel  5.4e+06    0.50   132.0KB        6     10  stencil:0.85 + random:0.15
  smooth_l5        parallel  6.8e+05    0.50    20.0KB        6     10  stencil:0.85 + random:0.15
  bottom_solve     parallel  2.0e+06    0.42     6.0KB       96     10  stencil:0.70 + random:0.30
"""


@pytest.fixture
def registry_dirs(tmp_path, monkeypatch):
    if sys.version_info < (3, 11):  # pragma: no cover
        pytest.skip("the pinned listings include .toml specs (tomllib)")
    dirs = {}
    for kind, env in (("machines", "REPRO_MACHINES_DIR"),
                      ("workloads", "REPRO_WORKLOADS_DIR")):
        source = REPO / kind
        if not source.is_dir():  # pragma: no cover - installed package
            pytest.skip(f"no {kind}/ directory in this deployment")
        target = tmp_path / kind
        shutil.copytree(source, target)
        monkeypatch.setenv(env, str(target))
        dirs[kind] = target
    return dirs


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["machines"], MACHINES),
        (["machines", "cascadelake-2s-numa"], MACHINE_DETAIL),
        (["workloads", "--problem-class", "S"], WORKLOADS_CLASS_S),
        (["workloads", "minigmg"], WORKLOAD_DETAIL),
    ],
    ids=["machines", "machine-detail", "workloads-S", "workload-detail"],
)
def test_listing_stdout_is_pinned(argv, expected, registry_dirs, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected.format(**registry_dirs)
