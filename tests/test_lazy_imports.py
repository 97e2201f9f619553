"""Cold-path imports: a subcommand loads only the modules it uses.

Each case runs in a fresh interpreter, because what matters is what ends up
in ``sys.modules`` of a process that did nothing else.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.gdsii import write
from repro.layout import gdsii_from_layout
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(argv, absent, cwd, exit_code=0):
    """Run ``repro <argv>`` and fail if any module in ``absent`` got imported."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        f"assert code == {exit_code}, code\n"
        f"loaded = [m for m in {list(absent)!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    return run_python(code, cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Two GDS versions, a marker database of the dirty one, a seeded cache."""
    path = tmp_path_factory.mktemp("lazy")
    write(gdsii_from_layout(build_design("uart")), path / "old.gds")
    dirty = build_design("uart")
    inject_violations(dirty, InjectionPlan(spacing=2), layer=asap7.M2, seed=1)
    write(gdsii_from_layout(dirty), path / "new.gds")
    cache = str(path / "cache")
    assert main(["check", str(path / "old.gds"), "--top", "top", "--cache-dir", cache]) == 0
    main(["check", str(path / "new.gds"), "--top", "top", "--output", str(path / "markers.json")])
    return path


def test_importing_the_cli_loads_neither_numpy_nor_a_backend():
    out = run_python(
        "import sys, repro.cli\n"
        "print([m for m in ('numpy', 'repro.core.sequential',"
        " 'repro.core.parallel', 'repro.gpu', 'repro.workloads.designs')"
        " if m in sys.modules])",
        cwd=None,
    )
    assert out.strip() == "[]"


def test_reading_the_ledger_stream_never_imports_numpy(tmp_path):
    """The run decode is stdlib only: arrays, one pattern, byte tables."""
    from .test_columnar_ingest import ledger_dirty_jpeg

    path = tmp_path / "ledger.gds"
    write(gdsii_from_layout(ledger_dirty_jpeg()), path)
    out = run_python(
        "import sys\n"
        "from repro.gdsii import read_layout_bytes\n"
        f"layout = read_layout_bytes(open({str(path)!r}, 'rb').read())\n"
        "print(sum(cell.num_local_polygons for cell in layout.cells.values()))\n"
        "print('numpy' in sys.modules)\n",
        cwd=None,
    )
    rings, numpy_loaded = out.split()
    assert int(rings) > 1000 and numpy_loaded == "False"


def test_public_names_still_resolve():
    run_python(
        "import repro as odrc\n"
        "from repro.core import recheck, Engine, ENGINE_MODES\n"
        "from repro import rules, gdsii\n"
        "assert odrc.Engine is Engine and odrc.rules is rules\n"
        "assert callable(odrc.gdsii.read_layout) and callable(recheck)\n"
        "assert odrc.rules.layer(19).width().greater_than(18).kind is odrc.RuleKind.WIDTH\n"
        "assert {'Engine', 'gdsii', 'rules'} <= set(dir(odrc))\n"
        "assert all(hasattr(odrc, name) for name in odrc.__all__)\n"
        "import repro.core, repro.workloads\n"
        "assert all(hasattr(repro.core, name) for name in repro.core.__all__)\n"
        "assert all(hasattr(repro.workloads, name) for name in repro.workloads.__all__)\n"
        "try:\n"
        "    odrc.no_such_name\n"
        "except AttributeError as error:\n"
        "    assert 'no_such_name' in str(error)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n",
        cwd=None,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "markers.json", "markers.json"],
        ["violations", "markers.json", "--severity", "error"],
        ["waive", "markers.json", "-o", "waivers.json"],
        ["cache", "stats", "--cache-dir", "cache"],
    ],
    ids=lambda argv: argv[0],
)
def test_lifecycle_commands_never_import_numpy(workdir, argv):
    run_cli(argv, absent=["numpy"], cwd=workdir)


def test_a_parallel_check_never_imports_numpy_ma(workdir):
    """``np.unique`` loads ``numpy.ma`` on first use (15-25 ms of a cold
    process); the parallel mode counts its row segments without it. Nor
    does it need ``multiprocessing.shared_memory`` (which pulls in
    ``socket`` and ``subprocess``): the check runs in one process."""
    out = run_cli(
        ["check", "new.gds", "--top", "top", "--mode", "parallel", "--no-cache"],
        absent=[
            "numpy.ma",
            "multiprocessing.shared_memory",
        ],
        cwd=workdir,
        exit_code=1,
    )
    assert "violation" in out


def test_a_sequential_check_with_a_cache_never_imports_numpy(workdir, tmp_path):
    """A cache directory holds only reports, so the oracle's cache path
    needs no NumPy: cold, and again from the stored report."""
    cache = str(tmp_path / "cache")
    argv = ["check", "new.gds", "--top", "top", "--cache-dir", cache]
    cold = run_cli(argv, absent=["numpy"], cwd=workdir, exit_code=1)
    assert "source: report-cache" not in cold
    stored = run_cli(argv, absent=["numpy"], cwd=workdir, exit_code=1)
    assert "source: report-cache" in stored


def test_sequential_recheck_skips_the_device_and_the_generators(workdir):
    out = run_cli(
        ["recheck", "old.gds", "new.gds", "--top", "top", "--cache-dir", "cache"],
        absent=[
            "numpy",
            "repro.gpu.kernels",
            "repro.workloads.designs",
            "repro.core.parallel",
        ],
        cwd=workdir,
        exit_code=1,
    )
    assert "baseline: report cache" in out
