"""The four end-to-end workloads of the ledger.

Each workload is closed-loop with one client and one op in flight, drives
the program from outside (``python -m repro`` children, or a ``repro
serve`` daemon over HTTP) and checks every timed output against the cold
sequential oracle. Why these four, and which layers each one stresses or
bypasses, is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import inputs as inp
from procs import CliResult, Daemon, run_cli
from repro.client import ClientError, ServeClient, report_json_to_csv

REPORT_ARGS = ["--top", inp.TOP, "--format", "csv", "--expand-instances"]
#: ``repro check`` exits 1 when it found blocking violations; the inputs
#: are dirty by construction, so 1 is the only good exit.
EXIT_VIOLATIONS = 1
#: ``GET violations`` requests that follow the recheck in one served turn.
READS_PER_TURN = 3


@dataclasses.dataclass(frozen=True)
class Size:
    """How big a run is. ``FULL`` is the benchmark; ``SMOKE`` is for tests."""

    design: str
    scale: int
    injected: int  # violations planted per kind
    n_edits: int  # distinct one-wire edit variants (ops cycle through them)
    passes: int  # traced run: in-process passes over every layer
    real_ops_per_pass: int  # traced run: outside-in ops timed before each pass
    import_repeats: int  # traced run: cold imports behind cli.import_s


FULL = Size(
    "jpeg", 2, injected=40, n_edits=48, passes=3, real_ops_per_pass=2, import_repeats=5
)
SMOKE = Size(
    "uart", 1, injected=4, n_edits=4, passes=2, real_ops_per_pass=1, import_repeats=2
)


@dataclasses.dataclass
class Sample:
    """One timed op: what it cost, and whether its output was right."""

    wall_s: float
    cpu_s: float
    ok: bool
    detail: str = ""


def make_inputs(seed: int, size: Size) -> inp.Inputs:
    """Input synthesis plus the oracle: paid once per run, before set-up."""
    inputs = inp.synthesize(
        seed,
        design=size.design,
        scale=size.scale,
        injected=size.injected,
        n_edits=size.n_edits,
    )
    inputs.base_csv = inp.oracle_csv(inputs.base_gds)
    return inputs


class Workload:
    """Set-up, one timed op at a time, and teardown of one workload."""

    name = ""

    def __init__(self, inputs: inp.Inputs, size: Size, workdir: Path) -> None:
        self.inputs = inputs
        self.size = size
        self.workdir = workdir
        self.base_csv = inputs.base_csv
        self.base_rows = inp.csv_rows(inputs.base_csv)
        self.rss_mb = 0.0
        #: op index -> (edit index, csv text) kept for the byte-for-byte
        #: check of the first and last variant against their own oracle.
        self.variant_outputs: Dict[int, tuple] = {}

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """What the program needs before the timed phase: files on disk,
        seeded caches, a daemon with a checked session, one warm-up op."""
        self.workdir.mkdir(parents=True)
        (self.workdir / "base.gds").write_bytes(self.inputs.base_gds)
        self.prepare()
        warm = self.op(-1)
        if not warm.ok:
            raise RuntimeError(f"{self.name}: warm-up op failed: {warm.detail}")
        self.variant_outputs.clear()

    def prepare(self) -> None:
        """Workload-specific set-up before the warm-up op."""

    # -- the timed op ------------------------------------------------------------

    def between(self, k: int) -> None:
        """Untimed preparation of op ``k`` (cache restore and the like)."""

    def op(self, k: int) -> Sample:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- verification ------------------------------------------------------------

    def expected_rows(self, edit: int):
        return self.base_rows + inp.csv_rows("header\n" + self.inputs.edits[edit].row)

    def turn_queries(self, k: int) -> List[inp.Query]:
        """The ``GET violations`` filters of served turn ``k``."""
        queries = self.inputs.queries
        first = k * READS_PER_TURN
        return [queries[(first + i) % len(queries)] for i in range(READS_PER_TURN)]

    def turn_mismatch(self, edit: int, text: str, queries, listings) -> str:
        """What is wrong with a served turn's replies ('' if nothing)."""
        expected = self.expected_rows(edit)
        detail = ""
        if inp.csv_rows(text) != expected:
            detail = "recheck rows differ from base oracle + the edit's row"
        for query, listing in zip(queries, listings):
            want = inp.filter_rows(expected, query)
            got = inp.payload_rows(listing["violations"])
            if got != want or listing["total"] != sum(want.values()):
                detail = f"violations listing differs for {query}"
        return detail

    def failed_variant_ops(self) -> List[int]:
        """Ops whose variant output differs from that variant's own oracle.

        Checked for the first and last variant op of the run, after the
        timed phase: a whole cold check per variant is too dear to pay on
        every op, where the row-multiset check stands in for it.
        """
        if not self.variant_outputs:
            return []
        ops = sorted(self.variant_outputs)
        failed = []
        for k in {ops[0], ops[-1]}:
            edit, text = self.variant_outputs[k]
            if text != inp.oracle_csv(self.inputs.edit_gds(edit)):
                failed.append(k)
        return failed

    def _cli_sample(
        self, result: CliResult, check: Callable[[str], str]
    ) -> Sample:
        """A CLI child's cost plus the verdict on what it printed."""
        self.rss_mb = max(self.rss_mb, result.rss_mb)
        if result.timed_out:
            detail = "timed out, process group killed"
        elif result.exit_code != EXIT_VIOLATIONS:
            tail = result.stderr.decode("utf-8", "replace").strip()[-300:]
            detail = f"exit code {result.exit_code}: {tail}"
        else:
            detail = check(result.stdout.decode("utf-8", "replace"))
        return Sample(result.wall_s, result.cpu_s, not detail, detail)


class _ColdCheck(Workload):
    """``repro check base.gds`` from nothing, output byte-compared."""

    mode_args: List[str] = []

    def op(self, k: int) -> Sample:
        result = run_cli(
            ["check", "base.gds", *REPORT_ARGS, "--no-cache", *self.mode_args],
            cwd=self.workdir,
        )
        return self._cli_sample(
            result,
            lambda text: "" if text == self.base_csv else "output differs from the oracle",
        )


class ColdSeq(_ColdCheck):
    name = "cold_seq"


class ColdPar(_ColdCheck):
    name = "cold_par"
    mode_args = ["--mode", "parallel"]


class EditRecheck(Workload):
    """``repro recheck base.gds edit_k.gds`` against a seeded cache copy."""

    name = "edit_recheck"

    def prepare(self) -> None:
        for index in range(len(self.inputs.edits)):
            (self.workdir / f"edit_{index}.gds").write_bytes(
                self.inputs.edit_gds(index)
            )
        seeded = run_cli(
            ["check", "base.gds", *REPORT_ARGS, "--cache-dir", "cache_seed"],
            cwd=self.workdir,
        )
        sample = self._cli_sample(
            seeded,
            lambda text: "" if text == self.base_csv else "output differs from the oracle",
        )
        if not sample.ok:
            raise RuntimeError(f"cache seeding failed: {sample.detail}")
        self.between(-1)

    def between(self, k: int) -> None:
        """Every op gets its own fresh copy of the seeded cache directory,
        so no op reads what an earlier op wrote."""
        shutil.rmtree(self.workdir / "cache_op", ignore_errors=True)
        shutil.copytree(self.workdir / "cache_seed", self.workdir / "cache_op")

    def op(self, k: int) -> Sample:
        edit = k % len(self.inputs.edits)
        result = run_cli(
            [
                "recheck",
                "base.gds",
                f"edit_{edit}.gds",
                *REPORT_ARGS,
                "--cache-dir",
                "cache_op",
            ],
            cwd=self.workdir,
        )

        def check(text: str) -> str:
            self.variant_outputs[k] = (edit, text)
            if inp.csv_rows(text) != self.expected_rows(edit):
                return "rows differ from base oracle + the edit's row"
            return ""

        return self._cli_sample(result, check)


class ServeLoop(Workload):
    """Served edit -> recheck -> query turns against one warm daemon."""

    name = "serve_loop"

    def __init__(self, inputs: inp.Inputs, size: Size, workdir: Path) -> None:
        super().__init__(inputs, size, workdir)
        self.daemon: Optional[Daemon] = None
        self.client: Optional[ServeClient] = None
        self.sid = ""

    def prepare(self) -> None:
        self.daemon = Daemon(self.workdir)
        self.client = ServeClient(self.daemon.url, timeout=60.0)
        # Fixed 10 ms poll: the default doubling back-off put up to 0.8 s
        # of jitter into setup_s.
        self.client.wait_ready(interval=0.01, max_interval=0.01)
        info = self.client.create_session(data=self.inputs.base_gds, top=inp.TOP)
        self.sid = info["session"]
        first = self.client.check(self.sid)
        served = report_json_to_csv(first["report"], expand_instances=True) + "\n"
        if served != self.base_csv:
            raise RuntimeError("served baseline check differs from the oracle")

    def op(self, k: int) -> Sample:
        """One turn: upload an edited layout, then query the new violations.

        Wall time is the sum of the requests' send-to-parsed intervals; CPU
        is what the daemon burned across the turn.
        """
        edit = k % len(self.inputs.edits)
        data = self.inputs.edit_gds(edit)
        queries = self.turn_queries(k)
        cpu_before = self.daemon.cpu_s()
        start = time.perf_counter()
        try:
            reply = self.client.recheck(self.sid, data=data)
            listings = [
                self.client.violations(
                    self.sid, severity=q.severity, rules=q.rules, bbox=q.bbox
                )
                for q in queries
            ]
        except ClientError as error:
            return Sample(0.0, 0.0, False, f"request failed: {error}")
        wall = time.perf_counter() - start
        cpu = self.daemon.cpu_s() - cpu_before

        text = report_json_to_csv(reply["report"], expand_instances=True) + "\n"
        self.variant_outputs[k] = (edit, text)
        detail = self.turn_mismatch(edit, text, queries, listings)
        return Sample(wall, cpu, not detail, detail)

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        super().teardown()


WORKLOADS = {cls.name: cls for cls in (ColdSeq, ColdPar, EditRecheck, ServeLoop)}
