"""Smoke/shape tests for the experiment harnesses (fast subset).

Heavy experiments run in the campaign sweeps; here we cover the fast
ones end-to-end and the shared machinery.
"""

import json
from pathlib import Path

import pytest

from repro.baselines import PrController
from repro.core import ControllerConfig, ZenithController
from repro.experiments import EXPERIMENTS, ExperimentTable
from repro.experiments.common import (
    build_system,
    run_install_workload,
    run_trace_replay,
)
from repro.net.topology import linear, ring


def test_registry_covers_every_paper_artifact():
    expected = {"fig3", "fig4", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig16", "table4", "sec6.3",
                "figA2", "figA3", "figA6", "tableA1", "ablation",
                "chaos", "checkerScale", "componentAblation", "update"}
    assert set(EXPERIMENTS) == expected


def test_experiment_table_renders():
    table = ExperimentTable("demo", "s")
    table.add("a", [1.0, 2.0, 3.0])
    table.add("b", [5.0])
    output = table.render()
    assert "demo" in output and "a" in output and "b" in output


def test_build_system_settles_consistent():
    system = build_system(ZenithController, ring(6), seed=1,
                          demands=[("s0", "s3")])
    assert system.app is not None
    assert system.network.trace("s0", "s3").ok
    assert system.controller.view_matches_dataplane()


def test_run_install_workload_produces_latencies():
    latencies = run_install_workload(
        ZenithController, linear(6), duration=5.0, path_length=3, seed=0)
    assert len(latencies) > 5
    assert all(0 < lat < 10 for lat in latencies)


def test_run_trace_replay_returns_latency():
    from repro.orchestrator import standard_traces

    trace = standard_traces()[0]
    latency = run_trace_replay(ZenithController, trace, seed=2)
    assert latency is not None and 0 < latency < 30


def test_fig4_shape():
    result = EXPERIMENTS["fig4"](quick=True)
    assert result.check_shape() == []
    assert "Fig. 4" in result.render()


def test_fig14_shape():
    result = EXPERIMENTS["fig14"](quick=True)
    assert result.check_shape() == []


def test_fig16_shape():
    result = EXPERIMENTS["fig16"](quick=True)
    assert result.check_shape() == []


def test_figa3_shape():
    result = EXPERIMENTS["figA3"](quick=True)
    assert result.check_shape() == []
    # Spot-check the headline orderings.
    heavy = "sw-complete-trans-nr"
    assert result.scores[("Sequencer", heavy)] == max(
        result.scores[(c, heavy)]
        for c in ("Sequencer", "Monitoring Server", "Worker Pool",
                  "Topo Event Handler"))


def test_tablea1_shape():
    result = EXPERIMENTS["tableA1"](quick=True)
    assert result.check_shape() == []
    assert result.total > 1000


def test_tablea1_committed_rows_are_true_at_head():
    """The committed Table A.1 is a line count of files in this tree: a
    PR that edits one of them regenerates BENCH_campaign.json."""
    artifact = json.loads(
        (Path(__file__).parents[2] / "BENCH_campaign.json").read_text())
    fields = ("spec", "lines", "source")
    committed = [{key: row[key] for key in fields}
                 for row in artifact["experiments"]["tableA1"]["rows"]]
    assert EXPERIMENTS["tableA1"](quick=True).rows() == committed


def test_figa6_shape():
    result = EXPERIMENTS["figA6"](quick=True)
    assert result.check_shape() == []
    assert len(result.lengths) >= 6


def test_sec63_shape():
    result = EXPERIMENTS["sec6.3"](quick=True)
    assert result.check_shape() == []


def test_cli_list_and_run(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    captured = capsys.readouterr()
    assert "fig10" in captured.out

    assert main(["fig4"]) == 0
    captured = capsys.readouterr()
    assert "shape checks passed" in captured.out


def test_cli_check_finds_bug(capsys):
    from repro.cli import main

    assert main(["check", "workerpool-initial"]) == 1
    captured = capsys.readouterr()
    assert "VIOLATION" in captured.out

    assert main(["check", "workerpool-final"]) == 0


def test_cli_rejects_unknown(capsys):
    from repro.cli import main

    assert main(["no-such-experiment"]) == 2
    assert main(["check", "no-such-spec"]) == 2


def test_cli_workers_takes_an_integer_only(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["check", "controller", "--workers", "auto"])
    assert exit_info.value.code == 2
    assert "invalid int value: 'auto'" in capsys.readouterr().err


def test_cli_rejects_workers_with_incremental_fp(capsys):
    """Incompatible engine options exit 2 with a message, no traceback."""
    from repro.cli import main

    assert main(["check", "te-app", "--workers", "2",
                 "--incremental-fp"]) == 2
    captured = capsys.readouterr()
    assert "serial-engine option" in captured.err
    assert main(["check", "te-app", "--exact", "--incremental-fp"]) == 2
