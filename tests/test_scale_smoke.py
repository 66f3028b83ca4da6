"""Scale-smoke memory gate tests (tools/scale_smoke.py).

The tool is not part of the installed package, so it is loaded from its
file path -- the same artifact CI executes.  The gate logic is exercised
on a tiny 16-node cell; the committed 2^14 ceiling is validated
statically (running that cell is the CI scale-smoke job's business).
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "scale_smoke.py"

spec = importlib.util.spec_from_file_location("scale_smoke", TOOL)
scale_smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale_smoke)

TINY = ["--nodes", "16", "--ops", "2"]


def args(tmp_path, *extra):
    return TINY + [
        "--report", str(tmp_path / "report.json"),
        "--baseline", str(tmp_path / "baseline.json"),
        *extra,
    ]


class TestGate:
    def test_update_then_gate_passes(self, tmp_path, capsys):
        assert scale_smoke.main(args(tmp_path, "--update-baseline")) == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        assert baseline["ceiling_mb"] == pytest.approx(
            1.5 * baseline["measured_peak_rss_mb"], rel=0.01
        )
        assert scale_smoke.main(args(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["peak_rss_mb"] > 0
        assert report["tracemalloc_peak_mb"] > 0
        assert report["total_msgs"] > 0
        assert report["cell"]["nodes"] == 16
        assert "memory ceiling" in capsys.readouterr().out

    def test_exceeding_the_ceiling_fails(self, tmp_path, capsys):
        assert scale_smoke.main(args(tmp_path, "--update-baseline")) == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        baseline["ceiling_mb"] = 0.1
        (tmp_path / "baseline.json").write_text(json.dumps(baseline))
        assert scale_smoke.main(args(tmp_path)) == 1
        assert "exceeds the committed ceiling" in capsys.readouterr().err

    def test_cell_mismatch_refuses_to_gate(self, tmp_path):
        assert scale_smoke.main(args(tmp_path, "--update-baseline")) == 0
        with pytest.raises(SystemExit, match="differs from the committed"):
            scale_smoke.main(
                ["--nodes", "32", "--ops", "2",
                 "--report", str(tmp_path / "report.json"),
                 "--baseline", str(tmp_path / "baseline.json")]
            )

    def test_report_names_the_engine_that_ran(self, tmp_path):
        from repro.network.machine import GCEL
        from repro.network.mesh import Mesh2D
        from repro.sim import _ckern
        from repro.sim.engine import Simulator

        assert scale_smoke.main(args(tmp_path, "--update-baseline")) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        ran_c = Simulator(Mesh2D(4, 4), GCEL)._h is not None
        assert report["engine"] == ("c" if ran_c else "pure")
        assert report.get("engine_reason") == (None if ran_c else _ckern.unavailable_reason())
        assert json.loads((tmp_path / "baseline.json").read_text())["engine"] == report["engine"]

    def test_other_engines_ceiling_refuses_to_gate(self, tmp_path):
        assert scale_smoke.main(args(tmp_path, "--update-baseline")) == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        baseline["engine"] = "pure" if baseline["engine"] == "c" else "c"
        baseline["ceiling_mb"] = 0.1  # would fail if it were compared
        (tmp_path / "baseline.json").write_text(json.dumps(baseline))
        with pytest.raises(SystemExit, match="engine.*not comparing"):
            scale_smoke.main(args(tmp_path))

    def test_missing_baseline_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            scale_smoke.main(args(tmp_path))


class TestCommittedCeiling:
    def test_baseline_is_well_formed_with_headroom(self):
        baseline = json.loads(scale_smoke.DEFAULT_BASELINE.read_text())
        assert baseline["cell"] == {
            "nodes": scale_smoke.DEFAULT_NODES,
            "topology": scale_smoke.DEFAULT_TOPOLOGY,
            "strategy": scale_smoke.DEFAULT_STRATEGY,
            "ops": scale_smoke.DEFAULT_OPS,
        }
        assert baseline["ceiling_mb"] > baseline["measured_peak_rss_mb"]
        assert baseline["engine"] == "c"
