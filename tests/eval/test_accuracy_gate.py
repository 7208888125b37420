"""End-to-end accuracy-gate behaviour on a real (tiny) pipeline run.

The acceptance criteria this file enforces:

- the scorecard JSON regenerates **bit-identically** across two
  independent runs of the same seeded scenario;
- a pristine pipeline passes ``python -m repro.eval --check`` against a
  baseline generated from itself;
- a deliberately degraded pipeline (here: ``trajectory_splat_radius=6.0``
  smears every trajectory over a 6 m radius, bleeding hallway mass into
  the rooms) fails the same gate;
- the committed ``ACCURACY_baseline.json`` stays loadable, schema-valid
  and shaped like the quick scenario grid.

One scaled-down cell (Lab1, 2 users, 1 walk each) keeps every pipeline
run here in seconds; the CLI entry point is exercised for real, with its
scenario grid monkeypatched down to that cell.
"""

import json
from pathlib import Path

import pytest

import repro.eval.__main__ as eval_cli
from repro.bench.baseline import load_json_report
from repro.core.config import AGGRESSIVE_PRESCREEN_THRESHOLD
from repro.eval.scorecard import ACCURACY_SCHEMA_VERSION, run_scorecard
from repro.world.scenarios import ScenarioSpec, quick_scenarios

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The miniature scenario every expensive test in this file shares.
TINY = ScenarioSpec(
    building="Lab1", n_users=2, sws_per_user=1, srs_rooms_per_user=1
)


@pytest.fixture(scope="module")
def baseline_path(tmp_path_factory, monkeypatch_module):
    """A baseline file generated through the real CLI from TINY."""
    path = tmp_path_factory.mktemp("accuracy") / "baseline.json"
    assert eval_cli.main(["--update-baseline", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eval_cli, "scenarios_for_profile", lambda profile: [TINY])
        yield mp


class TestBitIdentity:
    def test_two_runs_regenerate_identical_bytes(self, baseline_path):
        """The CLI-written baseline equals a fresh in-process run, byte
        for byte — the determinism contract the CI gate stands on."""
        fresh = run_scorecard([TINY])
        on_disk = json.loads(baseline_path.read_text())
        assert json.dumps(fresh, sort_keys=True) == json.dumps(
            on_disk, sort_keys=True
        )

    def test_report_carries_real_metrics(self, baseline_path):
        cell = json.loads(baseline_path.read_text())["cells"][TINY.key]
        assert cell["n_keyframes"] > 0
        assert 0.0 < cell["hallway_f"] <= 1.0
        assert cell["rooms_scored"] >= 1


class TestGate:
    def test_pristine_pipeline_passes_check(
        self, baseline_path, monkeypatch_module, capsys
    ):
        assert eval_cli.main(["--check", str(baseline_path)]) == 0
        assert "OK: within tolerance" in capsys.readouterr().out

    def test_degraded_pipeline_fails_check(
        self, baseline_path, monkeypatch_module, capsys
    ):
        """Smearing trajectories over a 6 m radius floods rooms with
        hallway mass; the gate must notice the precision cliff."""
        code = eval_cli.main(
            [
                "--check", str(baseline_path),
                "--override", "trajectory_splat_radius=6.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "quality drift" in out
        assert "hallway" in out

    def test_degraded_pipeline_passes_with_huge_tolerance(
        self, baseline_path, monkeypatch_module, capsys
    ):
        code = eval_cli.main(
            [
                "--check", str(baseline_path),
                "--override", "trajectory_splat_radius=6.0",
                "--tolerance-scale", "1000",
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestAggressivePlannerBands:
    """The aggressive profile's correctness contract is these bands.

    The aggressive profile (``keyframe_prescreen_threshold`` at the
    calibrated constant) trades bit-identity for speed by thinning frames
    before the HOG chain; the gate that keeps it honest is the same
    scorecard tolerance check the default profile passes. Scoring the
    quick-grid cell against a default-profile baseline pins the
    approximation inside the committed bands.
    """

    def test_aggressive_mode_stays_inside_bands(
        self, baseline_path, monkeypatch_module, capsys
    ):
        override = (
            f"keyframe_prescreen_threshold={AGGRESSIVE_PRESCREEN_THRESHOLD}"
        )
        assert eval_cli.main(
            ["--check", str(baseline_path), "--override", override]
        ) == 0
        assert "OK: within tolerance" in capsys.readouterr().out


class TestCliPlumbing:
    def test_list_cells_runs_nothing(self, monkeypatch_module, capsys):
        assert eval_cli.main(["--list-cells"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [TINY.key]

    def test_unknown_cell_is_usage_error(self, capsys):
        assert eval_cli.main(["--cells", "Lab9/day/u99"]) == 2
        assert "unknown scenario cell" in capsys.readouterr().err

    def test_bad_override_is_usage_error(self, capsys):
        assert eval_cli.main(["--override", "not_a_field=1"]) == 2
        assert "bad --override" in capsys.readouterr().err

    def test_override_parsing(self):
        parsed = eval_cli.parse_overrides(
            ["min_visits=3", "surf_prefetch=False", "worker_backend=process"]
        )
        assert parsed == {
            "min_visits": 3,
            "surf_prefetch": False,
            "worker_backend": "process",
        }
        with pytest.raises(ValueError, match="field=value"):
            eval_cli.parse_overrides(["oops"])

    def test_report_dir_artifacts(
        self, baseline_path, monkeypatch_module, tmp_path
    ):
        out_dir = tmp_path / "report"
        # Re-uses the scored TINY cell; one more pipeline run.
        assert (
            eval_cli.main(
                ["--report-dir", str(out_dir), "--output", str(tmp_path / "r.json")]
            )
            == 0
        )
        names = {p.name for p in out_dir.iterdir()}
        assert "scorecard.txt" in names
        assert "crowd_sweep.txt" in names
        assert any(name.startswith("cdf_") for name in names)
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["schema"] == ACCURACY_SCHEMA_VERSION


class TestCommittedBaseline:
    def test_schema_and_grid_shape(self):
        """The committed gate artifact matches the quick scenario grid."""
        path = REPO_ROOT / "ACCURACY_baseline.json"
        baseline = load_json_report(str(path), ACCURACY_SCHEMA_VERSION)
        assert set(baseline["cells"]) == {
            spec.key for spec in quick_scenarios()
        }
        for key, cell in baseline["cells"].items():
            assert cell["building"] == key.split("/")[0], key
            assert 0.0 <= cell["hallway_f"] <= 1.0, key

    def test_preserves_pre_pr_records_on_update(self, tmp_path):
        """The shared baseline helper keeps frozen pre_pr* records —
        the bench CLI convention, now common to both gates."""
        from repro.bench.baseline import update_baseline_file

        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "cells": {}, "pre_pr_frozen": {"hallway_f": 0.1}}
            )
        )
        merged = update_baseline_file(
            str(path), {"schema": 1, "cells": {"a": {}}}, 1
        )
        assert merged["pre_pr_frozen"] == {"hallway_f": 0.1}
        on_disk = json.loads(path.read_text())
        assert on_disk["cells"] == {"a": {}}
        assert on_disk["pre_pr_frozen"] == {"hallway_f": 0.1}
