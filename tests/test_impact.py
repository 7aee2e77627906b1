"""PR 10: release-diff impact analysis and patch-directed fuzzing.

Covers the static pipeline (CFG diff -> ImpactReport -> TargetManifest
-> DistanceField), the soundness contract (zero false "unreachable"
verdicts against executor-audited witnesses), the impact lints, the
analyze CLI exit-code contract (0 clean / 1 findings / 2 broken), and
a directed-fuzzing smoke run through ``fuzz --directed``.
"""

import json
import math

import pytest

from repro.analyze import (
    DependencyOracle,
    DistanceField,
    ImpactReport,
    PatchDirector,
    ReachabilityAnalysis,
    TargetManifest,
    build_target_manifest,
    compute_impact,
    findings_json,
    run_impact_checks,
    strict_failures,
    witness_program,
)
from repro.analyze.impact import classify_block
from repro.cli import main
from repro.kernel import Executor, build_kernel
from repro.syzlang.stdlib import RELEASE_DELTAS


@pytest.fixture(scope="module")
def tiny_68():
    return build_kernel("6.8", seed=1, size="tiny")


@pytest.fixture(scope="module")
def tiny_69():
    return build_kernel("6.9", seed=1, size="tiny")


@pytest.fixture(scope="module")
def report(tiny_68, tiny_69):
    return compute_impact(tiny_68, tiny_69)


@pytest.fixture(scope="module")
def reach_69(tiny_69):
    return ReachabilityAnalysis(tiny_69)


@pytest.fixture(scope="module")
def oracle_69(tiny_69):
    return DependencyOracle(tiny_69)


@pytest.fixture(scope="module")
def manifest(tiny_68, tiny_69, report, reach_69, oracle_69):
    return build_target_manifest(
        tiny_68, tiny_69, report=report, reach=reach_69, oracle=oracle_69
    )


class TestImpactDiff:
    def test_added_handlers_match_release_delta(self, report):
        expected = {
            spec.full_name
            for version, specs in RELEASE_DELTAS if version == "6.9"
            for spec in specs
        }
        assert set(report.added_handlers) == expected

    def test_self_diff_is_empty(self, tiny_68):
        again = build_kernel("6.8", seed=1, size="tiny")
        report = compute_impact(tiny_68, again)
        assert report.changed_blocks() == ()
        assert report.removed_blocks() == ()
        assert report.changed_predicates == ()
        assert report.added_handlers == ()
        assert report.removed_handlers == ()

    def test_diff_is_deterministic(self, tiny_68, tiny_69, report):
        assert compute_impact(tiny_68, tiny_69).to_json() == report.to_json()

    def test_changed_blocks_belong_to_new_kernel(self, tiny_69, report):
        changed = report.changed_blocks()
        assert changed
        assert all(block in tiny_69.blocks for block in changed)
        kinds = {report.kind_of(block) for block in changed}
        assert kinds <= {"added", "modified"}

    def test_touched_bugs_are_real(self, tiny_69, report):
        known = {bug.bug_id for bug in tiny_69.bugs}
        assert set(report.touched_bugs) <= known

    def test_report_json_round_trip(self, report):
        text = report.to_json()
        again = ImpactReport.from_json(text)
        assert again == report
        assert again.to_json() == text

    def test_report_json_rejects_wrong_version(self, report):
        payload = json.loads(report.to_json())
        payload["version"] = 999
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            ImpactReport.from_json(json.dumps(payload))


class TestManifest:
    def test_every_changed_block_is_classified(self, report, manifest):
        assert {t.block_id for t in manifest.targets} == set(
            report.changed_blocks()
        )
        assert all(
            t.classification in ("solvable", "unsteerable", "unreachable")
            for t in manifest.targets
        )

    def test_no_false_unreachable_verdicts(
        self, tiny_69, manifest, reach_69, oracle_69
    ):
        """The acceptance contract: a block is classified unreachable
        iff no witness program exists, and every solvable target's
        witness actually executes through it."""
        executor = Executor(tiny_69, seed=7)
        for target in manifest.targets:
            witness = witness_program(
                tiny_69, target.block_id, reach=reach_69, oracle=oracle_69
            )
            if target.classification == "unreachable":
                assert witness is None, (
                    f"block {target.block_id} marked unreachable but has "
                    f"a witness"
                )
            else:
                assert witness is not None, (
                    f"block {target.block_id} marked {target.classification} "
                    f"but no witness exists"
                )
                result = executor.run(witness)
                assert target.block_id in result.coverage.blocks

    def test_classify_block_reasons(self, manifest):
        for target in manifest.targets:
            assert target.reason

    def test_classify_matches_manifest(
        self, manifest, reach_69, oracle_69
    ):
        for target in manifest.targets[:20]:
            classification, _reason = classify_block(
                target.block_id, reach_69, oracle_69
            )
            assert classification == target.classification

    def test_manifest_json_round_trip(self, manifest):
        text = manifest.to_json()
        again = TargetManifest.from_json(text)
        assert again == manifest
        assert again.to_json() == text

    def test_fuzzable_excludes_unreachable(self, manifest):
        unreachable = {
            t.block_id for t in manifest.targets
            if t.classification == "unreachable"
        }
        fuzzable = set(manifest.fuzzable_blocks())
        assert not (fuzzable & unreachable)
        assert fuzzable | unreachable == {
            t.block_id for t in manifest.targets
        }


class TestDistanceField:
    def test_targets_have_distance_zero(self, tiny_69, manifest):
        field = DistanceField(tiny_69, manifest.fuzzable_blocks())
        for target in field.targets:
            assert field.block_distance(target) == 0.0

    def test_distance_is_monotone_along_cfg_edges(self, tiny_69, manifest):
        """d(u) <= min over successors + 1: one CFG step shrinks the
        distance by at most one."""
        field = DistanceField(tiny_69, manifest.fuzzable_blocks())
        for block_id, succs in tiny_69.succs.items():
            d = field.block_distance(block_id)
            best_succ = min(
                (field.block_distance(s) for s in succs),
                default=math.inf,
            )
            assert d <= best_succ + 1.0

    def test_producer_edges_extend_the_gradient(self, tiny_69, manifest):
        field = DistanceField(tiny_69, manifest.fuzzable_blocks())
        plain = DistanceField(
            tiny_69, manifest.fuzzable_blocks(),
            state_edge_cost=math.inf,
        )
        finite = {b for b, d in field.distance.items() if d < math.inf}
        finite_plain = {
            b for b, d in plain.distance.items() if d < math.inf
        }
        assert finite_plain <= finite

    def test_program_distance_minimises(self, tiny_69, manifest):
        field = DistanceField(tiny_69, manifest.fuzzable_blocks())
        target = field.targets[0]
        assert field.program_distance({target}) == 0.0
        assert field.program_distance(set()) == math.inf


class TestImpactLint:
    def test_stock_diff_passes_strict(
        self, tiny_68, tiny_69, report, manifest
    ):
        findings = run_impact_checks(report, manifest, tiny_68, tiny_69)
        assert not strict_failures(findings)
        names = {f.check for f in findings}
        assert "changed-block-unreachable" in names

    def test_drift_fires_as_error(self, tiny_68, tiny_69, manifest, report):
        from dataclasses import replace

        # Forge a report that claims one added handler too few: the
        # delta-spec-drift cross-check must catch the disagreement
        # between the diff and the syscall tables.
        forged = replace(
            report, added_handlers=report.added_handlers[:-1]
        )
        findings = run_impact_checks(forged, manifest, tiny_68, tiny_69)
        errors = strict_failures(findings)
        assert errors
        assert any(f.check == "delta-spec-drift" for f in errors)

    def test_findings_bytes_stable_under_duplication(
        self, tiny_68, tiny_69, report, manifest
    ):
        """Satellite 1: findings.json is byte-identical regardless of
        how many times (or in what order) checks contributed."""
        findings = run_impact_checks(report, manifest, tiny_68, tiny_69)
        context = {"scope": "impact", "releases": ["6.8", "6.9"]}
        baseline = findings_json(findings, **context)
        shuffled = list(reversed(findings)) + findings
        assert findings_json(shuffled, **context) == baseline


class TestAnalyzeCLI:
    """Satellite 2: the pinned exit-code contract (0/1/2)."""

    def test_impact_clean_exit_zero(self, tmp_path, capsys):
        manifest_path = tmp_path / "targets.json"
        out_path = tmp_path / "findings.json"
        code = main([
            "analyze", "impact", "6.8", "6.9", "--size", "tiny",
            "--strict", "--manifest", str(manifest_path),
            "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(manifest_path.read_text())
        assert payload["from_version"] == "6.8"
        assert payload["to_version"] == "6.9"
        assert payload["targets"]
        assert out_path.exists()
        assert "impact 6.8 -> 6.9" in capsys.readouterr().out

    def test_internal_error_exit_two(self, capsys):
        code = main(["analyze", "impact", "6.8", "nope", "--size", "tiny"])
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_kernel_internal_error_exit_two(self, capsys):
        code = main([
            "analyze", "kernel", "--releases", "not-a-release",
            "--size", "tiny",
        ])
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_strict_findings_exit_one(self, monkeypatch, capsys):
        # Forge an error-severity finding so --strict trips without
        # needing a broken kernel: the contract is exit 1, not 2.
        from repro.analyze.lint import Finding

        def forged(kernel, reach=None, oracle=None, observer=None,
                   namespace=""):
            return [Finding(
                scope="kernel", check="forged-error", severity="error",
                location="x", message="forged",
            )]

        monkeypatch.setattr("repro.analyze.run_kernel_checks", forged)
        code = main([
            "analyze", "kernel", "--kernel", "6.8", "--size", "tiny",
            "--strict",
        ])
        assert code == 1
        assert "--strict" in capsys.readouterr().err


class TestPatchDirector:
    def test_observe_only_records_without_steering(
        self, tiny_69, manifest
    ):
        director = PatchDirector(tiny_69, manifest, observe_only=True)
        assert not director.complete
        targets = director.targets
        director.note_coverage(set(targets), 123.0)
        assert director.complete
        assert director.time_to_all(1000.0) == 123.0
        assert set(director.reached_at) == set(targets)

    def test_time_to_all_is_horizon_when_incomplete(self, tiny_69, manifest):
        director = PatchDirector(tiny_69, manifest, observe_only=True)
        director.note_coverage({director.targets[0]}, 10.0)
        assert director.time_to_all(500.0) == 500.0

    def test_rank_targets_prefers_near(self, tiny_69, manifest):
        director = PatchDirector(tiny_69, manifest)
        pool = list(director.targets)
        ranked = director.rank_targets(pool, 5)
        field = director._field
        distances = [field.block_distance(b) for b in ranked]
        assert distances == sorted(distances)


class TestDirectedFuzzCLI:
    def test_directed_smoke_reaches_targets(self, capsys):
        code = main([
            "fuzz", "--directed", "patch:6.8..6.9", "--oracle",
            "--size", "tiny", "--hours", "0.2", "--seed-corpus", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "patch 6.8 -> 6.9" in out
        assert "directed:" in out

    def test_malformed_spec_exit_two(self, capsys):
        assert main([
            "fuzz", "--directed", "patch:6.8", "--oracle", "--size", "tiny",
        ]) == 2
        assert "bad --directed" in capsys.readouterr().err

    def test_conflicting_flags_exit_two(self, capsys):
        assert main([
            "fuzz", "--directed", "patch:6.8..6.9", "--baseline",
            "--size", "tiny",
        ]) == 2
        assert main([
            "fuzz", "--directed", "patch:6.8..6.9", "--oracle",
            "--workers", "2", "--size", "tiny",
        ]) == 2


class TestPatchCampaign:
    def test_directed_beats_plain(self, tiny_68, tiny_69, manifest):
        from repro.snowplow import run_patch_campaign
        from repro.snowplow.campaign import fuzz_campaign_config

        config = fuzz_campaign_config(1.0, 0, 50)
        result = run_patch_campaign(
            tiny_68, tiny_69, config, manifest=manifest
        )
        assert result.targets == tuple(manifest.fuzzable_blocks())
        # Directed must reach strictly more of the changed surface
        # strictly earlier than the undirected arm at this horizon.
        assert result.directed_time <= result.plain_time
        assert len(result.directed_reached_at) >= len(
            result.plain_reached_at
        )
        assert result.targets_reached_fraction() > 0.95
