"""Audit of the pytest marker configuration and test-time budget.

Tier-1 is ``pytest -q`` with ``-m 'not slow and not fuzz'``: anything
expensive must carry the (registered) ``slow`` marker, differential
fuzz runs must carry ``fuzz``, and the hypothesis property tests that
guard the fused distribution path must keep their example counts small
enough to stay inside the tier-1 budget.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TESTS = REPO_ROOT / "tests"

MAX_EXAMPLES_BUDGET = 100


def _pyproject() -> str:
    return (REPO_ROOT / "pyproject.toml").read_text()


class TestMarkerConfig:
    def test_slow_marker_registered(self):
        assert re.search(r'"slow:.*"', _pyproject())

    def test_fuzz_marker_registered(self):
        assert re.search(r'"fuzz:.*"', _pyproject())

    def test_tier1_deselects_slow_and_fuzz(self):
        assert "-m 'not slow and not fuzz'" in _pyproject()

    def test_fuzz_directory_is_fuzz_marked(self):
        """Everything under tests/fuzz/ opts out of tier-1 via the marker."""
        fuzz_tests = list((TESTS / "fuzz").glob("test_*.py"))
        assert fuzz_tests
        for path in fuzz_tests:
            assert re.search(
                r"pytestmark\s*=\s*pytest\.mark\.fuzz", path.read_text()
            ), f"{path.name}: missing `pytestmark = pytest.mark.fuzz`"

    def test_mutant_and_harness_runs_stay_out_of_tier1_paths(self):
        """The sanitizer's own tier-1 tests are cheap unit runs; the
        expensive differential campaigns live behind the fuzz marker."""
        match = re.search(r"testpaths\s*=\s*\[([^\]]*)\]", _pyproject())
        assert match is not None
        assert "tests" in match.group(1)  # tests/fuzz deselected by marker

    def test_benchmarks_outside_tier1_paths(self):
        """The 2^18 measurement lives in benchmarks/, not testpaths."""
        match = re.search(r"testpaths\s*=\s*\[([^\]]*)\]", _pyproject())
        assert match and "benchmarks" not in match.group(1)
        assert (REPO_ROOT / "benchmarks" / "bench_distribution.py").exists()

    def test_slow_marks_use_registered_name(self):
        """Every pytest.mark.<name> in tests/ is a registered marker."""
        registered = set(
            re.findall(r'"(\w+):', _pyproject())
        ) | {"parametrize", "skip", "skipif", "xfail", "usefixtures", "filterwarnings"}
        for path in TESTS.rglob("test_*.py"):
            for mark in re.findall(r"pytest\.mark\.(\w+)", path.read_text()):
                assert mark in registered, f"{path.name}: unregistered mark {mark}"


#: Tier-1 tests that carry the checks the retired ``--smoke`` CLI gates
#: and the compiled-backend bench smoke made (trace, grow, stream,
#: cluster, compact, serve, compiled speed floors); pytest is the only
#: gate runner, so none of them may leave tier-1.
GATE_CHECKS = (
    "obs/test_cli_trace.py::TestTraceCommand::test_smoke_writes_valid_trace",
    "core/test_growth.py::TestPolicyDrivenIngest::test_four_x_ingest_single_table",
    "core/test_growth.py::TestPartitionedGrowth::test_four_x_ingest",
    "core/test_growth.py::TestGrowthObservability::test_rehash_metrics_counted",
    "multigpu/test_distributed_growth.py::TestCoordinatedGrowth::"
    "test_four_x_ingest_without_insertion_error",
    "multigpu/test_distributed_growth.py::TestCoordinatedGrowth::"
    "test_grow_reports_and_transfer_records",
    "multigpu/test_distributed_growth.py::TestGrowthObservability::"
    "test_trace_has_shard_growth_span_and_validates",
    "multigpu/test_distributed_growth.py::TestDriverGrowth::"
    "test_mid_stream_growth_is_transparent",
    "multigpu/test_distributed_growth.py::TestDriverGrowth::"
    "test_measured_timeline_includes_grow_span",
    "pipeline/test_pipeline_depth.py::TestDepthEquivalence::"
    "test_insert_query_bit_identical",
    "pipeline/test_pipeline_depth.py::TestMeasuredOverlap::"
    "test_paced_depth2_beats_depth1_measured",
    "pipeline/test_staging.py::TestBackpressure::"
    "test_budget_bounds_peak_in_flight_bytes",
    "pipeline/test_staging.py::TestBackpressure::test_stalls_surface_in_obs",
    "multigpu/test_hierarchical.py::TestOneNodeClusterBitIdentity::"
    "test_flat_vs_one_node_cluster",
    "multigpu/test_hierarchical.py::TestOneNodeClusterBitIdentity::"
    "test_one_node_cluster_charges_nothing_to_the_nic",
    "multigpu/test_hierarchical.py::TestOneNodeClusterBitIdentity::"
    "test_two_node_cluster_same_state_nic_charged",
    "core/test_compact_layout.py::TestChurnBitIdentity::test_layouts_agree",
    "core/test_compact_layout.py::TestModelledFootprint::"
    "test_perfmodel_accepts_record_bytes",
    "multigpu/test_compact_distribution.py::TestCompactCascade::"
    "test_strictly_fewer_bytes_past_crossover",
    "core/test_serialize.py::TestCompactSnapshots::test_layout_round_trips",
    "serve/test_server_client.py::TestRoundTrips::test_insert_then_query",
    "serve/test_server_client.py::TestRoundTrips::test_erase_then_query",
    "serve/test_server_client.py::TestReadYourWrites::"
    "test_erased_keys_are_not_found",
    "serve/test_faults.py::TestBrokenStreams::"
    "test_malformed_header_gets_typed_error_then_close",
    "serve/test_faults.py::TestAdmissionOverflow::"
    "test_overflow_rejects_with_typed_overloaded",
    "core/test_compiled_kernels.py::TestSpeedFloors::"
    "test_single_shard_insert_at_least_3x",
    "core/test_compiled_kernels.py::TestSpeedFloors::"
    "test_cascade_insert_at_least_2x",
)


def _decorators(text: str, start: int) -> str:
    """The decorator lines directly above the header at ``start``."""
    head = text[:start]
    return head[head.rfind("\n\n"):]


class TestGateChecksStayInTier1:
    @pytest.mark.parametrize("node", GATE_CHECKS)
    def test_gate_check_is_not_slow_or_fuzz(self, node):
        path, cls, func = node.split("::")
        text = (TESTS / path).read_text()
        assert not re.search(
            r"^pytestmark\s*=.*\b(slow|fuzz)\b", text, re.M
        ), path
        cls_at = text.index(f"class {cls}")
        func_at = text.index(f"def {func}(", cls_at)
        for start in (cls_at, func_at):
            block = _decorators(text, start)
            assert not re.search(r"@pytest\.mark\.(slow|fuzz)\b", block), node


class TestObsTree:
    """The observability suite stays inside the tier-1 budget."""

    EXPECTED = {
        "test_reportable.py",
        "test_trace.py",
        "test_metrics.py",
        "test_export.py",
        "test_runtime.py",
        "test_options.py",
        "test_cli_trace.py",
    }

    def test_obs_tree_covers_every_layer(self):
        """One test module per obs layer: protocol, trace, metrics,
        exporters, runtime hooks, option shims, CLI."""
        present = {p.name for p in (TESTS / "obs").glob("test_*.py")}
        assert self.EXPECTED <= present

    def test_process_backend_equivalence_is_slow_marked(self):
        """Worker-pool spin-up is the one expensive obs test; it must
        carry the registered `slow` marker to stay out of tier-1."""
        text = (TESTS / "obs" / "test_runtime.py").read_text()
        match = re.search(
            r"@pytest\.mark\.slow\s*\n\s*def (\w*process\w*)", text
        )
        assert match, "process-backend equivalence test must be slow-marked"

    def test_obs_tests_avoid_global_obs_leakage(self):
        """obs state is process-global: tests must scope it through
        `obs.session()` / `configure(...)` teardown, never leave it on."""
        for path in (TESTS / "obs").glob("test_*.py"):
            text = path.read_text()
            for m in re.finditer(r"configure\(enabled=True\)", text):
                # every enable has a matching disable in the same file
                assert "configure(enabled=False" in text, path.name


class TestGrowthTree:
    """The lifecycle (grow/rehash) suite stays wired into the gates."""

    EXPECTED = {
        "core/test_store.py",
        "core/test_growth.py",
        "core/test_growth_equivalence.py",
        "multigpu/test_distributed_growth.py",
    }

    def test_growth_tree_exists_and_non_empty(self):
        """One module per lifecycle layer: storage policy, single-table
        growth, growth equivalence properties, coordinated shard growth."""
        for name in self.EXPECTED:
            path = TESTS / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_coverage_floor_requires_growth_tree(self):
        """tools/coverage_floor.py refuses to gate without these files,
        so a rename can't silently drop the lifecycle coverage."""
        text = (REPO_ROOT / "tools" / "coverage_floor.py").read_text()
        assert "tests/core/test_growth*.py" in text
        assert "tests/multigpu/test_distributed_growth*.py" in text

    def test_process_engine_growth_is_slow_marked(self):
        """Worker-pool growth runs spin up process pools; they must
        carry the registered `slow` marker to stay out of tier-1."""
        for name in ("core/test_growth.py", "core/test_growth_equivalence.py"):
            text = (TESTS / name).read_text()
            match = re.search(
                r"@pytest\.mark\.slow\s*\n\s*def (\w*process\w*)", text
            )
            assert match, f"{name}: process-engine growth test must be slow-marked"

    def test_growth_property_tests_use_shared_profiles(self):
        text = (TESTS / "core" / "test_growth_equivalence.py").read_text()
        assert "from profiles import examples" in text
        assert "settings(max_examples" not in text


class TestCompiledTree:
    """The compiled-backend suite stays wired into every gate."""

    EXPECTED = {
        "core/test_compiled_kernels.py",
        "core/test_compiled_fallback.py",
        "exec/test_compiled_equivalence.py",
        "multigpu/test_plan.py",
    }

    def test_compiled_tree_exists_and_non_empty(self):
        """One module per layer: kernel bit-identity, no-provider
        fallback, three-way engine equivalence, cascade plan compiler."""
        for name in self.EXPECTED:
            path = TESTS / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_coverage_floor_requires_compiled_tree(self):
        """tools/coverage_floor.py refuses to gate without these files,
        so a rename can't silently drop the compiled-path coverage."""
        text = (REPO_ROOT / "tools" / "coverage_floor.py").read_text()
        assert "tests/core/test_compiled_kernels*.py" in text
        assert "tests/core/test_compiled_fallback*.py" in text
        assert "tests/exec/test_compiled_equivalence*.py" in text

    def test_process_engine_equivalence_is_slow_marked(self):
        text = (TESTS / "exec" / "test_compiled_equivalence.py").read_text()
        match = re.search(
            r"@pytest\.mark\.slow\s*\n\s*def (\w*process\w*)", text
        )
        assert match, "process-engine compiled test must be slow-marked"

    def test_compiled_property_tests_use_shared_profiles(self):
        for name in (
            "core/test_compiled_kernels.py",
            "exec/test_compiled_equivalence.py",
        ):
            text = (TESTS / name).read_text()
            assert "from profiles import examples" in text, name
            assert "settings(max_examples" not in text, name

    def test_ci_runs_compiled_smoke(self):
        """The cc provider needs only the host C compiler: there is no
        optional extra for a second provider to install.  Its speed
        floors run in tier-1 (``GATE_CHECKS``)."""
        assert "compiled = [" not in _pyproject()


class TestPipelineTree:
    """The streaming-pipeline suite stays wired into every gate."""

    EXPECTED = {
        "pipeline/test_pipeline_depth.py",
        "pipeline/test_staging.py",
    }

    def test_pipeline_tree_exists_and_non_empty(self):
        """One module per guarantee: depth bit-identity properties, and
        the staging arena/budget/scheduler + backpressure/out-of-core."""
        for name in self.EXPECTED:
            path = TESTS / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_coverage_floor_requires_pipeline_tree(self):
        """tools/coverage_floor.py refuses to gate without these files,
        so a rename can't silently drop the pipeline coverage."""
        text = (REPO_ROOT / "tools" / "coverage_floor.py").read_text()
        assert "tests/pipeline/test_pipeline_depth*.py" in text
        assert "tests/pipeline/test_staging*.py" in text

    def test_out_of_core_demo_is_slow_marked(self):
        """The 2^22 out-of-core ingest is the one expensive pipeline
        test; it must carry the registered `slow` marker."""
        text = (TESTS / "pipeline" / "test_staging.py").read_text()
        match = re.search(
            r"@pytest\.mark\.slow\s*\n\s*def (\w*2_22\w*)", text
        )
        assert match, "2^22 out-of-core ingest must be slow-marked"

    def test_depth_property_tests_use_shared_profiles(self):
        text = (TESTS / "pipeline" / "test_pipeline_depth.py").read_text()
        assert "from profiles import examples" in text
        assert "settings(max_examples" not in text


class TestServeTree:
    """The serving-layer suite stays wired into every gate."""

    EXPECTED = {
        "serve/test_protocol.py",
        "serve/test_server_client.py",
        "serve/test_soak.py",
        "serve/test_faults.py",
    }

    def test_serve_tree_exists_and_non_empty(self):
        """One module per guarantee: wire-codec round-trips, live
        end-to-end round trips, soak serial-replay identity, and fault
        injection."""
        for name in self.EXPECTED:
            path = TESTS / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_coverage_floor_requires_serve_tree(self):
        """tools/coverage_floor.py refuses to gate without these files,
        so a rename can't silently drop the serving coverage."""
        text = (REPO_ROOT / "tools" / "coverage_floor.py").read_text()
        assert "tests/serve/test_soak*.py" in text
        assert "tests/serve/test_faults*.py" in text
        assert "tests/serve/test_protocol*.py" in text

    def test_process_client_soak_is_slow_marked(self):
        """The multi-process soak spawns real client processes; it must
        carry the registered `slow` marker to stay out of tier-1."""
        text = (TESTS / "serve" / "test_soak.py").read_text()
        match = re.search(
            r"@pytest\.mark\.slow\s*\n\s*def (\w*process\w*)", text
        )
        assert match, "process-client soak test must be slow-marked"

    def test_serve_property_tests_use_shared_profiles(self):
        text = (TESTS / "serve" / "test_protocol.py").read_text()
        assert "from profiles import examples" in text
        assert "settings(max_examples" not in text


class TestClusterTree:
    """The hierarchical-topology suite stays wired into every gate."""

    EXPECTED = {
        "multigpu/test_hierarchical.py",
        "multigpu/test_topology.py",
        "multigpu/test_multisplit.py",
    }

    def test_cluster_tree_exists_and_non_empty(self):
        """One module per layer: cluster bit-identity + NIC charging
        properties, the topology graph model, and the multisplit the
        two-level split composes."""
        for name in self.EXPECTED:
            path = TESTS / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_coverage_floor_requires_cluster_tree(self):
        """tools/coverage_floor.py refuses to gate without these files,
        so a rename can't silently drop the hierarchical coverage."""
        text = (REPO_ROOT / "tools" / "coverage_floor.py").read_text()
        assert "tests/multigpu/test_hierarchical*.py" in text

    def test_hierarchical_property_tests_use_shared_profiles(self):
        text = (TESTS / "multigpu" / "test_hierarchical.py").read_text()
        assert "from profiles import examples" in text
        assert "settings(max_examples" not in text


class TestCompactTree:
    """The compact-slot-layout suite stays wired into every gate."""

    EXPECTED = {
        "core/test_store.py",
        "core/test_compact_layout.py",
        "core/test_serialize.py",
        "multigpu/test_compact_distribution.py",
    }

    def test_compact_tree_exists_and_non_empty(self):
        """One module per layer: the store/view planes, the cross-layer
        bit-identity + modelled-footprint properties, the v3 snapshot
        width guard, and the distributed byte-accounting contract."""
        for name in self.EXPECTED:
            path = TESTS / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_coverage_floor_requires_compact_tree(self):
        """tools/coverage_floor.py refuses to gate without these files,
        so a rename can't silently drop the compact-layout coverage."""
        text = (REPO_ROOT / "tools" / "coverage_floor.py").read_text()
        assert "tests/core/test_compact_layout*.py" in text
        assert "tests/core/test_store*.py" in text
        assert "tests/multigpu/test_compact_distribution*.py" in text

    def test_crossover_cascade_is_slow_marked(self):
        """The 30k-pair 2^17-per-shard strictly-fewer-bytes cascade is
        the one expensive compact test; that input must carry the `slow`
        marker (its cheap 2000-pair input stays in tier-1)."""
        text = (TESTS / "multigpu" / "test_compact_distribution.py").read_text()
        match = re.search(
            r"pytest\.param\(30000, marks=pytest\.mark\.slow\)"
            r"[^@]*?\n\s*def (\w*crossover\w*)",
            text,
        )
        assert match, "past-crossover cascade test must be slow-marked"

    def test_compact_property_tests_use_shared_profiles(self):
        for name in ("core/test_compact_layout.py", "core/test_store.py"):
            text = (TESTS / name).read_text()
            assert "from profiles import examples" in text, name
            assert "settings(max_examples" not in text, name


class TestHypothesisBudget:
    def test_property_tests_cap_examples(self):
        """Example counts stay within the tier-1 budget.

        Counts appear either as raw ``settings(max_examples=N)`` or via
        the shared profile helper ``@examples(N)`` (scaled by the active
        Hypothesis profile, 1.0 under the default ``ci`` profile).
        """
        found = 0
        pattern = re.compile(r"max_examples=(\d+)|@examples\((\d+)\)")
        for path in TESTS.rglob("test_*.py"):
            for raw, scaled in pattern.findall(path.read_text()):
                found += 1
                count = int(raw or scaled)
                assert count <= MAX_EXAMPLES_BUDGET, (
                    f"{path.name}: {count} examples exceeds "
                    f"tier-1 budget {MAX_EXAMPLES_BUDGET}"
                )
        assert found > 0  # the fused-path property tests exist

    def test_migrated_property_tests_use_shared_profiles(self):
        """The fast-path suites draw budgets from tests/profiles.py."""
        for name in (
            "exec/test_backend_equivalence.py",
            "primitives/test_scatter.py",
            "multigpu/test_fused_distribution.py",
        ):
            text = (TESTS / name).read_text()
            assert "from profiles import examples" in text, name
            assert "settings(max_examples" not in text, name
