"""CI configuration stays valid and in sync with the repo's test tiers.

The workflow cannot run inside the test environment, so this is the
"equivalent dry-run": parse ``.github/workflows/ci.yml``, assert the job
graph exists, and assert each job runs the documented command against a
marker/config that actually exists (e.g. the ``slow`` marker the smoke
tier deselects, the ruff config in pyproject.toml, the benchmark module
the bench job uploads).
"""

import json
import pathlib

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def _run_lines(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_workflow_parses_and_has_expected_jobs(workflow):
    assert set(workflow["jobs"]) == {"smoke", "lint", "determinism",
                                     "bench", "full"}
    # "on" parses as YAML boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers and "pull_request" in triggers
    assert "schedule" in triggers and "workflow_dispatch" in triggers


def test_superseded_runs_are_cancelled(workflow):
    concurrency = workflow["concurrency"]
    assert concurrency["cancel-in-progress"] is True
    # Pushes share a per-ref group; nightly runs must not cancel each
    # other, so the scheduled group keys on the unique run id.
    assert "github.ref" in concurrency["group"]
    assert "github.run_id" in concurrency["group"]
    assert "schedule" in concurrency["group"]


def test_smoke_job_runs_fast_tier(workflow):
    runs = " ".join(_run_lines(workflow["jobs"]["smoke"]))
    assert '-m "not slow"' in runs
    assert "pytest" in runs
    # The perf-floor benchmarks belong to the bench job, not the gate.
    assert "--ignore=benchmarks/test_serving_throughput.py" in runs
    assert "--ignore=benchmarks/test_cluster_scaling.py" in runs
    assert "--ignore=benchmarks/test_generation_throughput.py" in runs
    assert "--ignore=benchmarks/test_observability.py" in runs
    assert "--ignore=benchmarks/test_drift_pricing.py" in runs
    # These tests must not silently skip inside the smoke job.
    assert "pyyaml" in runs
    # The tier the job deselects must exist in pytest.ini.
    assert "slow:" in (ROOT / "pytest.ini").read_text()
    # Warnings-as-errors for the repro package is enforced via pytest.ini.
    assert "error:::repro" in (ROOT / "pytest.ini").read_text()


def test_jobs_cache_pip(workflow):
    for name in ("smoke", "lint", "determinism", "bench", "full"):
        steps = workflow["jobs"][name]["steps"]
        setups = [s for s in steps
                  if "setup-python" in str(s.get("uses", ""))]
        assert setups and setups[0]["with"]["cache"] == "pip", name
    # The bench job additionally keeps the pip cache warm with an
    # explicit actions/cache step (keyed on this workflow file).
    caches = [s for s in workflow["jobs"]["bench"]["steps"]
              if "actions/cache" in str(s.get("uses", ""))]
    assert caches and "~/.cache/pip" in caches[0]["with"]["path"]
    assert "restore-keys" in caches[0]["with"]


def test_determinism_job_runs_recorded_contract(workflow):
    runs = " ".join(_run_lines(workflow["jobs"]["determinism"]))
    assert "tests/test_gen_recorded.py" in runs
    assert (ROOT / "tests" / "test_gen_recorded.py").exists()


def test_lint_job_matches_ruff_config(workflow):
    runs = _run_lines(workflow["jobs"]["lint"])
    assert any("ruff check" in r for r in runs)
    assert any("ruff format --check" in r for r in runs)
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert "[tool.ruff" in pyproject
    # The format gate is blocking since the ruff-format migration: no
    # step in the lint job may be advisory.
    for step in workflow["jobs"]["lint"]["steps"]:
        assert not step.get("continue-on-error"), step


def test_bench_job_uploads_serving_artifact(workflow):
    job = workflow["jobs"]["bench"]
    runs = " ".join(_run_lines(job))
    assert "benchmarks/test_serving_throughput.py" in runs
    assert (ROOT / "benchmarks" / "test_serving_throughput.py").exists()
    # The cluster scaling sweep feeds the cluster_scaling section of the
    # same artifact, the generation benchmark its generation section.
    assert "benchmarks/test_cluster_scaling.py" in runs
    assert (ROOT / "benchmarks" / "test_cluster_scaling.py").exists()
    assert "benchmarks/test_generation_throughput.py" in runs
    assert (ROOT / "benchmarks" / "test_generation_throughput.py").exists()
    # The observability benchmark feeds the observability section (the
    # tracing-overhead and sampler-overhead gates), the Chrome trace
    # sample artifact and the collapsed-stack profile artifact.
    assert "benchmarks/test_observability.py" in runs
    assert (ROOT / "benchmarks" / "test_observability.py").exists()
    # The drift-pricing benchmark feeds the drift_pricing section (the
    # factor-separation hard gate and the tail_improvement diff).
    assert "benchmarks/test_drift_pricing.py" in runs
    assert (ROOT / "benchmarks" / "test_drift_pricing.py").exists()
    uploads = [s for s in job["steps"]
               if "upload-artifact" in str(s.get("uses", ""))]
    paths = [step["with"]["path"] for step in uploads]
    assert "BENCH_serving.json" in paths
    assert "BENCH_history.jsonl" in paths
    assert "BENCH_trace_sample.json" in paths
    assert "BENCH_profile_collapsed.txt" in paths
    # The benchmarks must write where the job uploads from.
    env = next(s.get("env", {}) for s in job["steps"]
               if "test_serving_throughput" in str(s.get("run", "")))
    assert env["BENCH_SERVING_JSON"] == "BENCH_serving.json"
    assert env["BENCH_TRACE_JSON"] == "BENCH_trace_sample.json"
    assert env["BENCH_PROFILE_TXT"] == "BENCH_profile_collapsed.txt"


def test_bench_job_runs_repo_benchmark_end_to_end(workflow):
    """One --quick run of the BENCHMARK.json harness's single-worker TCP
    workload: its exit code is the wrong-output / lost-operation /
    leaked-worker / leaked-shm gate."""
    command = ("python3 benchmarks/perf/run.py --workload tcp_infer_w1 "
               "--seed 0 --quick")
    assert command in _run_lines(workflow["jobs"]["bench"])
    # Mirrored in the "Local dry-run" comment block.
    assert "#   " + command in WORKFLOW.read_text()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert command.startswith(" ".join(benchmark["command"]))
    assert "tcp_infer_w1" in [w["name"] for w in benchmark["workloads"]]
    assert (ROOT / "benchmarks" / "perf" / "run.py").exists()


def test_bench_job_gates_against_committed_baseline(workflow):
    """The regression gate runs after the benchmarks, against the
    baseline and artifact paths that actually exist in the repo."""
    runs = _run_lines(workflow["jobs"]["bench"])
    gate = next(r for r in runs if "check_regression" in r)
    assert "--fresh BENCH_serving.json" in gate
    assert "--baseline BENCH_baseline.json" in gate
    assert (ROOT / "benchmarks" / "check_regression.py").exists()
    assert (ROOT / "BENCH_baseline.json").exists()
    # Step order: generate, gate, append history, upload.
    order = [i for i, r in enumerate(runs)
             if "test_serving_throughput" in r or "check_regression" in r
             or "append_history" in r]
    assert order == sorted(order) and len(order) == 3


def test_bench_job_appends_trajectory_history(workflow):
    runs = " ".join(_run_lines(workflow["jobs"]["bench"]))
    assert "append_history" in runs
    assert "--history BENCH_history.jsonl" in runs
    assert (ROOT / "benchmarks" / "append_history.py").exists()
    # The committed seed keeps the trajectory non-empty from day one.
    assert (ROOT / "BENCH_history.jsonl").read_text().strip()


def test_full_job_runs_whole_suite_on_schedule_only(workflow):
    job = workflow["jobs"]["full"]
    assert "schedule" in job["if"] and "workflow_dispatch" in job["if"]
    runs = " ".join(_run_lines(job))
    assert "pytest -q" in runs
    assert "not slow" not in runs
