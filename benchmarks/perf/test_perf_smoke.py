"""Smoke test of the perf harness (collected through ``testpaths``).

Runs each workload with ``--quick`` windows and checks the *shape* of
what it reports against ``BENCHMARK.json`` — never the numbers. The two
in-process workloads run in the smoke tier; the three ``tcp_*`` ones
spawn a cluster and are marked ``slow``. The validity guards are fed
doctored inputs directly, so they are tested without having to saturate
a real server.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import perf_loadgen
import perf_stats
import perf_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_quick(workload, *extra):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--quick", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def check_report(workload):
    done = run_quick(workload)
    if done.returncode == 3:
        pytest.skip("host too loaded for a valid measurement: "
                    + done.stderr.strip())
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1 and final["failed"] == 0
    declared = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(final["metrics"]) == set(declared)
    for name, metric in final["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]["unit"]
        assert metric["value"] > 0
        # The readable report carries the sample count next to the unit.
        row = next(line.split() for line in lines
                   if line.split()[:1] == [name])
        assert row[2] == metric["unit"] and int(row[3]) >= 1
    assert any("inputs sha256" in line for line in lines)
    assert any(line.startswith("environment: MALLOC_MMAP_THRESHOLD_=")
               for line in lines)


def test_benchmark_json_is_well_formed():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == list(
        perf_workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(m["unit"] and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["engine_offline", "gen_inproc"])
def test_inprocess_workload_reports_declared_metrics(workload):
    check_report(workload)


@pytest.mark.slow
@pytest.mark.parametrize("workload",
                         ["tcp_infer_w1", "tcp_infer_w2", "tcp_mixed_w2"])
def test_tcp_workload_reports_declared_metrics(workload):
    check_report(workload)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    """The contract's bare-directory check: only BENCHMARK.json and the
    benchmark's own files present -> non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "engine_offline", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# Guards on doctored inputs
# ----------------------------------------------------------------------

HEALTHY = dict(offered_per_s=1000.0, completed_in_window=998, window_s=1.0,
               late_ms=[0.2] * 990 + [1.5] * 10, outstanding=[8] * 1000)


def test_open_loop_guard_accepts_a_healthy_phase():
    assert perf_stats.check_open_loop("ok", **HEALTHY) == 998.0


@pytest.mark.parametrize("doctored, message", [
    (dict(completed_in_window=940), "below 0.97 x offered"),
    (dict(late_ms=[0.2] * 900 + [9.0] * 100), "late at p99"),
    (dict(outstanding=[8] * 800 + list(range(8, 408, 2))), "still growing"),
])
def test_open_loop_guard_fires_on_saturation(doctored, message):
    with pytest.raises(perf_stats.InvalidRun, match=message):
        perf_stats.check_open_loop("doctored", **dict(HEALTHY, **doctored))


def test_token_guard_counts_and_fires():
    want = [list(range(16)) for _ in range(10)]
    one_off = [list(tokens) for tokens in want]
    one_off[3][7] = 99
    assert perf_stats.check_token_match("ok", one_off, want) == (159, 160, 1)
    garbled = [[0] * 16 for _ in want]
    with pytest.raises(perf_stats.InvalidRun, match="token match rate"):
        perf_stats.check_token_match("doctored", garbled, want)
    truncated = [tokens[:8] for tokens in want]
    with pytest.raises(perf_stats.InvalidRun):
        perf_stats.check_token_match("doctored", truncated, want)


def test_wrong_and_failed_replies_count_as_failed():
    reference = np.arange(30, dtype=np.float32).reshape(3, 10)
    encoded = []
    for row in reference:
        buf = io.BytesIO()
        np.save(buf, row, allow_pickle=False)
        encoded.append(buf.getvalue())

    def reply(index, payload, ok=True):
        op = perf_loadgen.Op(index, 0.0, 0.0)
        op.ok, op.reply = ok, payload
        return op

    skewed = io.BytesIO()
    np.save(skewed, reference[1] + 0.5, allow_pickle=False)
    close = io.BytesIO()
    np.save(close, reference[2] * (1 + 1e-6), allow_pickle=False)
    ops = [reply(0, encoded[0]),                # bit-equal
           reply(1, skewed.getvalue()),         # wrong values
           reply(2, close.getvalue()),          # within tolerance
           reply(0, b"", ok=False)]             # error frame
    assert perf_workloads.count_wrong_replies(ops, reference, encoded) == 2


def test_engine_check_tolerates_one_flipped_row_but_not_a_broken_kernel():
    want = np.random.default_rng(0).normal(size=(9, 10))
    flipped = want.copy()
    flipped[4] += 0.5
    assert perf_workloads.median_row_error(flipped, want) == 0.0
    assert (perf_workloads.median_row_error(want * 1.1, want)
            > perf_workloads.ENGINE_REL_ERR)


def test_self_time_subtracts_children():
    recorder = perf_stats.Recorder()
    parent = recorder.add("outer", 0.0, 10.0, rid=1)
    recorder.add("inner", 1.0, 4.0, parent=parent, rid=1)
    recorder.add("inner", 5.0, 7.0, parent=parent, rid=1)
    assert recorder.totals() == {"outer": (1, 10.0, 5.0),
                                 "inner": (2, 5.0, 5.0)}
