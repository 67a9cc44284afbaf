"""Server subprocess of the ``tcp_*`` workloads.

Builds lenet + ``gpt_nano``, serves them through a
:class:`ClusterServer` (shipped defaults except the four knobs the
benchmark fixes) behind a :class:`ClusterTCPServer`, prints one JSON
line with the bound port and the process ids, then blocks on stdin: the
line ``shutdown`` (or EOF, so a dead bench process cannot orphan the
cluster) drains and stops everything, the multiprocessing resource
tracker included. Running in its own process keeps
the load generator's GIL out of the asyncio front-end it measures.
"""

import argparse
import json
import os
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.cluster import ClusterServer, ClusterTCPServer

    import perf_models
    import perf_stats

    lenet_model, _ = perf_models.convert_classifier("lenet")
    specs = perf_models.cluster_specs(
        lenet_model, perf_models.convert_decoder("gpt_nano"))
    cluster = ClusterServer(specs, perf_models.cluster_config(args.workers))
    tcp = ClusterTCPServer(cluster)
    try:
        host, port = tcp.start_in_thread()
        print(json.dumps({
            "host": host, "port": port, "server_pid": os.getpid(),
            "worker_pids": [s.process.process.pid for s in cluster.shards],
        }), flush=True)
        sys.stdin.readline()
    finally:
        tcp.stop()
        cluster.shutdown(drain=True)
        # The resource tracker would outlive this process by a moment.
        perf_stats.stop_resource_tracker()
    print(json.dumps({"down": True,
                      "summary": _summary_counts(cluster)}), flush=True)


def _summary_counts(cluster):
    """Per-shard request counts taken after the drain (the
    ``router.shard_share_max`` probe reads them)."""
    return {key: [shard.metrics[key].request_count
                  for shard in cluster.shards]
            for key in cluster.plans}


if __name__ == "__main__":
    # The guard matters: ClusterServer spawns its workers, and spawn
    # re-imports ``__main__``.
    main()
