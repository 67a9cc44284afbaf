"""TCP front-end: frame protocol, asyncio server, blocking client."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterServer,
    ClusterTCPServer,
    ModelSpec,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.lutboost.converter import (
    ConversionPolicy,
    calibrate_model,
    convert_model,
)
from repro.models.mlp import mlp
from repro.obs.metrics import METRICS
from repro.serving import execute_plan


class TestFraming:
    def test_round_trip_header_and_array(self):
        x = np.arange(12.0).reshape(3, 4).astype(np.float32)
        frame = encode_frame({"id": 3, "model": "m"}, x)
        # Strip the 4-byte length prefix before decoding the body.
        header, payload = decode_frame(frame[4:])
        assert header == {"id": 3, "model": "m"}
        np.testing.assert_array_equal(payload, x)
        assert payload.dtype == np.float32

    def test_header_only_frame(self):
        frame = encode_frame({"id": 1, "op": "ping"})
        header, payload = decode_frame(frame[4:])
        assert header["op"] == "ping"
        assert payload is None

    def test_length_prefix_is_big_endian_u32(self):
        frame = encode_frame({"id": 1})
        body_len = int.from_bytes(frame[:4], "big")
        assert body_len == len(frame) - 4

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_frame(b"not-json\n")

    def test_missing_separator_rejected(self):
        with pytest.raises(ProtocolError, match="separator"):
            decode_frame(b"{}")

    def test_non_object_header_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2]\n")


@pytest.fixture(scope="module")
def served_cluster():
    rng = np.random.default_rng(1)
    model = mlp(16, hidden=32, num_classes=4)
    convert_model(model, ConversionPolicy(v=4, c=8))
    calibrate_model(model, rng.normal(size=(40, 16)))
    config = ClusterConfig(workers=2, max_batch_size=8, max_wait_ms=1.0,
                           precision="fp64")
    cluster = ClusterServer({"mlp": ModelSpec(model, (16,))}, config)
    tcp = ClusterTCPServer(cluster)
    host, port = tcp.start_in_thread()
    yield cluster, host, port
    tcp.stop()
    cluster.shutdown(drain=False, timeout=10.0)


class TestTCPServing:
    def test_ping_and_metrics(self, served_cluster):
        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            assert client.ping()
            summary = client.metrics()
            assert summary["workers"] == 2
            assert "models" in summary

    def test_pipelined_inference_matches_local_execution(
            self, served_cluster):
        cluster, host, port = served_cluster
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 16))
        expected = execute_plan(cluster.plans["mlp"], x)
        with ClusterClient(host, port) as client:
            out = client.infer_many("mlp", x)
        np.testing.assert_array_equal(out, expected)

    def test_multiple_connections_share_the_loop(self, served_cluster):
        cluster, host, port = served_cluster
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 16))
        expected = execute_plan(cluster.plans["mlp"], x)
        clients = [ClusterClient(host, port) for _ in range(4)]
        try:
            outs = [client.infer_many("mlp", x) for client in clients]
        finally:
            for client in clients:
                client.close()
        for out in outs:
            np.testing.assert_array_equal(out, expected)

    def test_unknown_model_returns_error_frame(self, served_cluster):
        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            with pytest.raises(RuntimeError, match="unknown model"):
                client.infer("nope", np.zeros(16))
            # The connection survives the error.
            assert client.ping()

    def test_bad_shape_returns_error_frame(self, served_cluster):
        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            with pytest.raises(RuntimeError, match="request shape"):
                client.infer("mlp", np.zeros(9))

    def test_inference_without_payload_is_an_error(self, served_cluster):
        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            client._send({"model": "mlp"})  # no array attached
            client._flush()
            header, _ = client._recv()
            assert header["ok"] is False
            assert "no array" in header["error"]

    def test_unknown_op_is_an_error(self, served_cluster):
        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            client._send({"op": "explode"})
            client._flush()
            header, _ = client._recv()
            assert header["ok"] is False
            assert "unknown op" in header["error"]

    def test_junk_ops_do_not_mint_metric_series(self, served_cluster):
        """The op label is peer-controlled: 300 distinct unknown ops may
        add one ``unknown`` series per counter family, not 300."""
        def op_series(family):
            return set(METRICS.snapshot()[family]["series"])

        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            scrape_before = len(client.scrape())
            families = ("repro_tcp_requests_total", "repro_tcp_errors_total")
            before = {family: op_series(family) for family in families}
            for i in range(300):
                client._send({"op": "junk-%d" % i})
            client._flush()
            for _ in range(300):
                header, _ = client._recv()
                assert header["ok"] is False
                assert "unknown op 'junk-" in header["error"]
            for family in families:
                assert op_series(family) - before[family] <= {"op=unknown"}
            # The scrape body grows by the two new series, not by 600.
            assert len(client.scrape()) - scrape_before < 1024

    @pytest.mark.parametrize("op", [["x"], {"a": 1}, None, 5])
    def test_non_string_op_is_an_ordinary_error_frame(self, served_cluster,
                                                      op):
        _, host, port = served_cluster
        with ClusterClient(host, port) as client:
            client._send({"op": op})
            client._flush()
            header, _ = client._recv()
            assert header["ok"] is False
            assert header["error"] == "ProtocolError: unknown op %r" % (op,)
            assert client.ping()
