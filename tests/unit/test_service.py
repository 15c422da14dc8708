"""Unit tests for the transport-agnostic service layer.

Covers the typed request surface (:mod:`repro.service.requests`), the
response envelope and digest contract (:mod:`repro.service.core`), the
wire framing (:mod:`repro.service.wire`), and the render layer
(:mod:`repro.service.format`).
"""

import io
import json
import socket

import pytest

from repro._version import SERVICE_SCHEMA_VERSION
from repro.errors import ReproError
from repro.service import (
    DisRequest,
    IrRequest,
    PsecRequest,
    RecommendRequest,
    RenderOptions,
    RunOptions,
    ServiceCore,
    error_response,
    parse_request_doc,
    render_response,
    response_digest,
)
from repro.service.wire import (
    MAX_FRAME_BYTES,
    WireError,
    encode_frame,
    read_frame_sync,
    write_frame_sync,
)

ROI_SOURCE = """
int main() {
    int a[4];
    int sum;
    sum = 0;
    #pragma carmot roi abstraction(parallel_for)
    {
        for (int i = 0; i < 4; ++i) {
            a[i] = i * 2;
            sum = sum + a[i];
        }
    }
    print_int(sum);
    return 0;
}
"""


class TestRunOptions:
    def test_defaults_round_trip_empty(self):
        options = RunOptions()
        assert options.to_doc() == {}
        assert RunOptions.from_doc({}) == options

    def test_non_defaults_round_trip(self):
        options = RunOptions(abstraction="task", vm="ir", no_cache=True,
                             budget="retries=1,degrade=1")
        doc = options.to_doc()
        assert doc == {"abstraction": "task", "vm": "ir", "no_cache": True,
                       "budget": "retries=1,degrade=1"}
        assert RunOptions.from_doc(doc) == options

    def test_unknown_option_rejected(self):
        # Removed options must be rejected, never silently ignored.
        for doc in ({"warp_speed": 9}, {"drain": "procs"},
                    {"pipeline_shards": 2}):
            with pytest.raises(ReproError, match="unknown run option"):
                RunOptions.from_doc(doc)

    @pytest.mark.parametrize("kwargs", [
        {"vm": "jit"},
        {"prescreen": "yes"},
        {"abstraction": "nope"},
        {"event_encoding": "protobuf"},
        {"batch_size": "x"},
        {"batch_size": True},
        {"batch_size": 0},
        {"budget": 7},
        {"entry": None},
        {"no_cache": "yes"},
        {"trace": 1},
    ])
    def test_bad_enum_values_rejected(self, kwargs):
        with pytest.raises(ReproError):
            RunOptions(**kwargs)

    def test_uninstrumented_pipeline_rejected(self):
        with pytest.raises(ReproError, match="no instrumenter"):
            RunOptions(passes="selective-mem2reg").profiling_pipeline()

    def test_session_enabled(self):
        assert RunOptions().session_enabled
        assert not RunOptions(no_cache=True).session_enabled
        assert not RunOptions(print_pass_stats=True).session_enabled
        assert not RunOptions(trace=True).session_enabled


class TestRequestDocs:
    def test_round_trip_all_kinds(self):
        requests = [
            RecommendRequest(source="int main(){return 0;}", name="p"),
            PsecRequest(source="s", name="p",
                        options=RunOptions(vm="ir")),
            IrRequest(source="s", mode="carmot"),
            DisRequest(source="s", quicken_report=True),
        ]
        for request in requests:
            doc = json.loads(json.dumps(request.to_doc()))
            assert parse_request_doc(doc) == request

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown request kind"):
            parse_request_doc({"kind": "transmogrify", "source": "s"})

    def test_source_must_be_text(self):
        with pytest.raises(ReproError, match="source"):
            parse_request_doc({"kind": "psec", "source": 42})

    def test_bad_ir_mode_rejected(self):
        with pytest.raises(ReproError, match="ir mode"):
            parse_request_doc({"kind": "ir", "source": "s",
                               "mode": "quantum"})

    def test_bad_dis_mode_rejected(self):
        with pytest.raises(ReproError, match="dis mode"):
            parse_request_doc({"kind": "dis", "source": "s",
                               "mode": "plain"})


class TestServiceCore:
    def test_psec_envelope_shape(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute(PsecRequest(source=ROI_SOURCE, name="unit"))
        assert doc["ok"] is True
        assert doc["kind"] == "psec"
        assert doc["service_schema"] == SERVICE_SCHEMA_VERSION
        assert doc["body"]["sets_digest"]
        (roi,) = doc["body"]["rois"]
        assert list(roi["sets"]) == ["input", "output", "cloneable",
                                     "transfer"]
        assert doc["meta"]["stages"] == {
            "frontend": "miss", "pipeline": "miss",
            "codegen": "miss", "profile": "miss",
        }

    def test_digest_ignores_meta_and_stays_stable(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        request = PsecRequest(source=ROI_SOURCE, name="unit")
        cold = core.execute(request)
        warm = core.execute(request)
        assert cold["meta"]["stages"] != warm["meta"]["stages"]
        assert response_digest(cold) == response_digest(warm)
        # The digest is over kind+body only: responses that differ in
        # kind must differ in digest even with equal bodies.
        assert response_digest({"kind": "a", "body": {}}) \
            != response_digest({"kind": "b", "body": {}})

    def test_execute_doc_wraps_toolchain_errors(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute_doc({"kind": "psec", "source": "int main( {",
                                "name": "broken"})
        assert doc["ok"] is False
        assert doc["kind"] == "psec"
        assert doc["error"]["type"] == "error"
        assert doc["body"] is None

    def test_execute_doc_wraps_request_errors(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute_doc({"kind": "nope", "source": "s"})
        assert doc["ok"] is False
        assert "unknown request kind" in doc["error"]["message"]

    @pytest.mark.parametrize("options", [
        {"batch_size": "x"},
        {"budget": 7},
        {"abstraction": "nope"},
        {"batch_size": True},
        {"no_cache": "yes"},
        {"drain": "procs"},
        {"pipeline_shards": 2},
    ])
    def test_execute_doc_rejects_malformed_options(self, tmp_path, options):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute_doc({"kind": "psec", "source": ROI_SOURCE,
                                "options": options})
        assert doc["ok"] is False
        assert doc["error"]["type"] == "error"
        assert doc["body"] is None

    def test_namespaced_cores_do_not_share_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        request = PsecRequest(source=ROI_SOURCE, name="unit")
        first = ServiceCore(cache_dir=cache, namespace="a").execute(request)
        other = ServiceCore(cache_dir=cache, namespace="b").execute(request)
        same = ServiceCore(cache_dir=cache, namespace="a").execute(request)
        assert first["meta"]["stages"]["profile"] == "miss"
        assert other["meta"]["stages"]["profile"] == "miss"
        assert same["meta"]["stages"]["profile"] == "hit"
        assert response_digest(first) == response_digest(other) \
            == response_digest(same)


class TestRenderers:
    def test_error_envelope_renders_cli_error_line(self):
        doc = error_response("psec", "error", "boom")
        rendered = render_response(doc, RenderOptions())
        assert rendered.err == "error: boom\n"
        assert rendered.exit_code == 1

    def test_overloaded_renders_exit_2(self):
        doc = error_response("psec", "overloaded", "queue full")
        rendered = render_response(doc, RenderOptions())
        assert "server overloaded" in rendered.err
        assert rendered.exit_code == 2

    def test_renderers_never_print_directly(self, tmp_path, capsys):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute(PsecRequest(source=ROI_SOURCE, name="unit"))
        rendered = render_response(doc, RenderOptions())
        assert capsys.readouterr() == ("", "")
        assert "ROI" in rendered.out


class TestWire:
    def test_frame_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            doc = {"kind": "ping", "payload": ["x"] * 10}
            write_frame_sync(left, doc)
            assert read_frame_sync(right) == doc
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_frame_sync(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"kind": "ping"})
            left.sendall(frame[:-3])
            left.close()
            with pytest.raises(WireError, match="mid-frame"):
                read_frame_sync(right)
        finally:
            right.close()

    def test_oversized_header_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(WireError, match="bound"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_key_order_preserved(self):
        """Wire framing must not reorder keys: the psec ``sets`` mapping
        carries the canonical set order the renderers print."""
        doc = {"sets": {"input": [], "output": [], "cloneable": [],
                        "transfer": []}}
        decoded = json.loads(encode_frame(doc)[4:].decode())
        assert list(decoded["sets"]) == ["input", "output", "cloneable",
                                        "transfer"]
