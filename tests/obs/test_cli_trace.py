"""``repro trace``: the CLI exit of the observability spine."""

import json

from repro.cli import main
from repro.obs.export import validate_trace


class TestTraceCommand:
    def test_smoke_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "smoke.trace.json"
        assert main(["trace", "--n", "4096", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed and "spans" in printed

        data = json.loads(out.read_text())
        assert validate_trace(data) == []
        events = [e for e in data["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        # the acceptance taxonomy: H2D, multisplit, all-to-all, kernels
        assert {"H2D", "multisplit", "all-to-all", "kernel phase"} <= names
        cats = {e["cat"] for e in events}
        assert {"cascade", "transfer", "distribution", "kernel"} <= cats
        # m=4 insert + query: every shard appears for both ops
        for op in ("insert", "query"):
            shards = {
                e["tid"] for e in events if e["name"].startswith(f"{op} shard")
            }
            assert shards == {1, 2, 3, 4}, op
        # metrics ride along in the same file
        assert data["metrics"]["counter.cascade.insert.count"] == 1

    def test_smoke_obeys_m(self, tmp_path):
        out = tmp_path / "m2.trace.json"
        assert main(["trace", "--n", "4096", "--topology", "p100:2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        shards = {
            e["tid"]
            for e in data["traceEvents"]
            if e.get("ph") == "X" and "shard" in e["name"]
        }
        assert shards == {1, 2}
