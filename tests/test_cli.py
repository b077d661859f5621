import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bndp.cli import main
from bndp.core import NodeSubset, ParentConstraints
from bndp.scoring import ScoreConfig, compute_local_scores
from bndp.cli import load_dataset


def run(*argv):
    return main([str(a) for a in argv])


def normalized(path: Path) -> str:
    """File content with volatile timing fields removed."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        doc.pop("stage_ms", None)
        doc.pop("level_ms", None)
        return json.dumps(doc, indent=2)
    if path.name.endswith(".csv") and "runtime_ms" in text.splitlines()[0]:
        rows = [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        return "\n".join(rows)
    return text


class TestSimulateCommand:
    def test_outputs_and_shape(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--p", 10, "--n", 60, "--seed", 5, "--out", out) == 0
        rows = (out / "data.csv").read_text().splitlines()
        assert len(rows) == 61
        assert len(rows[0].split(",")) == 10
        truth = (out / "truth_edges.csv").read_text().splitlines()
        assert truth[0] == "parent,child"
        meta = json.loads((out / "sim_meta.json").read_text())
        assert len(meta["names"]) == 10

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--p", 8, "--n", 40, "--seed", 9, "--out", out) == 0
        for name in ("data.csv", "truth_edges.csv", "sim_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_all_independent_empty_truth(self, tmp_path):
        out = tmp_path / "s"
        assert (
            run(
                "simulate", "--p", 4, "--n", 30, "--p0", 4, "--p1", 0,
                "--p2", 0, "--p3", 0, "--out", out,
            )
            == 0
        )
        assert (out / "truth_edges.csv").read_text().splitlines() == ["parent,child"]

    def test_bad_spec_exit_code(self, tmp_path):
        code = run(
            "simulate", "--p", 3, "--n", 30, "--p0", 0, "--p1", 0,
            "--p2", 0, "--p3", 3, "--out", tmp_path / "x",
        )
        assert code == 2


class TestLearnCommand:
    def _make_data(self, tmp_path, seed=3):
        out = tmp_path / "sim"
        assert run("simulate", "--p", 6, "--n", 500, "--seed", seed, "--out", out) == 0
        return out

    def test_learn_outputs(self, tmp_path):
        sim = self._make_data(tmp_path)
        out = tmp_path / "run"
        code = run(
            "learn", "--data", sim / "data.csv", "--out", out,
            "--alpha", 0.01, "--indegree", 2,
        )
        assert code == 0
        doc = json.loads((out / "networks.json").read_text())
        assert doc["networks"]
        net = doc["networks"][0]
        assert set(net) == {"total_score", "ordering", "edges", "parents", "node_scores"}
        report = json.loads((out / "report.json").read_text())
        assert report["feas_set_size"] == len(doc["nodes"])
        # recovery fills only reachable subsets
        assert 1 <= report["n_recover_subsets"] <= report["n_reachable_subsets"]
        assert len(report["level_ms"]) == len(report["level_sizes"])
        counts = report["warning_counts"]
        assert sum(c["count"] for c in counts.values()) == len(report["warnings"])
        assert all(c["first"] in report["warnings"] for c in counts.values())
        dot = (out / "network_000.dot").read_text()
        assert dot.startswith("digraph")

    def test_rescore_roundtrip(self, tmp_path):
        # networks re-read from JSON reproduce their recorded total_score
        sim = self._make_data(tmp_path, seed=8)
        out = tmp_path / "run"
        assert run(
            "learn", "--data", sim / "data.csv", "--out", out, "--alpha", 0.01
        ) == 0
        doc = json.loads((out / "networks.json").read_text())
        data = load_dataset(sim / "data.csv")
        reduced = data.restrict([data.index_of(n) for n in doc["nodes"]])
        index = {n: i for i, n in enumerate(doc["nodes"])}
        d = doc["indegree"]
        pp = [0] * reduced.p
        for net in doc["networks"]:
            for child, parents in net["parents"].items():
                for par in parents:
                    pp[index[child]] |= 1 << index[par]
        constraints = ParentConstraints(tuple(NodeSubset(m) for m in pp), d)
        table = compute_local_scores(reduced, constraints, ScoreConfig("bic"))
        for net in doc["networks"]:
            total = 0.0
            for child, parents in net["parents"].items():
                mask = 0
                for par in parents:
                    mask |= 1 << index[par]
                total += table.score(index[child], mask)
            assert abs(total - net["total_score"]) < 1e-6

    def test_byte_reproducible_modulo_timings(self, tmp_path):
        sim = self._make_data(tmp_path, seed=11)
        a, b = tmp_path / "ra", tmp_path / "rb"
        for out in (a, b):
            assert run(
                "learn", "--data", sim / "data.csv", "--out", out, "--alpha", 0.01
            ) == 0
        assert (a / "networks.json").read_bytes() == (b / "networks.json").read_bytes()
        assert (a / "network_000.dot").read_bytes() == (b / "network_000.dot").read_bytes()
        assert normalized(a / "report.json") == normalized(b / "report.json")

    def test_missing_value_exit_2(self, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("a,b\n1.0,\n2.0,3.0\n")
        assert run("learn", "--data", csv_path, "--out", tmp_path / "o") == 2

    def test_unknown_outcome_exit_2(self, tmp_path):
        sim = self._make_data(tmp_path)
        code = run(
            "learn", "--data", sim / "data.csv", "--out", tmp_path / "o",
            "--phenotype", "--outcome", "nosuch", "--alpha", 0.05,
        )
        assert code == 2

    def test_empty_feasset_exit_3(self, tmp_path):
        rng = np.random.default_rng(0)
        csv_path = tmp_path / "noise.csv"
        with csv_path.open("w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["a", "b", "c"])
            for row in rng.standard_normal((100, 3)):
                w.writerow([repr(float(v)) for v in row])
        assert run(
            "learn", "--data", csv_path, "--out", tmp_path / "o", "--alpha", 1e-8
        ) == 3

    def test_mixed_bge_exit_2(self, tmp_path):
        csv_path = tmp_path / "mixed.csv"
        rng = np.random.default_rng(1)
        with csv_path.open("w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["a", "b"])
            for i in range(80):
                w.writerow([repr(float(rng.standard_normal())), i % 2])
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"a": "continuous", "b": "categorical"}))
        code = run(
            "learn", "--data", csv_path, "--schema", schema,
            "--out", tmp_path / "o", "--score", "bge", "--corr-cutoff", 0.0,
        )
        assert code == 2

    def test_pp_file(self, tmp_path):
        sim = self._make_data(tmp_path, seed=21)
        meta = json.loads((sim / "sim_meta.json").read_text())
        names = meta["names"]
        ppf = tmp_path / "pp.json"
        ppf.write_text(json.dumps({names[1]: [names[0]], names[2]: [names[1]]}))
        out = tmp_path / "run"
        assert run(
            "learn", "--data", sim / "data.csv", "--out", out, "--pp-file", ppf
        ) == 0
        doc = json.loads((out / "networks.json").read_text())
        assert set(doc["nodes"]) == {names[0], names[1], names[2]}

    def test_single_column_input(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        rng = np.random.default_rng(2)
        csv_path.write_text(
            "only\n" + "\n".join(repr(float(v)) for v in rng.standard_normal(50)) + "\n"
        )
        out = tmp_path / "run"
        assert run("learn", "--data", csv_path, "--out", out, "--alpha", 0.05) == 0
        doc = json.loads((out / "networks.json").read_text())
        assert doc["nodes"] == ["only"]
        assert doc["networks"][0]["edges"] == []


class TestSchemaLoading:
    def test_survival_pair_merged(self, tmp_path):
        rng = np.random.default_rng(5)
        csv_path = tmp_path / "surv.csv"
        with csv_path.open("w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x", "os_time", "os_status"])
            for _ in range(40):
                w.writerow(
                    [
                        repr(float(rng.standard_normal())),
                        repr(float(rng.uniform(0.1, 5.0))),
                        int(rng.integers(0, 2)),
                    ]
                )
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps(
                {
                    "x": "continuous",
                    "os_time": "survival_time",
                    "os_status": "survival_status",
                }
            )
        )
        data = load_dataset(csv_path, schema)
        assert data.p == 2
        assert data.survival_index is not None
        surv = data.column(data.survival_index)
        assert surv.name == "os_status"
        assert surv.values.shape == (40, 2)

    def test_categorical_inference(self, tmp_path):
        csv_path = tmp_path / "cat.csv"
        rows = ["a,b"]
        rng = np.random.default_rng(6)
        for _ in range(60):
            rows.append(f"{float(rng.standard_normal())!r},{int(rng.integers(0, 3))}")
        csv_path.write_text("\n".join(rows) + "\n")
        data = load_dataset(csv_path)
        assert data.column(0).kind == "continuous"
        assert data.column(1).kind == "categorical"
        assert data.column(1).levels == 3

    def test_header_required(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(Exception):
            load_dataset(p)


class TestEvalCommand:
    def test_identical_files(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("parent,child\na,b\nb,c\n")
        out = tmp_path / "m.csv"
        assert run("eval", "--predicted", edges, "--truth", edges, "--out", out) == 0
        header, row = out.read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["fdr_directed"]) == 0.0
        assert int(vals["hamming_directed"]) == 0

    def test_empty_prediction(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("parent,child\n")
        truth = tmp_path / "t.csv"
        truth.write_text("parent,child\na,b\nb,c\nc,d\n")
        out = tmp_path / "m.csv"
        assert run("eval", "--predicted", pred, "--truth", truth, "--out", out) == 0
        header, row = out.read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["fdr_directed"]) == 0.0
        assert int(vals["hamming_directed"]) == 3

    def test_hand_counted_fixture(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("parent,child\na,b\nc,b\nd,a\n")
        truth = tmp_path / "t.csv"
        truth.write_text("parent,child\na,b\nb,c\nd,a\n")
        out = tmp_path / "m.csv"
        assert run("eval", "--predicted", pred, "--truth", truth, "--out", out) == 0
        header, row = out.read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        # directed: tp=2 (a->b, d->a), fp=1 (c->b), fn=1 (b->c)
        assert math.isclose(float(vals["fdr_directed"]), 1 / 3)
        assert int(vals["hamming_directed"]) == 2
        # undirected: skeleton {ab, bc, ad} on both sides -> perfect
        assert float(vals["fdr_undirected"]) == 0.0
        assert int(vals["hamming_undirected"]) == 0

    def test_node_mismatch_exit_2(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("parent,child\nq,r\n")
        truth = tmp_path / "t.csv"
        truth.write_text("parent,child\na,b\n")
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("a\nb\n")
        assert run(
            "eval", "--predicted", pred, "--truth", truth, "--nodes", nodes
        ) == 2


class TestBenchCommand:
    def test_tiny_grid_shape(self, tmp_path):
        out = tmp_path / "bench.csv"
        summ = tmp_path / "summary.csv"
        code = run(
            "bench", "--p-grid", "8", "--n-grid", "200", "--replicates", 2,
            "--seed", 4, "--out", out, "--summary", summ,
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("p,N,replicate,score_family,fdr_directed")
        assert len(rows) == 3
        srows = summ.read_text().splitlines()
        assert len(srows) == 3  # header, cell, overall

    def test_reproducible_modulo_runtime(self, tmp_path):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"bench_{tag}.csv"
            assert run(
                "bench", "--p-grid", "8", "--n-grid", "200", "--replicates", 2,
                "--seed", 4, "--out", out, "--summary", tmp_path / f"s_{tag}.csv",
            ) == 0
            outs.append(out)
        assert normalized(outs[0]) == normalized(outs[1])

    def test_threads_match_serial(self, tmp_path):
        # the process pool gets the same specs and options as the serial loop
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"bench_t{threads}.csv"
            summ = tmp_path / f"summary_t{threads}.csv"
            assert run(
                "bench", "--p-grid", "6,8", "--n-grid", "200", "--replicates", 2,
                "--seed", 4, "--threads", threads, "--out", out, "--summary", summ,
            ) == 0
            outs.append((out, summ))
        (a, sa), (b, sb) = outs
        assert len(a.read_text().splitlines()) == 5
        assert normalized(a) == normalized(b)
        assert sa.read_text() == sb.read_text()
