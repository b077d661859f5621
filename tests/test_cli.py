import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bndp.assoc import ScreenOptions
from bndp.cli import InputError, _default_roles, load_dataset, main
from bndp.core import NodeSubset, ParentConstraints
from bndp.engine import learn
from bndp.scoring import ScoreConfig, compute_local_scores
from bndp.simulate import SimSpec, simulate_dag, simulate_data, simulate_survival


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

    def test_meta_records_spec(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--p", 10, "--n", 60, "--seed", 5, "--out", out) == 0
        meta = json.loads((out / "sim_meta.json").read_text())
        assert meta["spec"] == {
            "p": 10, "p0": 2, "p1": 3, "p2": 3, "p3": 2, "n": 60,
            "effect_size": [0.5, 1.5], "noise_sd": 1.0, "max_parents": 2, "seed": 5,
        }

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

    def test_partial_role_counts_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run("simulate", "--p", 10, "--n", 60, "--p0", 3, "--out", out) == 2
        assert "--p0, --p1, --p2 and --p3" in capsys.readouterr().err
        assert not out.exists()

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

    def test_empty_feasset_exit_3(self, tmp_path, capsys):
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
        # the message names the flags that loosen screening
        assert "try a looser --alpha or --corr-cutoff" in capsys.readouterr().err

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

    def test_optima_cap_below_one_exit_2(self, tmp_path, capsys):
        # rejected before the data is read: the CSV does not exist
        for cap in (0, -1):
            code = run(
                "learn", "--data", tmp_path / "absent.csv", "--out", tmp_path / "o",
                "--optima-cap", cap,
            )
            assert code == 2
            assert f"--optima-cap must be at least 1, got {cap}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_max_subsets_below_one_exit_2(self, tmp_path, capsys):
        # rejected before the data is read, by learn and by bench alike
        for argv in (
            ("learn", "--data", tmp_path / "absent.csv", "--out", tmp_path / "o"),
            ("bench", "--p-grid", 8, "--n-grid", 200, "--out", tmp_path / "o" / "bench.csv"),
        ):
            assert run(*argv, "--max-subsets", 0) == 2
            assert "--max-subsets must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_top_k_without_phenotype_exit_2(self, tmp_path, capsys):
        sim = self._make_data(tmp_path)
        code = run(
            "learn", "--data", sim / "data.csv", "--out", tmp_path / "o", "--top-k", 1,
        )
        assert code == 2
        assert "--top-k applies only in --phenotype" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def _pp_file(self, tmp_path, sim):
        names = json.loads((sim / "sim_meta.json").read_text())["names"]
        ppf = tmp_path / "pp.json"
        ppf.write_text(json.dumps({names[1]: [names[0]], names[2]: [names[1]]}))
        return ppf

    def test_alpha_with_pp_file_exit_2(self, tmp_path, capsys):
        # the file's sets skip screening, so a cutoff would be ignored
        sim = self._make_data(tmp_path)
        code = run(
            "learn", "--data", sim / "data.csv", "--out", tmp_path / "o",
            "--pp-file", self._pp_file(tmp_path, sim), "--alpha", 1e-30,
        )
        assert code == 2
        assert "--pp-file skips screening: --alpha would be ignored" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_corr_cutoff_with_pp_file_exit_2(self, tmp_path, capsys):
        sim = self._make_data(tmp_path)
        code = run(
            "learn", "--data", sim / "data.csv", "--out", tmp_path / "o",
            "--pp-file", self._pp_file(tmp_path, sim), "--corr-cutoff", 0.99,
        )
        assert code == 2
        assert "--pp-file skips screening: --corr-cutoff would be ignored" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra, ignored",
        [((), "phenotype mode"), (("--top-k", 1), "phenotype mode, top_k"),
         (("--levels", 2), "phenotype mode, levels")],
    )
    def test_phenotype_with_pp_file_exit_2(self, tmp_path, capsys, extra, ignored):
        # rejected before the data is read: the CSV does not exist. The
        # message names each ignored setting by the flag that set it
        sim = self._make_data(tmp_path)
        code = run(
            "learn", "--data", tmp_path / "absent.csv", "--out", tmp_path / "o",
            "--pp-file", self._pp_file(tmp_path, sim), "--phenotype", "--outcome", "V5", *extra,
        )
        assert code == 2
        flags = {"phenotype mode": "--phenotype", "top_k": "--top-k", "levels": "--levels"}
        named = ", ".join(flags[setting] for setting in ignored.split(", "))
        assert f"--pp-file skips screening: {named} would be ignored" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_levels_without_phenotype_exit_2(self, tmp_path, capsys):
        # by learn before it reads the data, and by bench at its first
        # replicate, before it writes anything
        for argv in (
            ("learn", "--data", tmp_path / "absent.csv", "--out", tmp_path / "o"),
            ("bench", "--p-grid", 8, "--n-grid", 200, "--out", tmp_path / "o" / "bench.csv"),
        ):
            assert run(*argv, "--levels", 2) == 2
            assert "--levels applies only in --phenotype" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bge_matches_in_process_learn(self, tmp_path):
        sim = self._make_data(tmp_path, seed=4)
        out = tmp_path / "run"
        assert run(
            "learn", "--data", sim / "data.csv", "--out", out,
            "--score", "bge", "--alpha", 0.01,
        ) == 0
        doc = json.loads((out / "networks.json").read_text())
        assert doc["score_family"] == "bge"
        want = learn(
            load_dataset(sim / "data.csv"), ScreenOptions(alpha=0.01), ScoreConfig("bge"), 2
        )
        names = want.data.names
        assert doc["nodes"] == list(names)
        assert len(doc["networks"]) == len(want.networks)
        for got, net in zip(doc["networks"], want.networks):
            assert got["total_score"] == net.total_score
            assert [(e["parent"], e["child"]) for e in got["edges"]] == [
                (names[a], names[b]) for a, b in net.edges()
            ]

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

    def test_single_survival_column_input(self, tmp_path, capsys):
        # a lone survival pair is screened against no candidate and learned
        # alone under alpha; corr_cutoff is rejected before any test
        time, status = simulate_survival(np.zeros(50), seed=2)
        csv_path, schema = tmp_path / "surv.csv", tmp_path / "schema.json"
        rows = [f"{float(t)!r},{float(s)!r}" for t, s in zip(time, status)]
        csv_path.write_text("t,s\n" + "\n".join(rows) + "\n")
        schema.write_text(json.dumps({"t": "survival_time", "s": "survival_status"}))
        out = tmp_path / "run"
        assert run("learn", "--data", csv_path, "--schema", schema, "--out", out) == 0
        assert json.loads((out / "networks.json").read_text())["nodes"] == ["s"]
        assert run(
            "learn", "--data", csv_path, "--schema", schema, "--out", tmp_path / "o",
            "--corr-cutoff", 0.3,
        ) == 2
        assert "use --alpha, not --corr-cutoff" in capsys.readouterr().err

    def test_three_level_column_rejects_corr_cutoff_and_continuous_parents(self, tmp_path, capsys):
        # k, inferred categorical (three integer values), enters scoring as
        # two indicator columns: no one correlation describes it, and it takes
        # no continuous parent, from screening or from --pp-file
        rng = np.random.default_rng(4)
        k = rng.integers(0, 3, 60)
        a = np.array([0.0, 2.0, 0.0])[k] + rng.standard_normal(60)
        csv_path = tmp_path / "k3.csv"
        csv_path.write_text("a,k\n" + "".join(f"{x!r},{c}\n" for x, c in zip(a.tolist(), k)))
        assert run("learn", "--data", csv_path, "--out", tmp_path / "o", "--corr-cutoff", 0.3) == 2
        err = capsys.readouterr().err
        assert "'k' is 2 indicator columns" in err and "use --alpha, not --corr-cutoff" in err
        pp = tmp_path / "pp.json"
        pp.write_text(json.dumps({"k": ["a"]}))
        assert run("learn", "--data", csv_path, "--out", tmp_path / "o", "--pp-file", pp) == 2
        err = capsys.readouterr().err
        assert "continuous column 'a' cannot be a possible parent of categorical column 'k'" in err
        out = tmp_path / "run"
        assert run("learn", "--data", csv_path, "--out", out) == 0
        for net in json.loads((out / "networks.json").read_text())["networks"]:
            assert net["parents"]["k"] == []

    def test_event_free_survival_column_rejected(self, tmp_path, capsys, monkeypatch):
        # a status column with no event (all 0) is an input error that names
        # the column, raised while loading: no screening test runs
        def no_learn(*args, **kwargs):
            raise AssertionError("learn ran on an event-free survival column")

        monkeypatch.setattr("bndp.cli.learn", no_learn)
        rng = np.random.default_rng(3)
        csv_path, schema = tmp_path / "surv.csv", tmp_path / "schema.json"
        rows = [f"{float(x)!r},{float(t)!r},0" for x, t in rng.uniform(0.1, 5.0, (40, 2))]
        csv_path.write_text("x,os_time,os_status\n" + "\n".join(rows) + "\n")
        schema.write_text(json.dumps({"os_time": "survival_time", "os_status": "survival_status"}))
        assert run("learn", "--data", csv_path, "--schema", schema, "--out", tmp_path / "o") == 2
        assert "survival column 'os_status' has no event" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    def test_constant_integer_column_screened_out(self, tmp_path):
        # an all-1 column is continuous, so screening warns once and drops it
        rng = np.random.default_rng(7)
        x = rng.standard_normal(80)
        y = x + 0.5 * rng.standard_normal(80)
        csv_path = tmp_path / "const.csv"
        csv_path.write_text(
            "x,y,k\n" + "".join(f"{float(a)!r},{float(b)!r},1\n" for a, b in zip(x, y))
        )
        assert load_dataset(csv_path).column(2).kind == "continuous"
        out = tmp_path / "run"
        assert run("learn", "--data", csv_path, "--out", out, "--alpha", 0.05) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["warning_counts"]["ScreeningWarning"]["count"] == 1
        assert "'k' is constant" in report["warning_counts"]["ScreeningWarning"]["first"]
        assert "k" not in report["feas_names"]

    def test_one_level_categorical_schema_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "const.csv"
        csv_path.write_text("x,k\n" + "".join(f"{i / 7!r},1\n" for i in range(20)))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"k": "categorical"}))
        assert run("learn", "--data", csv_path, "--schema", schema, "--out", tmp_path / "o") == 2
        assert "needs level_count >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, schema, message",
        [
            ("a,b\n", None, "no data rows"),
            ("a,b\n1.0,2.0\n3.0\n", None, "row 3 has 1 fields, expected 2"),
            ("a,b\n1.0,2.0\n", {"c": "continuous"}, "schema names absent from the CSV: ['c']"),
            ("a,b\n1.0,2.0\n", {"a": "ordinal"}, "unknown kind 'ordinal' for column 'a'"),
            ("a,b\n1.0,2.0\n", {"a": "survival_time"}, "exactly one time and one status column"),
            ("a,b\n1.0,2.0\n1.5,x\n", None, "column 'b', row 3: 'x' is not numeric"),
            ("a,a\n1.0,2.0\n", None, "duplicate column name 'a'"),
        ],
    )
    def test_malformed_csv_rejected(self, tmp_path, text, schema, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        schema_path = None
        if schema is not None:
            schema_path = tmp_path / "schema.json"
            schema_path.write_text(json.dumps(schema))
        with pytest.raises(InputError) as exc:
            load_dataset(csv_path, schema_path)
        assert message in str(exc.value)

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

    @pytest.mark.parametrize(
        "option, value", [("--threads", 0), ("--threads", -1), ("--replicates", 0)]
    )
    def test_count_below_one_exit_2(self, tmp_path, capsys, option, value):
        # rejected before anything is simulated or written
        out = tmp_path / "o" / "bench.csv"
        code = run("bench", "--p-grid", 8, "--n-grid", 200, "--out", out, option, value)
        assert code == 2
        assert f"{option} must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_phenotype_mode(self, tmp_path, capsys):
        out, summ = tmp_path / "bench.csv", tmp_path / "summary.csv"
        assert run(
            "bench", "--phenotype", "--levels", 2, "--effect", 1.0, "--p-grid", 8,
            "--n-grid", 200, "--replicates", 2, "--out", out, "--summary", summ,
        ) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.open()))
        assert [r["replicate"] for r in rows] == ["0", "1"]
        assert summ.read_text().splitlines()[1].startswith("8,200,2,")

    def test_failed_replicates_reported(self, tmp_path, capsys):
        # every replicate stops at the subset cap: the run still exits 0,
        # names each failure and reports the empty cell with n_ok = 0 and
        # n_failed = 2
        out, summ = tmp_path / "bench.csv", tmp_path / "summary.csv"
        assert run(
            "bench", "--max-subsets", 5, "--p-grid", 8, "--n-grid", 200,
            "--replicates", 2, "--out", out, "--summary", summ,
        ) == 0
        printed = capsys.readouterr()
        for rep in (0, 1):
            assert f"replicate failed (p=8, N=200, rep={rep}): EngineError" in printed.err
        assert len(out.read_text().splitlines()) == 1
        nan8 = ",".join(["nan"] * 8)
        assert summ.read_text().splitlines()[0].startswith("p,N,n_ok,n_failed,")
        assert summ.read_text().splitlines()[1:] == [f"8,200,0,2,{nan8}", f"all,all,0,2,{nan8}"]
        assert "p=   8 N=  200 ok=  0 failed=  2 " in printed.out


    def test_phenotype_without_sink_reported(self, tmp_path, capsys):
        # one node is no sink, so phenotype mode has no outcome: the
        # replicate fails and is counted in n_failed
        out, summ = tmp_path / "bench.csv", tmp_path / "summary.csv"
        assert run(
            "bench", "--phenotype", "--p-grid", 1, "--n-grid", 200, "--replicates", 1,
            "--out", out, "--summary", summ,
        ) == 0
        err = capsys.readouterr().err
        assert "replicate failed (p=1, N=200, rep=0): no sink node available" in err
        assert summ.read_text().splitlines()[1].startswith("1,200,0,1,")


def test_default_roles():
    # p >= 2 keeps the earlier split; p = 1 is one source
    before = {
        2: (0, 1, 0, 1), 3: (1, 1, 0, 1), 4: (1, 1, 1, 1), 5: (1, 2, 1, 1),
        6: (1, 2, 2, 1), 7: (1, 2, 2, 2), 8: (2, 2, 2, 2), 9: (2, 3, 2, 2),
        10: (2, 3, 3, 2), 11: (2, 3, 3, 3), 12: (2, 4, 3, 3),
    }
    for p in range(1, 13):
        roles = _default_roles(p)
        assert min(roles) >= 0 and sum(roles) == p
        assert roles == before.get(p, (0, 1, 0, 0))
        SimSpec(p, *roles, n=10)


def test_simulate_single_node(tmp_path):
    out = tmp_path / "s"
    assert run("simulate", "--p", 1, "--n", 20, "--out", out) == 0
    assert (out / "truth_edges.csv").read_text() == "parent,child\n"
    assert json.loads((out / "sim_meta.json").read_text())["roles"] == ["source"]


class TestMalformedInput:
    """Each malformed input exits 2 with a one-line error, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--p", 8, "--n", 50, "--effect", "1,2,3"], "effect value: '1,2,3'"),
            (["simulate", "--p", 8, "--n", 50, "--effect", "abc"], "effect value: 'abc'"),
            (["bench", "--effect", "abc"], "invalid effect value: 'abc'"),
            (["bench", "--p-grid", "8,x"], "invalid grid value: '8,x'"),
            (["bench", "--n-grid", ""], "invalid grid value: ''"),
        ],
    )
    def test_usage_errors(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.fixture
    def sim(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--p", 6, "--n", 100, "--seed", 2, "--out", out) == 0
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[1, 2]")
        return out

    def _exit_2(self, capsys, *argv):
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("flag", ["--schema", "--pp-file"])
    def test_learn_json_files(self, tmp_path, capsys, sim, flag):
        for name, message in (
            ("bad.json", "invalid JSON"), ("list.json", "expected a JSON object")
        ):
            err = self._exit_2(
                capsys, "learn", "--data", sim / "data.csv", flag, tmp_path / name,
                "--out", tmp_path / "o",
            )
            assert message in err

    def test_eval_json_files(self, tmp_path, capsys, sim):
        truth = sim / "truth_edges.csv"
        bad, listed = tmp_path / "bad.json", tmp_path / "list.json"
        assert "invalid JSON" in self._exit_2(
            capsys, "eval", "--predicted", truth, "--truth", truth, "--nodes", bad
        )
        assert "invalid JSON" in self._exit_2(
            capsys, "eval", "--predicted", bad, "--truth", truth
        )
        assert "expected a JSON object" in self._exit_2(
            capsys, "eval", "--predicted", truth, "--truth", truth, "--nodes", listed
        )
        meta = tmp_path / "meta.json"
        meta.write_text('{"names": "V0"}')
        assert '"names" list' in self._exit_2(
            capsys, "eval", "--predicted", truth, "--truth", truth, "--nodes", meta
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"networks": [{"x": 1}]},
            {"networks": {"edges": []}},
            {"networks": None},
            {"networks": [{"edges": [{"parent": "V0"}]}]},
            {"networks": [{"edges": [{"parent": "V0", "child": 1}]}]},
            {"networks": [{"edges": []}, {"edges": ["V0"]}]},
        ],
    )
    def test_eval_networks_structure(self, tmp_path, capsys, sim, doc):
        predicted = tmp_path / "networks.json"
        predicted.write_text(json.dumps(doc))
        err = self._exit_2(
            capsys, "eval", "--predicted", predicted, "--truth", sim / "truth_edges.csv"
        )
        assert 'expected "networks"' in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("parent,child\na\n", "row 2 has 1 fields, expected 2"),
            ("parent,child\nV0,V1\n\nV1,V2,V3\n", "row 4 has 3 fields, expected 2"),
            ("child,parent\nV1,V0\n", "expected an edge list with header parent,child"),
        ],
    )
    def test_edge_csv_field_count(self, tmp_path, capsys, sim, text, message):
        edges = tmp_path / "edges.csv"
        edges.write_text(text)
        for argv in (("--predicted", edges, "--truth", sim / "truth_edges.csv"),
                     ("--predicted", sim / "truth_edges.csv", "--truth", edges)):
            assert message in self._exit_2(capsys, "eval", *argv)

    def test_eval_repeated_node_name(self, tmp_path, capsys, sim):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("".join(f"V{i}\n" for i in range(6)) + "V0\n")
        truth = sim / "truth_edges.csv"
        err = self._exit_2(capsys, "eval", "--predicted", truth, "--truth", truth, "--nodes", nodes)
        assert "listed more than once: ['V0']" in err

    def test_learn_data_is_a_directory(self, tmp_path, capsys, sim):
        err = self._exit_2(capsys, "learn", "--data", sim, "--out", tmp_path / "o")
        assert "Is a directory" in err
        assert not (tmp_path / "o").exists()

    def test_learn_data_undecodable(self, tmp_path, capsys, sim):
        # byte 0x81 decodes neither as UTF-8 nor as cp1252
        garbled = tmp_path / "garbled.csv"
        garbled.write_bytes(b"a\x81,x\n1.0,2.0\n3.0,4.0\n")
        err = self._exit_2(capsys, "learn", "--data", garbled, "--out", tmp_path / "o")
        assert "can't decode" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ['"V1"', '["V1", 3]', "null", '{"V1": 1}'])
    def test_pp_file_values_are_name_lists(self, tmp_path, capsys, sim, value):
        pp = tmp_path / "pp.json"
        pp.write_text('{"V0": [], "V2": %s}' % value)
        err = self._exit_2(
            capsys, "learn", "--data", sim / "data.csv", "--pp-file", pp, "--out", tmp_path / "o"
        )
        assert "--pp-file 'V2': expected a list of column names" in err
        assert not (tmp_path / "o").exists()

    def test_pp_file_key_named_like_a_field(self, tmp_path, capsys, sim):
        # screening errors name flags, but a quoted column name stays as it is
        pp = tmp_path / "pp.json"
        pp.write_text('{"alpha": "V1"}')
        err = self._exit_2(
            capsys, "learn", "--data", sim / "data.csv", "--pp-file", pp, "--out", tmp_path / "o"
        )
        assert "--pp-file 'alpha': expected a list of column names" in err


class TestCliPaths:
    @pytest.fixture(scope="class")
    def learned(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("learned")
        assert run("simulate", "--p", 8, "--n", 200, "--seed", 1, "--out", root / "sim") == 0
        assert run("learn", "--data", root / "sim" / "data.csv", "--out", root / "run") == 0
        return root

    def test_eval_networks_json_to_stdout(self, learned, tmp_path, capsys):
        # the best network of networks.json scores as its own edge CSV does
        doc = json.loads((learned / "run" / "networks.json").read_text())
        edges = tmp_path / "best.csv"
        best = doc["networks"][0]["edges"]
        edges.write_text("parent,child\n" + "".join(f"{e['parent']},{e['child']}\n" for e in best))
        truth, meta = learned / "sim" / "truth_edges.csv", learned / "sim" / "sim_meta.json"
        capsys.readouterr()
        predicted = learned / "run" / "networks.json"
        assert run("eval", "--predicted", predicted, "--truth", truth, "--nodes", meta) == 0
        text = capsys.readouterr().out
        header = "fdr_directed,fdr_undirected,hamming_directed,hamming_undirected"
        assert text.splitlines()[0] == header
        m_csv = tmp_path / "m.csv"
        assert run(
            "eval", "--predicted", edges, "--truth", truth, "--nodes", meta, "--out", m_csv
        ) == 0
        assert m_csv.read_text() == text

    def test_eval_nodes_from_sim_meta(self, learned, tmp_path, capsys):
        # sim_meta.json names all 8 nodes; an edge outside them is a mismatch
        pred = tmp_path / "p.csv"
        pred.write_text("parent,child\nV0,V99\n")
        truth, meta = learned / "sim" / "truth_edges.csv", learned / "sim" / "sim_meta.json"
        assert run("eval", "--predicted", pred, "--truth", truth, "--nodes", meta) == 2
        assert "node-name mismatch" in capsys.readouterr().err

    def test_eval_networks_json_without_networks(self, learned, tmp_path, capsys):
        empty = tmp_path / "networks.json"
        empty.write_text(json.dumps({"nodes": [], "networks": []}))
        truth = learned / "sim" / "truth_edges.csv"
        n_true = len(truth.read_text().splitlines()) - 1
        capsys.readouterr()
        assert run("eval", "--predicted", empty, "--truth", truth) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == f"0.0,0.0,{n_true},{n_true}"

    def test_learn_survival_outcome_marked_in_dot(self, tmp_path):
        # no --outcome: the survival column is the outcome in the DOT file
        spec = SimSpec(6, 1, 2, 2, 1, n=300, seed=1)
        data = simulate_data(simulate_dag(spec), spec)
        X = np.column_stack([c.values for c in data.columns])
        t, status = simulate_survival(2.0 * X[:, -1] / X[:, -1].std(), seed=1)
        csv_path = tmp_path / "surv.csv"
        np.savetxt(
            csv_path, np.column_stack([X, t, status]), delimiter=",", comments="",
            header=",".join([*data.names, "os_time", "os_status"]),
        )
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"os_time": "survival_time", "os_status": "survival_status"}))
        out = tmp_path / "run"
        assert run("learn", "--data", csv_path, "--schema", schema, "--out", out) == 0
        dot = (out / "network_000.dot").read_text()
        assert '"os_status" [shape=doublecircle];' in dot
        assert dot.count("doublecircle") == 1

    def test_search_failure_exit_4(self, learned, tmp_path, capsys):
        code = run(
            "learn", "--data", learned / "sim" / "data.csv", "--out", tmp_path / "o",
            "--max-subsets", 5,
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: best_sinks: reachable-subset count exceeded the cap (5)")

    def test_bge_not_positive_definite_exit_4(self, tmp_path, capsys):
        # two equal columns at scale 1e8 leave BGe's posterior scale matrix
        # singular to rounding over both: a numeric failure, exit 4
        rng = np.random.default_rng(0)
        x = 1e8 * rng.standard_normal(50)
        csv_path = tmp_path / "data.csv"
        np.savetxt(
            csv_path, np.column_stack([x, x, rng.standard_normal(50)]), delimiter=",",
            header="A,B,C", comments="",
        )
        pp = tmp_path / "pp.json"
        pp.write_text(json.dumps({"A": ["B", "C"], "B": ["A", "C"], "C": ["A", "B"]}))
        code = run(
            "learn", "--data", csv_path, "--out", tmp_path / "o", "--score", "bge",
            "--pp-file", pp, "--indegree", 2,
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "local_scores: posterior scale matrix not positive definite for {0,1}" in err
