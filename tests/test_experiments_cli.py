import csv
import json

import numpy as np
import pytest

from tubal import (
    SolverConfig,
    Tensor3,
    UnknownKind,
    deflated_power_sweep,
    read_tensor,
    solvers,
    spectrum_of,
    write_tensor,
)
from tubal.cli import main
from tubal.experiments import (
    METHODS,
    TestTensorSpec,
    block_residual,
    default_config,
    make_tensor,
    run_method,
    run_table,
    spectral_error,
)


def test_make_tridiag_faces():
    a = make_tensor(TestTensorSpec("tridiag"))
    assert a.shape == (10, 10, 3)
    assert a.face(1)[0, 0] == 20.0
    assert a.face(2)[3, 3] == 200.0
    assert a.face(0)[0, 1] == -1.0


def test_make_stochastic_printed_entries():
    c = make_tensor(TestTensorSpec("stochastic"))
    assert c.shape == (4, 4, 4)
    assert c.data[0, 0, 0] == 0.2091
    assert c.data[1, 1, 2] == 0.1230
    assert c.data[3, 3, 3] == 0.2131


def test_make_complex_deterministic():
    a = make_tensor(TestTensorSpec("complex", seed=5))
    b = make_tensor(TestTensorSpec("complex", seed=5))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(
        a.data, make_tensor(TestTensorSpec("complex", seed=6)).data
    )


def test_make_realeig_properties():
    a = make_tensor(TestTensorSpec("realeig", seed=3))
    assert a.is_real
    spec = spectrum_of(a)
    for lam in spec.eigentubes:
        assert lam.is_real
    norms = [lam.norm() for lam in spec.eigentubes]
    assert all(np.diff(norms) < 0)


def test_make_unknown_kind():
    with pytest.raises(UnknownKind):
        make_tensor(TestTensorSpec("banana"))


def test_metrics_recomputable_from_report():
    a = make_tensor(TestTensorSpec("stochastic"))
    rep = run_method(a, "stochastic", "t-pm", SolverConfig(rng_seed=0))
    # rebuild the eigentube from the serialized spatial entries and recompute
    from tubal import Tube

    lam = Tube([complex(re, im) for re, im in rep.eigentubes[0]])
    assert abs(spectral_error(a, [lam]) - rep.error) <= 1e-12
    assert (
        abs(block_residual(a, [rep.eigenslices.lateral(0)], [lam]) - rep.res_norm)
        <= 1e-12
    )


def test_capped_deflation_scores_every_stage():
    a = make_tensor("realeig")
    stages = deflated_power_sweep(a, 6, cfg=default_config("de"))
    stage_iters = [p.iterations for p in stages]
    assert max(stage_iters) > 350
    capped = next(i for i, it in enumerate(stage_iters) if it > 350)
    rep = run_method(a, "realeig", "de", default_config("de", iter_max=350), num=6)
    assert not rep.converged
    assert rep.iterations == sum(stage_iters[:capped]) + 350
    assert len(rep.eigentubes) == capped + 1
    assert rep.stop_reasons == [p.stop_reason for p in stages[:capped]] + ["cap"]
    assert rep.error is not None and rep.res_norm is not None


def test_capped_dle_left_iteration_scores_right_pair():
    # the right iteration of the first stage converges within the cap, the
    # left one does not: the row is scored on the converged right pair
    cfg = default_config("dle", iter_max=540)
    rep = run_method(make_tensor("tridiag"), "tridiag", "dle", cfg, num=3)
    assert not rep.converged and rep.stop_reasons == ["cap"]
    assert len(rep.eigentubes) == 1
    assert rep.error <= 1e-10 and rep.res_norm <= 1e-10


def test_stall_stop_is_reported():
    # the stochastic power row stops at its noise floor, not at tol
    rep = run_method(make_tensor("stochastic"), "stochastic", "t-pm")
    assert rep.converged and rep.stop_reasons == ["stall"]


def test_run_table_t3_writes_outputs(tmp_path):
    reports = run_table("t3", tmp_path)
    assert (tmp_path / "t3.csv").exists()
    with open(tmp_path / "t3.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tensor", "method", "res_norm", "error", "iter", "cpu_time"]
    assert len(rows) == 1 + len(reports)
    assert [r[-1] for r in rows[1:]] == [f"{rep.wall_time:.3f}" for rep in reports]
    manifest = json.loads((tmp_path / "t3_manifest.json").read_text())
    assert [row["tensor"] for row in manifest["rows"]] == ["tridiag", "complex"]
    # each trace lives only in its row's trace file
    assert not any({"residual_trace", "error_trace"} & set(row) for row in manifest["rows"])
    assert len(list(tmp_path.glob("t3_*.trace.csv"))) == len(reports)
    for rep in reports:
        with open(tmp_path / f"t3_{rep.tensor}_{rep.method}.trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "residual", "error"]
        assert [float(r[1]) for r in rows[1:]] == rep.residual_trace


def test_run_table_t2_rows(tmp_path):
    reports = run_table("t2", tmp_path)
    assert [r.tensor for r in reports] == ["tridiag", "stochastic", "complex"]
    assert all(r.converged for r in reports)
    with open(tmp_path / "t2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tensor", "method", "res_norm", "error", "iter", "cpu_time"]
    assert len(rows) == 4


def test_run_table_twice_rewrites_outputs(tmp_path):
    def outputs():
        files = {}
        for path in sorted(tmp_path.glob("t2*.csv")):
            rows = list(csv.reader(path.read_text().splitlines()))
            timed = [i for i, name in enumerate(rows[0]) if name.endswith("time")]
            files[path.name] = [
                [None if i in timed else cell for i, cell in enumerate(row)] for row in rows
            ]
        manifest = json.loads((tmp_path / "t2_manifest.json").read_text())
        for row in manifest["rows"]:
            row["wall_time"] = None
        return files, manifest

    run_table("t2", tmp_path)
    first = outputs()
    traces = {p.name: p.read_bytes() for p in tmp_path.glob("*.trace.csv")}
    # as if an earlier run had written more: the rewrite must cut every file
    for path in tmp_path.iterdir():
        with open(path, "a") as fh:
            fh.write("stale\n" * 1000)
    run_table("t2", tmp_path)
    assert outputs() == first
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.trace.csv")} == traces
    assert len(first[0]) == 4 and len(traces) == 3


@pytest.mark.parametrize("table", ["t2", "t3", "t5"])
def test_power_tables_match_per_step_scoring(table, tmp_path, monkeypatch):
    # every row of the power-family tables, at the power family's chunk
    # length and with each step scored as it is taken
    def rows(chunk):
        monkeypatch.setattr(solvers, "_POWER_CHUNK", chunk)
        return [
            (r.tensor, r.method, r.iterations, r.converged, r.error.hex(), r.res_norm.hex())
            for r in run_table(table, tmp_path / str(chunk))
        ]

    assert solvers._POWER_CHUNK > 1
    assert rows(solvers._POWER_CHUNK) == rows(1)


def test_run_table_t10_rows(tmp_path):
    reports = run_table("t10", tmp_path)
    assert [r.tensor for r in reports] == ["tridiag", "stochastic"]
    with open(tmp_path / "t10.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["tensor", "method", "error", "res_norm", "cpu_time", "iter"]
    assert all(r.converged for r in reports)
    assert all(r.error <= 1e-12 for r in reports)
    assert all(r.stop_reasons == ["tol"] for r in reports)


def test_run_table_t5_rows(tmp_path):
    reports = run_table("t5", tmp_path)
    # two counts per tensor, three variants each
    assert len(reports) == 12
    with open(tmp_path / "t5.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tensor", "num"] + [
        f"{v}_{c}" for v in ("de", "dle", "ds") for c in ("error", "res_norm", "time")
    ]
    assert [r[:2] for r in rows[1:]] == [
        ["tridiag", "3"], ["tridiag", "5"], ["realeig", "4"], ["realeig", "6"]
    ]
    manifest = json.loads((tmp_path / "t5_manifest.json").read_text())
    assert [len(row["stop_reasons"]) for row in manifest["rows"]] == [
        row["extra"]["num"] for row in manifest["rows"]
    ]
    assert all(set(row["stop_reasons"]) <= {"tol", "stall"} for row in manifest["rows"])


def test_run_table_ts1_rows(tmp_path):
    reports = run_table("ts1", tmp_path)
    assert [(r.tensor, r.extra["q"]) for r in reports] == [
        ("tridiag", 1), ("tridiag", 4), ("complex", 1), ("complex", 4)
    ]
    with open(tmp_path / "ts1.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["tensor", "q", "error", "res_norm", "iter", "cpu_time"]
    # every row hands off and converges, and the larger power index needs
    # fewer steps
    assert all(r.converged for r in reports)
    manifest = json.loads((tmp_path / "ts1_manifest.json").read_text())
    assert [row["stop_reasons"] for row in manifest["rows"]] == [["tol"]] * 4
    assert reports[1].iterations < reports[0].iterations
    assert reports[3].iterations < reports[2].iterations


def test_run_table_alias(tmp_path):
    reports = run_table("inverse", tmp_path)
    assert all(r.method == "t-sipm" for r in reports)


def test_run_table_unknown(tmp_path):
    with pytest.raises(ValueError):
        run_table("t99", tmp_path)


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_convert_spectrum(tmp_path, capsys):
    t3b = tmp_path / "c.t3b"
    assert main(["gen", "--tensor", "stochastic", "--out", str(t3b)]) == 0
    js = tmp_path / "c.json"
    assert main(["convert", "--tensor", str(t3b), "--out", str(js)]) == 0
    from tubal import read_tensor

    assert np.array_equal(read_tensor(js).data, read_tensor(t3b).data)
    spec_csv = tmp_path / "spec.csv"
    spec_json = tmp_path / "spec.json"
    # both land on longer files, which they must overwrite to their end
    for path in (spec_csv, spec_json):
        path.write_text("stale\n" * 1000)
        assert main(["spectrum", "--tensor", str(t3b), "--out", str(path)]) == 0
    with open(spec_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eigentube", "entry", "re", "im"]
    assert len(rows) == 1 + 4 * 4
    assert len(json.loads(spec_json.read_text())["eigentubes"]) == 4


def test_cli_gen_dims(tmp_path):
    out = tmp_path / "x.t3b"
    assert main(["gen", "--tensor", "complex", "--dims", "3,3,4", "--out", str(out)]) == 0
    from tubal import read_tensor

    assert read_tensor(out).shape == (3, 3, 4)


def test_cli_run_single(tmp_path, capsys):
    (tmp_path / "stochastic_t-pm.json").write_text("stale\n" * 100_000)
    code = main(
        [
            "run",
            "--tensor", "stochastic",
            "--method", "t-pm",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "stochastic_t-pm.json").read_text())
    assert doc["converged"] is True
    assert doc["res_norm"] <= 1e-12
    with open(tmp_path / "stochastic_t-pm.trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + doc["iterations"]
    # without --tol the run keeps the config's default
    assert doc["config"]["tol"] == SolverConfig().tol


def test_cli_run_inverse_with_shift(tmp_path):
    code = main(
        [
            "run",
            "--tensor", "tridiag",
            "--method", "t-sipm",
            "--shift", "1e-5,0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "tridiag_t-sipm.json").read_text())
    assert doc["converged"] and doc["iterations"] <= 200


def test_cli_nonconvergence_exit_code(tmp_path):
    # a hopeless iteration cap turns into exit code 2, not a crash
    code = main(
        [
            "run",
            "--tensor", "tridiag",
            "--method", "t-pm",
            "--iter-max", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    doc = json.loads((tmp_path / "tridiag_t-pm.json").read_text())
    assert doc["converged"] is False


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run", "--tensor", "tridiag"]) == 1  # missing method
    assert main(["run", "--tensor", "tridiag", "--method", "t-sipm", "--out", str(tmp_path)]) == 1
    # an explicit cap or tolerance of 0 is passed on and rejected, not
    # replaced by the default
    for method in ("t-pm", "t-qrhs"):
        for flag in ("--iter-max", "--tol"):
            args = ["run", "--tensor", "tridiag", "--method", method, flag, "0"]
            assert main(args + ["--out", str(tmp_path)]) == 1
    assert main(["gen", "--tensor", "stochastic", "--dims", "3,3", "--out", "x.t3b"]) == 1
    assert main(["spectrum", "--tensor", "missing.t3b", "--out", "s.csv"]) == 1
    spectrum_txt = tmp_path / "s.txt"
    assert main(["spectrum", "--tensor", "stochastic", "--out", str(spectrum_txt)]) == 1
    assert "must be .csv or .json" in capsys.readouterr().err
    assert not spectrum_txt.exists()


def test_cli_run_table_smoke(tmp_path):
    assert main(["run", "--table", "t3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "t3.csv").exists()


@pytest.mark.parametrize("method", METHODS)
def test_cli_run_every_method(tmp_path, method):
    args = ["run", "--tensor", "tridiag", "--method", method, "--out", str(tmp_path)]
    if method == "t-sipm":
        args += ["--shift", "1e-5,0"]
    assert main(args) == 0
    doc = json.loads((tmp_path / f"tridiag_{method}.json").read_text())
    assert doc["method"] == method and doc["converged"] is True
    assert doc["error"] <= 1e-10 and doc["res_norm"] <= 1e-10


def test_cli_run_without_recovered_eigentube(tmp_path, capsys, monkeypatch):
    # three equal faces leave Fourier faces 1 and 2 zero, so the first
    # scaling tube is singular and a one-step run recovers no eigentube
    face = np.arange(16.0).reshape(4, 4) + 4 * np.eye(4)
    path = tmp_path / "same.t3b"
    write_tensor(Tensor3(np.stack([face] * 3, axis=2)), path)
    args = ["run", "--tensor", str(path), "--method", "t-pm", "--iter-max", "1"]
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "error=n/a res=n/a" in capsys.readouterr().out
    doc = json.loads((tmp_path / "same_t-pm.json").read_text())
    assert doc["error"] is None and doc["res_norm"] is None
    assert doc["eigentubes"] == [] and doc["converged"] is False

    # the table summary prints the same row the same way
    rep = run_method(read_tensor(path), "same", "t-pm", SolverConfig(iter_max=1))
    assert rep.error is None and rep.res_norm is None and rep.eigentubes == []
    monkeypatch.setattr("tubal.cli.run_table", lambda *args, **kwargs: [rep])
    assert main(["run", "--table", "t2", "--out", str(tmp_path)]) == 2
    assert "error=n/a res=n/a" in capsys.readouterr().out
