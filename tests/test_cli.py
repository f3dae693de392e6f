import json
import re

import numpy as np
import pytest

from factorrisk import (
    DataFormatError,
    GaussianFactorSpec,
    choquet_factor,
    from_sample,
    inf_convolution,
    ols_fit,
    partition_discrete,
    simulate,
)
from factorrisk import cli, conditioning, regression
from factorrisk.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    MEASURES,
    MeasureRequest,
    UsageError,
    _agent_spec,
    main,
    read_csv,
    regression_report,
    run,
    write_grid,
)
from factorrisk.regression import diff_grid


@pytest.fixture
def d1_csv(tmp_path):
    path = tmp_path / "d1.csv"
    rows = ["X,W"] + [f"{x},{w}" for x, w in
                      [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (4, 1), (6, 1), (8, 1)]]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestReadCsv:
    def test_basic_parse_with_skip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("date,RF,RM-RF,RI\n2001-01,0.1,0.2,0.3\n"
                        "2001-02,0.4,0.5,0.6\n2001-03,0.7,0.8,0.9\n")
        sample = read_csv(path, target="RI", skip=("date",))
        assert sample.n_rows == 3
        assert sample.factor_names == ("RF", "RM-RF")
        assert sample.factors[:, 0].tolist() == [0.1, 0.4, 0.7]

    def test_blank_cell_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("RF,RI\n0.1,0.2\n,0.4\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(path, target="RI")
        assert exc.value.row == 2
        assert exc.value.column == "RF"
        assert "(row 2, col RF)" in str(exc.value)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(DataFormatError):
            read_csv(path, target="C")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1,2\n3\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(path, target="A")
        assert exc.value.row == 2

    def test_paper_schema_shape(self, tmp_path):
        header = "date,RF,RM-RF,SMB,HML,UMD,TERM,DEF,RI,DIV"
        rng = np.random.default_rng(1)
        lines = [header]
        for i in range(12):
            lines.append(f"m{i}," + ",".join(f"{v:.4f}" for v in rng.normal(size=9)))
        path = tmp_path / "factors.csv"
        path.write_text("\n".join(lines) + "\n")
        sample = read_csv(path, target="RI",
                          factors=("RF", "RM-RF", "SMB", "HML", "UMD", "TERM", "DEF"),
                          skip=("date",))
        assert sample.n_factors == 7
        assert sample.loss_name == "RI"


class TestRun:
    def test_var_var_on_d1(self, d1_csv):
        report = run(MeasureRequest(d1_csv, "X", "var-var", p=0.75, q=0.5))
        assert report["value"] == 3.0
        assert report["nScenarios"] == 2
        assert report["nObservations"] == 8
        assert report["measure"] == "var-var"
        assert report["warnings"] == []

    def test_full_measure_sweep_on_d1(self, d1_csv):
        cases = [
            ("covar", dict(alpha=(0.75,), p=0.5), 4.0),
            ("covar-eq", dict(alpha=(0.75,), p=0.5), 4.0),
            ("coes", dict(alpha=(0.75,), p=0.5), 7.0),
            ("mes", dict(alpha=(0.75,)), 5.0),
            ("var-var", dict(p=0.75, q=0.5), 3.0),
            ("esssup-var", dict(p=0.75), 6.0),
            ("mean-var", dict(p=0.75), 4.5),
            ("dist-var", dict(p=0.75, q=0.5), 6.0),
            ("mean-es", dict(p=0.5), 5.25),
            ("covar", dict(alpha=(0.75,), beta=(1.0,), p=0.5), 4.0),
            ("es-box", dict(p=0.5, alpha=(0.75,)), 7.0),
            ("es-es", dict(p=0.5, q=0.5), 7.0),
            ("esssup-es", dict(p=0.5), 7.0),
            ("linear", dict(weights=(0.25, 0.75)), 4.375),
        ]
        for measure, params, expected in cases:
            report = run(MeasureRequest(d1_csv, "X", measure, **params))
            assert report["value"] == pytest.approx(expected, abs=1e-12), measure
        assert {measure for measure, _, _ in cases} == set(MEASURES)

    def test_unknown_measure(self, d1_csv):
        with pytest.raises(UsageError):
            run(MeasureRequest(d1_csv, "X", "tail-risk-3000"))

    def test_missing_params_lists_expected(self, d1_csv):
        with pytest.raises(UsageError, match="requires parameters"):
            run(MeasureRequest(d1_csv, "X", "var-var", p=0.75))


class TestGridRoundTrip:
    def _grid(self):
        data = simulate(0.0, [1.0], 1.0, GaussianFactorSpec(np.zeros(1), np.eye(1)),
                        20000, seed=9)
        fit = ols_fit(data)
        return diff_grid(fit, data, [0.9, 0.95], [0.5, 0.7], master_seed=4)

    @staticmethod
    def _parse(path):
        """The header and the columns of a written grid, read back by numpy."""
        header = path.read_text().splitlines()[0]
        return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T

    def test_write_read_write_is_identical(self, tmp_path, capsys):
        grid = self._grid()
        path = tmp_path / "grid.csv"
        write_grid(grid, str(path))
        _, (p, q, rho_factor, rho_plain, diff) = self._parse(path)
        n_q = grid.q_values.size
        write_grid(regression.DiffGrid(p[::n_q], q[:n_q], rho_factor, rho_plain, diff))
        assert capsys.readouterr().out == path.read_text()

    def test_read_reproduces_values_at_9_digits(self, tmp_path):
        grid = self._grid()
        path = tmp_path / "grid.csv"
        write_grid(grid, str(path))
        header, (p, q, rho_factor, rho_plain, diff) = self._parse(path)
        assert header == "p,q,rho_factor,rho_plain,diff"
        # p-major: each p level holds every q level in turn
        assert p.tolist() == [0.9, 0.9, 0.95, 0.95] and q.tolist() == [0.5, 0.7, 0.5, 0.7]
        assert np.allclose(rho_factor, grid.rho_factor, rtol=1e-8, atol=0)
        assert np.allclose(rho_plain, grid.rho_plain, rtol=1e-8, atol=0)
        assert np.allclose(diff, grid.diff, rtol=1e-8, atol=0)


class TestMainExitCodes:
    def test_measure_ok(self, d1_csv, capsys):
        rc = main(["measure", "--data", d1_csv, "--target", "X",
                   "--measure", "var-var", "--p", "0.75", "--q", "0.5"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 3.0

    def test_csv_output_format(self, d1_csv, capsys):
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", "mes",
                   "--alpha", "0.75", "--format", "csv"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "measure,value,nScenarios,nObservations"
        assert lines[1].startswith("mes,5,")

    def test_usage_error(self, d1_csv, capsys):
        rc = main(["measure", "--data", d1_csv, "--target", "X",
                   "--measure", "nope"])
        assert rc == EXIT_USAGE

    def test_missing_flag_is_usage(self, capsys):
        rc = main(["measure", "--data", "x.csv"])
        assert rc == EXIT_USAGE

    def test_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,\n")
        rc = main(["measure", "--data", str(bad), "--target", "A",
                   "--measure", "mean-es", "--p", "0.5"])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("cells, row, col", [
        (("1,0", "nan,1", "3,0"), 2, "X"),
        (("1,0", "2,1", "3,-inf", "4,inf"), 3, "W"),
    ])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, cells, row, col):
        path = tmp_path / "bad.csv"
        path.write_text("X,W\n" + "\n".join(cells) + "\n")
        rc = main(["measure", "--data", str(path), "--target", "X",
                   "--measure", "mean-es", "--p", "0.5"])
        assert rc == EXIT_DATA
        assert f"(row {row}, col {col})" in capsys.readouterr().err
        with pytest.raises(DataFormatError) as exc:
            read_csv(path, target="X")
        assert (exc.value.row, exc.value.column) == (row, col)

    def test_numeric_rejection(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "cont.csv"
        lines = ["X,W1,W2"]
        for _ in range(200):
            x, w1, w2 = rng.normal(size=3)
            lines.append(f"{x:.6f},{w1:.6f},{w2:.6f}")
        path.write_text("\n".join(lines) + "\n")
        rc = main(["measure", "--data", str(path), "--target", "X",
                   "--measure", "covar-eq", "--alpha", "0.7,0.7", "--p", "0.5"])
        assert rc == EXIT_NUMERIC

    def test_heatmap_row_count(self, tmp_path, capsys):
        data = simulate(0.0, [1.0], 1.0, GaussianFactorSpec(np.zeros(1), np.eye(1)),
                        5000, seed=13)
        src = tmp_path / "sim.csv"
        lines = ["X,W1"] + [f"{x:.8f},{w:.8f}" for x, w in zip(data.loss, data.factors[:, 0])]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "grid.csv"
        rc = main(["heatmap", "--data", str(src), "--target", "X",
                   "--p", "0.9,0.95", "--q", "0.5,0.6,0.7", "--output", str(out)])
        assert rc == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "p,q,rho_factor,rho_plain,diff"
        assert len(rows) == 1 + 2 * 3

    def test_simulate_then_regress(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        rc = main(["simulate", "--beta", "1.5,-0.5", "--beta0", "0.2", "--sigma", "0.3",
                   "--n", "400", "--seed", "17", "--output", str(sim)])
        assert rc == EXIT_OK
        rc = main(["regress", "--data", str(sim), "--target", "X"])
        assert rc == EXIT_OK
        table = capsys.readouterr().out
        for token in ("coef", "std err", "t", "P>|t|", "[0.025", "0.975]"):
            assert token in table
        assert "W1" in table and "W2" in table and "const" in table

    def test_share_command(self, d1_csv, capsys):
        rc = main(["share", "--data", d1_csv, "--target", "X",
                   "--agents", "var-var:p=0.75,q=0.5@W;var-var:p=0.75,q=1.0@W"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["value"] == 3.0
        # tied agents split a slope: each distinct slope is spelled once and
        # laid out by index, in the bytes of json.dumps
        assert sorted(set(np.ravel(payload["slopes"]).tolist())) == [0.0, 0.5, 1.0]
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("measure", ["covar", "covar-eq"])
    def test_too_many_alpha_levels(self, d1_csv, capsys, measure):
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", measure,
                   "--alpha", "0.5,0.5", "--p", "0.9"])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric rejection: box level vectors must match the factor dimension\n")

    @pytest.mark.parametrize("measure, p, message", [
        ("covar", "1.5", "VaR level must be in (0, 1], got 1.5"),
        ("coes", "1.0", "ES level must be in [0, 1), got 1.0"),
    ])
    def test_level_out_of_range(self, d1_csv, capsys, measure, p, message):
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", measure,
                   "--alpha", "0.5", "--p", p])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric rejection: {message}\n"

    def test_nan_weight_is_numeric_rejection(self, d1_csv, capsys):
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", "linear",
                   "--weights", "nan,1"])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr() == ("", "numeric rejection: weights must be finite, got nan\n")

    def test_out_of_memory_is_numeric_rejection(self, tmp_path, capsys, monkeypatch):
        # the draw that would allocate the 71.1 PiB fails as numpy fails it,
        # before any memory is taken
        message = "Unable to allocate 71.1 PiB for an array with shape (10000000000000000, 1)"

        def draw(self, rng, n):
            assert n == 10**16
            raise MemoryError(message)
        monkeypatch.setattr(regression.GaussianFactorSpec, "draw", draw)
        out = tmp_path / "big.csv"
        rc = main(["simulate", "--n", "10000000000000000", "--beta", "1.0",
                   "--output", str(out)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric rejection: out of memory: {message}\n"
        assert not out.exists()


class TestUnreadableInputAndUnwritableOutput:
    """A ``--data`` that cannot be read or is not UTF-8 is a data error, an
    ``--output`` that cannot be written a usage error, each naming its path,
    with no traceback."""

    def test_data_naming_a_directory(self, tmp_path, capsys):
        rc = main(["measure", "--data", str(tmp_path), "--target", "X", "--measure", "mes",
                   "--alpha", "0.5"])
        assert rc == EXIT_DATA
        assert capsys.readouterr() == ("", f"data error: cannot read {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("text, line", [
        (b"X,W\n1,0\n2,\xff\n3,1\n", 3),
        (b"X,\xe9W\n1,0\n", 1),
        (b"X,W\r\n1,0\r\n2,1\r\n3,\xc3(\r\n", 4),
    ])
    def test_data_that_is_not_utf8(self, tmp_path, capsys, text, line):
        path = tmp_path / "latin.csv"
        path.write_bytes(text)
        rc = main(["measure", "--data", str(path), "--target", "X", "--measure", "mes",
                   "--alpha", "0.5"])
        assert rc == EXIT_DATA
        assert capsys.readouterr() == ("", f"data error: not UTF-8 text at line {line} of "
                                           f"{path}\n")

    @pytest.mark.parametrize("output, reason", [
        ("", "Is a directory"),
        ("missing/out.csv", "No such file or directory"),
    ])
    @pytest.mark.parametrize("command", [
        ["measure", "--measure", "mes", "--alpha", "0.5"],
        ["heatmap", "--p", "0.9", "--q", "0.5"],
        ["regress"],
    ])
    def test_output_that_cannot_be_written(self, d1_csv, tmp_path, capsys, command, output,
                                           reason):
        target = tmp_path / output if output else tmp_path
        rc = main([command[0], "--data", d1_csv, "--target", "X", *command[1:],
                   "--output", str(target)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: cannot write --output {target}: "
                                           f"{reason}\n")
        assert not (tmp_path / "missing").exists()


class TestOversizedBins:
    """More ``--bins`` than data rows are a numeric rejection raised before
    ``partition_quantile_boxes`` builds its levels, so 10**9 or 10**20 bins
    allocate nothing; as many bins as rows still run."""

    @pytest.mark.parametrize("bins", [9, 10**5, 10**9, 10**20])
    def test_rejected_before_the_levels(self, d1_csv, capsys, monkeypatch, bins):
        def arange(*args, **kwargs):
            raise AssertionError("the levels were built")
        monkeypatch.setattr(conditioning.np, "arange", arange)
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", "var-var",
                   "--p", "0.9", "--q", "0.5", "--bins", str(bins)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr() == (
            "", f"numeric rejection: --bins must be at most the 8 data rows, got {bins}\n")

    def test_as_many_bins_as_rows(self, d1_csv, capsys):
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", "var-var",
                   "--p", "0.9", "--q", "0.5", "--bins", "8"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["nScenarios"] == 2  # W takes two values

    def test_bins_below_one_keep_their_message(self, d1_csv, capsys):
        rc = main(["measure", "--data", d1_csv, "--target", "X", "--measure", "mean-es",
                   "--p", "0.9", "--bins", "0"])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric rejection: bins_per_factor must be an integer >= 1, got 0\n")


class TestRegressionReport:
    def test_table_one_column_layout(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((300, 2))
        y = 0.1413 + W @ np.array([-0.2686, 0.03]) + 0.05 * rng.standard_normal(300)
        from factorrisk import JointSample

        fit = ols_fit(JointSample(y, W, loss_name="RI", factor_names=("RF", "TERM")))
        text = regression_report(fit, title="T-bill")
        header = text.splitlines()[1]
        assert [tok for tok in header.split()] == ["coef", "std", "err", "t",
                                                   "P>|t|", "[0.025", "0.975]"]
        const_row = [line for line in text.splitlines() if line.startswith("const")][0]
        cells = const_row.split()
        assert len(cells) == 7
        float(cells[1])

    def test_small_coefficient_uses_scientific(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(5000)
        y = 2.031e-05 * w + 1e-6 * rng.standard_normal(5000)
        from factorrisk import JointSample

        fit = ols_fit(JointSample(y, w, loss_name="y", factor_names=("UMD",)))
        text = regression_report(fit)
        umd_row = [line for line in text.splitlines() if line.startswith("UMD")][0]
        assert "e-05" in umd_row


class TestAgentSpecs:
    """``share`` agents take the parameters of their table entry and no others."""

    @pytest.mark.parametrize("agents, unknown", [
        ("var-var:p=0.9,qq=0.9@W", "['qq']"),
        ("mean-es:p=0.9,q=0.2", "['q']"),
        ("mean-var:p=0.9,=0.5@W", "['']"),
    ])
    def test_unknown_parameter_is_usage_error(self, d1_csv, capsys, agents, unknown):
        rc = main(["share", "--data", d1_csv, "--target", "X", "--agents", agents])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.rstrip().endswith(f"; unknown {unknown}")

    def test_defaults_fill_optional_parameters(self, d1_csv):
        sample = read_csv(d1_csv, "X")
        values = []
        for token in ("var-var:p=0.75@W", "var-var:p=0.75,q=0.5@W", "var-var:p=0.75,q=0.9@W"):
            psi, family = _agent_spec(token, sample, {})
            values.append(choquet_factor(family, psi))
        assert values == [3.0, 3.0, 6.0]

    def test_an_empty_parameter_is_skipped(self, d1_csv):
        sample = read_csv(d1_csv, "X")
        (psi, family), (want_psi, want_family) = (
            _agent_spec(token, sample, {}) for token in ("var-var:p=0.75,,q=0.9@W",
                                                         "var-var:p=0.75,q=0.9@W"))
        assert choquet_factor(family, psi) == choquet_factor(want_family, want_psi) == 6.0

    @pytest.mark.parametrize("token, message", [
        ("var-var:q=0.5@W", "needs p=<level>"),
        ("var-es:p=0.9@W", "unknown agent measure 'var-es'; use var-var, mean-es, mean-var"),
    ])
    def test_bad_specs(self, d1_csv, token, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            _agent_spec(token, read_csv(d1_csv, "X"), {})

    def test_help_lists_each_agent_and_its_parameters(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["share", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "var-var: p, q=0.5; mean-es: p; mean-var: p" in help_text


class TestShareFamilies:
    """``share`` builds one conditional family per distinct agent column."""

    TOKENS = ["var-var:p=0.9,q=0.5@W2", "mean-es:p=0.8@W2", "mean-var:p=0.7"]

    @pytest.fixture
    def tied_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        T = 777  # weights 1/777, renormalized again in each column's sample
        X = np.round(3 * rng.standard_normal(T), 1)
        rows = zip(X.tolist(), rng.integers(0, 5, T).tolist(), rng.integers(0, 3, T).tolist())
        path = tmp_path / "tied.csv"
        path.write_text("X,W1,W2\n" + "".join(f"{x!r},{a},{b}\n" for x, a, b in rows))
        return str(path)

    def _per_agent_report(self, path):
        """The report with a family built per agent and once more for the marginal."""
        sample = read_csv(path, "X")
        agents = [_agent_spec(tok, sample, {}) for tok in self.TOKENS]
        x_law = from_sample(sample, partition_discrete(sample)).mixture()
        value, allocation = inf_convolution(x_law, agents)
        payload = {"value": value, "agents": self.TOKENS,
                   "breakpoints": allocation.breakpoints.tolist(),
                   "slopes": allocation.slopes.tolist()}
        return json.dumps(payload, indent=2) + "\n"

    def test_one_family_per_column(self, tied_csv, monkeypatch, capsys):
        built = []
        real = cli.from_sample
        monkeypatch.setattr(cli, "from_sample",
                            lambda sample, part: built.append(sample.factor_names)
                            or real(sample, part))
        rc = main(["share", "--data", tied_csv, "--target", "X",
                   "--agents", ";".join(self.TOKENS)])
        assert rc == EXIT_OK
        assert built == [("W2",), ("W1", "W2")]  # the marginal reuses the "" family
        out = capsys.readouterr().out
        monkeypatch.undo()
        assert out == self._per_agent_report(tied_csv)


class TestWarnings:
    """The report warns of quantile cuts merged by ties and of single-row scenarios."""

    @pytest.fixture
    def report(self, tmp_path, capsys):
        def warnings_of(rows, **params):
            path = tmp_path / "data.csv"
            path.write_text("X,W1,W2\n" + "".join(f"{x},{a},{b}\n" for x, a, b in rows))
            argv = ["measure", "--data", str(path), "--target", "X", "--measure", "var-var",
                    "--p", "0.5", "--q", "0.5"]
            for key, value in params.items():
                argv += [f"--{key}", str(value)]
            assert main(argv) == EXIT_OK
            return json.loads(capsys.readouterr().out)["warnings"]
        return warnings_of

    def test_clean_files_have_no_warnings(self, report):
        rng = np.random.default_rng(1)
        X = rng.standard_normal(400).tolist()
        discrete = rng.integers(0, 4, (400, 2)).tolist()
        assert report((x, a, b) for x, (a, b) in zip(X, discrete)) == []
        continuous = rng.standard_normal((400, 2)).tolist()
        assert report(((x, a, b) for x, (a, b) in zip(X, continuous)), bins=3) == []

    def test_ties_merge_quantile_cuts(self, report):
        rng = np.random.default_rng(2)
        # W2 is 1 on 90% of rows: its cuts at levels 1/4, 1/2 and 3/4 are all 1
        rows = zip(rng.standard_normal(400).tolist(), rng.standard_normal(400).tolist(),
                   (rng.random(400) < 0.9).astype(int).tolist())
        assert report(rows, bins=4) == ["factor 'W2': ties merge its 3 quantile cuts into 1"]

    def test_single_row_scenarios_are_counted(self, report):
        rows = [(1, 0, 0), (2, 0, 0), (3, 1, 0), (4, 2, 0), (5, 2, 1), (6, 2, 1)]
        assert report(rows) == ["2 of 4 scenarios hold a single row"]
        assert report([(x, x, -x) for x in range(5)], bins=5) == [
            "5 of 5 scenarios hold a single row"]
