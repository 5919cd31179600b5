import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibbsaccel import cli
from gibbsaccel.catalog import FUNCTION_KEYS, get_function
from gibbsaccel.cli import EXIT_CONFIG, EXIT_INSUFFICIENT, EXIT_OK, main
from gibbsaccel.rates import (
    SingularitySet,
    delta_truncation_error,
    rho_of_x,
    z_image,
    zeta_image_modulus,
)
from gibbsaccel.series import saturation_floor
from gibbsaccel.sweeps import (
    ConfigError,
    ErrorRow,
    ErrorTrace,
    ExperimentConfig,
    InsufficientDataError,
    compare_filters,
    fit_envelope,
    meta_line,
    parse_meta,
    parse_sweep_csv,
    render_csv,
    rho_curve,
    sweep_csv,
    sweep_errors,
)

SAWTOOTH_SET = SingularitySet(real_singularity=0.0)


def synthetic_trace(amplitude, q, ns, wobble=None):
    trace = ErrorTrace(x=1.0, filter_kind="euler")
    for k, n in enumerate(ns):
        err = amplitude * math.exp(-q * n) / n
        if wobble is not None:
            err *= wobble[k]
        trace.rows.append(ErrorRow(n, err, False))
    return trace


class TestFitEnvelope:
    def test_recovers_exact_model(self):
        amplitude, q_hat = fit_envelope(synthetic_trace(2.0, 0.5, range(5, 40)))
        assert q_hat == pytest.approx(0.5, abs=1e-6)
        assert amplitude == pytest.approx(2.0, rel=1e-6)

    def test_oscillation_keeps_upper_hull(self):
        ns = list(range(5, 43))
        wobble = [0.02 if n % 3 else 1.0 for n in ns]
        trace = synthetic_trace(2.0, 0.5, ns, wobble)
        amplitude, q_hat = fit_envelope(trace)
        assert q_hat == pytest.approx(0.5, abs=0.01)
        # only the un-suppressed rows survive on the hull
        assert all(trace.rows[i].N % 3 == 0 for i in trace.envelope)

    def test_model_bounds_every_row(self):
        config = ExperimentConfig(
            "sws", xs=(math.pi / 4, 5 * math.pi / 8), n_min=5, n_max=60
        )
        for trace in sweep_errors(config):
            amplitude, q_hat = trace.fit
            for row in trace.rows:
                if not row.saturated:
                    bound = 1.2 * amplitude * math.exp(-q_hat * row.N) / row.N
                    assert row.error <= bound

    def test_saturated_rows_excluded(self):
        trace = synthetic_trace(2.0, 0.5, range(5, 40))
        trace.rows.extend(ErrorRow(n, 1e-18, True) for n in range(40, 60))
        _, q_hat = fit_envelope(trace)
        assert q_hat == pytest.approx(0.5, abs=1e-6)

    def test_all_saturated_raises(self):
        trace = ErrorTrace(x=1.0, filter_kind="euler")
        trace.rows = [ErrorRow(n, 1e-18, True) for n in range(5, 40)]
        with pytest.raises(InsufficientDataError):
            fit_envelope(trace)

    def test_too_few_points_raises(self):
        trace = synthetic_trace(2.0, 0.5, range(5, 9))
        with pytest.raises(InsufficientDataError):
            fit_envelope(trace)
        # the hull is kept, so a skipped fit can report its size
        assert trace.envelope == [0, 1, 2, 3] and trace.fit is None


class TestSweepErrors:
    def test_sawtooth_rate_matches_prediction(self):
        x = math.pi / 8
        config = ExperimentConfig("sws", xs=(x,), n_min=50, n_max=600, n_stride=2)
        (trace,) = sweep_errors(config)
        _, q_hat = trace.fit
        q_pred = rho_of_x(SAWTOOTH_SET, x).q
        assert abs(q_hat - q_pred) <= 0.05 * q_pred

    def test_rate_stable_under_longer_sweeps(self):
        x = 5 * math.pi / 8
        short = sweep_errors(
            ExperimentConfig("sws", xs=(x,), n_min=5, n_max=60)
        )[0]
        long = sweep_errors(
            ExperimentConfig("sws", xs=(x,), n_min=5, n_max=200)
        )[0]
        assert short.fit[1] == pytest.approx(long.fit[1], rel=0.01)

    def test_delta_rows_match_closed_form(self):
        config = ExperimentConfig("delta", xs=(math.pi / 2,), n_min=2, n_max=40)
        (trace,) = sweep_errors(config)
        for row in trace.rows:
            want = abs(delta_truncation_error(math.pi / 2, row.N))
            assert row.error == pytest.approx(want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("x", [0.01, 0.003])
    def test_delta_at_advertised_scale(self, x):
        # at x = 0.01 the error is roundoff, at x = 0.003 still truncation
        config = ExperimentConfig(
            "delta", xs=(x,), n_min=1_999_000, n_max=2_000_000, n_stride=1000
        )
        (trace,) = sweep_errors(config)
        series = get_function("delta").series
        assert [row.N for row in trace.rows] == [1_999_000, 2_000_000]
        for row in trace.rows:
            want = abs(delta_truncation_error(x, row.N))
            assert abs(row.error - want) <= saturation_floor(series, row.N)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            sweep_errors(ExperimentConfig("sws", xs=(1.0,), n_min=10, n_max=5))

    def test_singular_x_rejected(self):
        with pytest.raises(ConfigError):
            sweep_errors(ExperimentConfig("sws", xs=(0.0,)))

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("heaviside", xs=(1.0,)).validate()

    def test_saturation_marks_tiny_errors(self):
        config = ExperimentConfig(
            "lorentzian", xs=(0.5,), p=0.05, n_min=2, n_max=60
        )
        (trace,) = sweep_errors(config)
        assert not trace.rows[0].saturated
        assert trace.rows[-1].saturated

    def test_csv_round_trip_and_determinism(self):
        config = ExperimentConfig(
            "sws", filters=("euler", "hdaf"), xs=(0.9, 2.1), n_min=5, n_max=30
        )
        text_a = sweep_csv(config, sweep_errors(config))
        text_b = sweep_csv(config, sweep_errors(config))
        assert text_a == text_b
        meta, traces = parse_sweep_csv(text_a)
        assert meta["fn"] == "sws"
        assert len(traces) == 4
        assert all(len(t.rows) == 26 for t in traces)
        refit = fit_envelope(traces[0])
        original = sweep_errors(config)[0].fit
        assert refit == pytest.approx(original)


def _is_number(text):
    for cast in (int, float):
        try:
            cast(text)
            return True
        except ValueError:
            pass
    return False


# a single token: nonempty, no whitespace, no "="
_WORD = st.text(min_size=1).filter(lambda s: s.split() == [s] and "=" not in s)
_META_VALUE = (
    st.integers()
    | st.floats(allow_nan=False)
    | st.none()
    | _WORD.filter(lambda s: not _is_number(s))
)


class TestMetadataLines:
    @given(st.lists(_WORD, max_size=3), st.dictionaries(_WORD, _META_VALUE))
    def test_round_trip(self, tags, fields):
        got_tags, got_fields = parse_meta(meta_line(*tags, **fields))
        assert got_tags == tags
        assert got_fields == fields
        assert [type(v) for v in got_fields.values()] == [
            type(v) for v in fields.values()
        ]

    def test_float_and_none_format(self):
        line = meta_line("fit", x=0.1, N=3, A=None, q_hat=math.inf)
        assert line == "fit x=0.1 N=3 A= q_hat=inf"


def reference_rho_curve(function_key, resolution, p=None, phi=None):
    """``rho_curve`` from one scalar ``rho_of_x`` call per grid point: the
    reference for the image table."""
    sings = get_function(function_key, p=p, phi=phi).series.singularities
    header = ["x", "rho"]
    if sings.real_singularity is not None:
        header.append("zeta_real")
    header += [f"zeta_off{j}" for j in range(len(sings.off_axis))]
    if sings.off_axis:
        header.append("penalty")
        rho_raw = math.exp(min(abs(s.tau) for s in sings.off_axis))
    rows = []
    for i in range(resolution):
        x = -math.pi + 2.0 * math.pi * i / (resolution - 1)
        pred = rho_of_x(sings, x)
        row = [x, pred.rho]
        if sings.real_singularity is not None:
            row.append(zeta_image_modulus(1.0, sings.real_distance(x)))
        for s in sings.off_axis:
            r, theta = z_image((s.sigma, s.tau), x)
            row.append(zeta_image_modulus(r, theta))
        if sings.off_axis:
            flagged = pred.rho < rho_raw and isinstance(pred.dominating, int)
            row.append(int(flagged))
        rows.append(row)
    comments = [meta_line(fn=function_key), meta_line(resolution=resolution)]
    comments += [
        meta_line(**{k: v}) for k, v in (("p", p), ("phi", phi)) if v is not None
    ]
    return render_csv(comments, header, rows)


class TestRhoCurve:
    @staticmethod
    def parse(text):
        header = None
        rows = []
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
        return header, np.array(rows)

    def test_sawtooth_curve_hits_cap(self):
        header, rows = self.parse(rho_curve("sws", 1001))
        assert header[:2] == ["x", "rho"]
        x, rho = rows[:, 0], rows[:, 1]
        crossover = 2 * math.pi / 3
        inside = np.abs(x) < crossover - 0.01
        outside = np.abs(x) > crossover + 0.01
        assert np.all(rho[inside] < 2.0)
        assert np.all(rho[outside] == 2.0)

    def test_lorentzian_curve_minimum_and_penalty(self):
        header, rows = self.parse(
            rho_curve("lorentzian", 1001, p=math.exp(-0.2))
        )
        assert "penalty" in header
        rho = rows[:, header.index("rho")]
        flags = rows[:, header.index("penalty")]
        r = math.exp(0.2)
        assert rho.min() == pytest.approx(2 * r / (1 + r), abs=1e-6)
        assert flags.sum() > 0

    def test_composite_tau_family(self):
        # deeper poles lift the dip at the pole phase toward the metric cap
        dips = []
        for tau in (0.1, 0.2, 0.5, 1.0):
            _, rows = self.parse(
                rho_curve("sws+lorentzian", 501, p=math.exp(-tau))
            )
            x, rho = rows[:, 0], rows[:, 1]
            dips.append(rho[np.argmin(np.abs(x - math.pi))])
            r = math.exp(tau)
            assert dips[-1] == pytest.approx(min(2.0, 2 * r / (1 + r)), abs=1e-9)
        assert all(a < b + 1e-12 for a, b in zip(dips, dips[1:]))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ConfigError):
            rho_curve("sws", 1)

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    @pytest.mark.parametrize("p", [None, 0.8187])
    @pytest.mark.parametrize("resolution", [2, 33, 501, 1001])
    def test_csv_equals_per_point_reference(self, key, p, resolution):
        phis = (None, 0.7) if key == "lorentzian" else (None,)
        for phi in phis:
            expected = reference_rho_curve(key, resolution, p=p, phi=phi)
            assert rho_curve(key, resolution, p=p, phi=phi) == expected


class TestCompareFilters:
    @staticmethod
    def fits(text):
        out = {}
        for line in text.splitlines():
            if line.startswith("#"):
                tags, fields = parse_meta(line[1:])
                if tags == ["fit"]:
                    out[fields["filter"]] = (fields["A"], fields["q_hat"])
        return out

    def test_adaptive_filters_beat_euler_near_jump(self):
        config = ExperimentConfig(
            "sws",
            filters=("euler", "erfclog", "hdaf"),
            xs=(math.pi / 12,),
            n_min=40,
            n_max=400,
            n_stride=4,
        )
        fits = self.fits(compare_filters(config))
        assert fits["erfclog"][1] > fits["euler"][1]
        assert fits["hdaf"][1] > fits["euler"][1]

    def test_identity_filter_is_flat(self):
        config = ExperimentConfig(
            "sws", filters=("identity",), xs=(math.pi / 12,), n_min=40,
            n_max=400, n_stride=4,
        )
        fits = self.fits(compare_filters(config))
        assert abs(fits["identity"][1]) < 0.005

    def test_requires_single_x(self):
        with pytest.raises(ConfigError):
            compare_filters(ExperimentConfig("sws", xs=(1.0, 2.0)))


class TestCli:
    def test_weights_table(self, capsys):
        assert main(["weights", "--filter", "euler", "--M", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "j,sigma,mu"
        assert lines[1].startswith("0,1.0,0.25")
        assert lines[-1].startswith("3,0.0")

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--fn", "sws", "--x", "0.9", "--n-max", "40",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        meta, traces = parse_sweep_csv(out.read_text())
        assert meta["fn"] == "sws"
        assert len(traces) == 1 and len(traces[0].rows) == 39

    def test_envelope_command(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        _, fields = parse_meta(text)
        assert "q_hat" in fields and "q_predicted" in fields
        assert fields["rel_gap"] < 0.05

    def test_rho_command(self, capsys):
        assert main(["rho", "--fn", "lorentzian", "--resolution", "33"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[2].startswith("x,rho,")

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--fn", "sws", "--x", "1.9635", "--n-max", "50",
             "--n-min", "5"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "err_euler" in out and "err_hdaf" in out

    def test_config_error_exit_code(self, capsys):
        assert main(["sweep", "--fn", "sws", "--x", "0.0", "--n-max", "40"]) == EXIT_CONFIG
        assert main(["weights", "--filter", "euler", "--M", "0"]) == EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--filter", "hdaf", "--M", "2"])
        assert exc.value.code == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--fn", "sws", "--x", "nan", "--n-max", "30"],
            ["sweep", "--fn", "sws", "--x", "1.9", "--n-min", "-1", "--n-max", "5"],
            ["sweep", "--fn", "sws", "--x", "1.9", "--n-min", "2999990",
             "--n-max", "3000000"],
            ["sweep", "--fn", "sws", "--x", "1.9", "--n-max", "30", "--stride", "0"],
            ["compare", "--fn", "sws", "--x", "1.9", "--n-max", "30",
             "--filters", "euler,foo"],
            ["rho", "--fn", "lorentzian", "--resolution", "5", "--p", "1.5"],
            ["rho", "--fn", "lorentzian", "--resolution", "5", "--phi", "nan"],
            ["rho", "--fn", "sws+lorentzian", "--resolution", "5", "--p", "0"],
            ["sweep", "--fn", "lorentzian", "--x", "1", "--n-max", "30", "--p", "2"],
            ["sweep", "--fn", "lorentzian", "--x", "1", "--n-max", "30",
             "--phi", "inf"],
            ["compare", "--fn", "sws+lorentzian", "--x", "1", "--n-max", "30",
             "--p", "nan"],
        ],
    )
    def test_invalid_request_exit_code(self, args, capsys):
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and not captured.out

    @pytest.mark.parametrize(
        "filters", ["euler,erfclog,hdaf", "identity,euler,erfclog,hdaf"]
    )
    def test_envelope_rejects_compare_output(self, filters, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        main(["compare", "--fn", "sws", "--x", "1.9635", "--n-max", "30",
              "--filters", filters, "--out", str(out)])
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        header = ",".join(["N"] + [f"err_{k}" for k in filters.split(",")])
        assert header in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_row", ["1.9635,euler,12", "1.9635,euler,abc,0.1,0"]
    )
    def test_envelope_rejects_malformed_row(self, bad_row, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-max", "12",
              "--out", str(out)])
        out.write_text(out.read_text() + bad_row + "\n")
        lineno = len(out.read_text().splitlines())
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"line {lineno}" in err and bad_row in err

    def test_insufficient_data_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        # deep pole: everything saturates almost immediately
        main(["sweep", "--fn", "lorentzian", "--p", "0.01", "--x", "0.5",
              "--n-min", "50", "--n-max", "80", "--out", str(out)])
        capsys.readouterr()
        # the skipped fit is written, with the hull size that was too small
        fit_lines = [
            parse_meta(line[1:])[1]
            for line in out.read_text().splitlines()
            if line.startswith("# fit ")
        ]
        assert len(fit_lines) == 1
        assert fit_lines[0]["A"] is None and fit_lines[0]["q_hat"] is None
        assert fit_lines[0]["hull_points"] < 5
        meta, traces = parse_sweep_csv(out.read_text())
        assert meta["fn"] == "lorentzian" and meta["p"] == 0.01
        assert len(traces) == 1 and len(traces[0].rows) == 31
        assert main(["envelope", "--in", str(out)]) == EXIT_INSUFFICIENT

    def test_unknown_function_in_input_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        out.write_text(out.read_text().replace("fn=sws", "fn=heaviside"))
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        assert "heaviside" in capsys.readouterr().err

    def test_missing_function_in_input_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "lorentzian", "--x", "0.5", "--n-min", "5",
              "--n-max", "40", "--out", str(out)])
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(ln for ln in lines if not ln.startswith("# fn=")))
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "fn=" in err

    def test_parser_survives_argparse_error(self, capsys):
        argv = ["sweep", "--fn", "sws", "--x", "0.9", "--n-max", "40",
                "--stride", "3"]
        assert main(argv) == EXIT_OK
        before = capsys.readouterr().out
        for bad in (["sweep", "--fn", "sws", "--x", "0.9", "--stride", "7"],
                    ["rho", "--fn", "heaviside", "--resolution", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == EXIT_CONFIG
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == before
        assert cli.build_parser() is cli.build_parser()

    def test_internal_key_error_propagates(self, monkeypatch):
        def broken(config):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "sweep_errors", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["sweep", "--fn", "sws", "--x", "0.9", "--n-max", "40"])

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["envelope", "--in", str(missing)]) == EXIT_CONFIG
        capsys.readouterr()

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert main(["envelope", "--in", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("p", ["1.5", "nan"])
    def test_envelope_bad_p_in_input(self, p, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "lorentzian", "--x", "1.0", "--n-max", "30",
              "--out", str(out)])
        text = out.read_text().replace("# fn=lorentzian", f"# fn=lorentzian\n# p={p}")
        out.write_text(text)
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        assert "outside (0, 1)" in capsys.readouterr().err
