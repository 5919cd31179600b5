import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gibbsaccel
from gibbsaccel import cli, sweeps
from gibbsaccel.catalog import DEFAULT_N_MAX, FUNCTION_KEYS, get_function
from gibbsaccel.cli import EXIT_CONFIG, EXIT_INSUFFICIENT, EXIT_OK, main
from gibbsaccel.conformal import PowerSeries, estimate_radius
from gibbsaccel.filters import VALID_KINDS
from gibbsaccel.rates import (
    SingularitySet,
    delta_truncation_error,
    rho_of_x,
    zeta_image_modulus,
)
from gibbsaccel.series import saturation_floor
from gibbsaccel.sweeps import (
    SWEEP_HEADER,
    ConfigError,
    ErrorRow,
    ErrorTrace,
    ExperimentConfig,
    InsufficientDataError,
    compare_filters,
    fit_envelope,
    fit_traces,
    meta_line,
    parse_meta,
    parse_sweep_csv,
    render_csv,
    rho_curve,
    sweep_csv,
    sweep_errors,
)

SAWTOOTH_SET = SingularitySet(real_singularity=0.0)
README = Path(__file__).resolve().parents[1] / "README.md"


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

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.5]), st.booleans()),
            max_size=40,
        )
    )
    def test_hull_matches_backward_pass(self, cells):
        # few distinct errors, so ties are common; row k has N = k, so the
        # N = 0 row is present whenever cells is not empty
        trace = ErrorTrace(x=1.0, filter_kind="euler")
        trace.rows = [ErrorRow(N, e, sat) for N, (e, sat) in enumerate(cells)]
        hull, best = [], -math.inf
        for i in reversed(range(len(cells))):
            row = trace.rows[i]
            if row.saturated or row.error <= 0.0 or row.N < 1:
                continue
            if math.log(row.error) >= best:
                best = math.log(row.error)
                hull.append(i)
        try:
            fit_envelope(trace)
        except InsufficientDataError:
            pass
        assert trace.envelope == hull[::-1]

    @pytest.mark.parametrize(
        "rows",
        [
            [(7, 1e-3)] * 6,
            [(5, 1e-2)] * 3 + [(6, 1e-3)] * 3,
        ],
        ids=["one-degree", "two-degrees"],
    )
    def test_hull_at_fewer_than_three_degrees_raises(self, rows):
        # enough hull points, but repeated N fix no slope
        trace = ErrorTrace(x=1.0, filter_kind="euler")
        for N, err in rows:
            trace.rows.append(ErrorRow(N, err, False))
        with pytest.raises(InsufficientDataError, match="distinct N"):
            fit_envelope(trace)
        assert len(trace.envelope) == 6 and trace.fit is None

    def test_rows_are_immutable_tuples(self):
        row = ErrorRow(N=7, error=0.5, saturated=False)
        assert row == ErrorRow(7, 0.5, False) == (7, 0.5, False)
        with pytest.raises(AttributeError):
            row.error = 1.0

    def test_degree_zero_row_never_fitted(self):
        trace = synthetic_trace(2.0, 0.5, range(1, 40))
        fit = fit_envelope(trace)
        # an N = 0 row above every other one would top the hull
        trace.rows.insert(0, ErrorRow(0, 10.0, False))
        assert fit_envelope(trace) == fit
        assert 0 not in trace.envelope


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

    def test_one_fit_line_per_trace_and_no_trace_line(self):
        # the fit line names its trace's x and filter; nothing else does
        config = ExperimentConfig(
            "delta", filters=("euler", "hdaf"), xs=(0.9, 2.1), n_min=5, n_max=30
        )
        traces = sweep_errors(config)
        comments = [
            ln[2:] for ln in sweep_csv(config, traces).splitlines() if ln[0] == "#"
        ]
        assert not [c for c in comments if c.split()[0] == "trace"]
        fits = [parse_meta(c)[1] for c in comments if c.startswith("fit ")]
        assert [(f["x"], f["filter"]) for f in fits] == [
            (t.x, t.filter_kind) for t in traces
        ]

    def test_each_trace_fitted_with_its_law_alpha(self):
        # delta's pole has alpha 0 where its image binds; the cap at
        # x = 2.5 and a filter without a law take alpha 1
        config = ExperimentConfig(
            "delta", filters=("euler", "hdaf"), xs=(1.0, 2.5), n_min=5, n_max=120
        )
        traces = sweep_errors(config)
        comments = sweep_csv(config, traces).splitlines()
        fits = [parse_meta(ln[2:])[1] for ln in comments if ln.startswith("# fit ")]
        assert [f["alpha"] for f in fits] == [0.0, 1.0, 1.0, 1.0]
        for trace, fit in zip(traces, fits):
            refit = ErrorTrace(trace.x, trace.filter_kind, trace.rows)
            assert fit_envelope(refit, fit["alpha"]) == trace.fit
            assert (fit["A"], fit["q_hat"]) == trace.fit
        hdaf, euler = traces[-1], traces[0]
        # alpha 1 is the default, and a pole's trace fitted with it differs
        assert fit_envelope(ErrorTrace(2.5, "hdaf", hdaf.rows)) == hdaf.fit
        assert fit_envelope(ErrorTrace(1.0, "euler", euler.rows)) != euler.fit

    def test_fit_traces_gives_only_euler_a_law(self):
        # the law is rho_of_x at x on an Euler trace and None on the other
        # filters; the reasons name exactly the traces left without a fit
        config = ExperimentConfig(
            "sws", filters=("hdaf", "euler", "identity"), xs=(1.0, 0.05),
            n_min=2, n_max=8,
        )
        sings = get_function("sws").series.singularities
        swept = sweep_errors(config)
        traces = [ErrorTrace(t.x, t.filter_kind, t.rows) for t in swept]
        assert all(t.law is None for t in traces)
        skipped = fit_traces(sings, traces)
        for trace, before in zip(traces, swept):
            if trace.filter_kind == "euler":
                assert trace.law == rho_of_x(sings, trace.x)
            else:
                assert trace.law is None
            assert (trace.law, trace.fit) == (before.law, before.fit)
        unfitted = [t for t in traces if t.fit is None]
        assert unfitted and len(unfitted) < len(traces)
        assert [r.partition(": ")[0] for r in skipped] == [
            f"x={t.x} filter={t.filter_kind}" for t in unfitted
        ]

    def test_one_catalog_build_and_one_law_per_euler_trace(self, monkeypatch):
        builds, laws = [], []
        get_fn, law = sweeps.get_function, sweeps.rho_of_x

        def counting_get_function(*args, **kwargs):
            builds.append(args)
            return get_fn(*args, **kwargs)

        def counting_rho_of_x(sings, x):
            laws.append(x)
            return law(sings, x)

        monkeypatch.setattr(sweeps, "get_function", counting_get_function)
        monkeypatch.setattr(sweeps, "rho_of_x", counting_rho_of_x)
        config = ExperimentConfig(
            "sws", filters=("identity", "euler", "hdaf"), xs=(0.9, 2.1),
            n_min=5, n_max=30,
        )
        sweep_csv(config, sweep_errors(config))
        assert (len(builds), laws) == (1, [0.9, 2.1])
        builds.clear()
        laws.clear()
        compare_filters(ExperimentConfig("sws", config.filters, (0.9,), 5, 30))
        assert (len(builds), laws) == (1, [0.9])


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
            row.append(zeta_image_modulus(math.exp(abs(s.tau)), x - s.sigma))
        if sings.off_axis:
            flagged = pred.rho < rho_raw and pred.dominating >= 0
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
        if p is not None and key not in ("lorentzian", "sws+lorentzian"):
            with pytest.raises(ConfigError, match="no pole depth"):
                rho_curve(key, resolution, p=p)
            p = None  # the entry's only table
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

    def test_envelope_fits_delta_with_its_pole_alpha(self, tmp_path, capsys):
        # the refit is the sweep's own fit, with alpha 0, not 1
        config = ExperimentConfig("delta", xs=(1.0,), n_min=5, n_max=120)
        (trace,) = sweep_errors(config)
        out = tmp_path / "sweep.csv"
        out.write_text(sweep_csv(config, [trace]))
        assert main(["envelope", "--in", str(out)]) == EXIT_OK
        _, fields = parse_meta(capsys.readouterr().out)
        assert fields["alpha"] == 0.0
        assert (fields["A"], fields["q_hat"]) == trace.fit
        assert fields["rel_gap"] < 0.01

    @pytest.mark.parametrize("kind", ["identity", "erfclog", "hdaf"])
    def test_envelope_predicts_only_euler(self, kind, tmp_path, capsys):
        # Euler's law is not these filters' rate, so none is written
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.0", "--n-max", "60",
              "--filter", kind, "--out", str(out)])
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_OK
        _, fields = parse_meta(capsys.readouterr().out)
        assert fields["filter"] == kind and math.isfinite(fields["q_hat"])
        assert fields["q_predicted"] is None and fields["rel_gap"] is None
        assert fields["alpha"] == 1.0

    @pytest.mark.parametrize(
        "config, status",
        [
            (None, EXIT_OK),  # README's sweep command
            (ExperimentConfig("delta", ("euler", "hdaf"), (1.0, 2.5), 5, 120), EXIT_OK),
            (ExperimentConfig("sws", xs=(1.0, 0.05), n_min=2, n_max=8), EXIT_INSUFFICIENT),
        ],
        ids=["readme", "delta-alphas-0-1-1-1", "one-skipped"],
    )
    def test_envelope_repeats_the_sweep_fit_lines(
        self, config, status, tmp_path, monkeypatch, capsys
    ):
        # each envelope line is the file's fit line without its tag, byte
        # for byte, and stderr names the skipped traces and no others
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "sweep.csv"
        if config is None:
            (argv,) = [argv for argv in readme_commands() if argv[0] == "sweep"]
            assert main(argv) == EXIT_OK
        else:
            out.write_text(sweep_csv(config, sweep_errors(config)))
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == status
        captured = capsys.readouterr()
        fits = [
            ln.removeprefix("# fit ")
            for ln in out.read_text().splitlines()
            if ln.startswith("# fit ")
        ]
        assert captured.out.splitlines() == fits
        for fields in (parse_meta(fit)[1] for fit in fits):
            named = f"x={fields['x']} filter={fields['filter']}: " in captured.err
            assert named == (fields["A"] is None)
        assert bool(captured.err) == (status == EXIT_INSUFFICIENT)

    def test_predicted_rate_underflow_writes_inf(self, tmp_path, capsys):
        # q = -log cos(d/2) underflows to 0.0 within about 6e-162 of the
        # jump; every fit record then writes rel_gap=inf and no command fails
        out = tmp_path / "sweep.csv"
        run = ["--fn", "sws", "--x", "1e-200", "--n-max", "60"]
        assert main(["sweep", *run, "--out", str(out)]) == EXIT_OK
        assert main(["compare", "--filters", "euler", *run]) == EXIT_OK
        compared = capsys.readouterr().out
        assert main(["envelope", "--in", str(out)]) == EXIT_OK
        for text in (out.read_text(), compared, capsys.readouterr().out):
            assert text.count(" q_predicted=0.0 rel_gap=inf ") == 1

    def test_envelope_unknown_filter_in_input(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        out.write_text(out.read_text().replace("euler", "bogus"))
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unknown filter kind 'bogus'" in captured.err and not captured.out

    def test_envelope_reports_every_trace(self, tmp_path, capsys):
        # the trace at x = 1.0 has too few points for a fit, the one at
        # x = 0.05 has one; both are reported before the exit status
        config = ExperimentConfig("sws", xs=(1.0, 0.05), n_min=2, n_max=8)
        out = tmp_path / "sweep.csv"
        out.write_text(sweep_csv(config, sweep_errors(config)))
        assert main(["envelope", "--in", str(out)]) == EXIT_INSUFFICIENT
        captured = capsys.readouterr()
        skipped, fitted = (parse_meta(ln)[1] for ln in captured.out.splitlines())
        assert skipped["x"] == 1.0 and skipped["q_predicted"] > 0
        assert skipped["A"] is skipped["q_hat"] is skipped["rel_gap"] is None
        assert fitted["x"] == 0.05 and math.isfinite(fitted["rel_gap"])
        assert captured.err.startswith("insufficient data: x=1.0 filter=euler: ")
        assert "x=0.05" not in captured.err

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

    def test_compare_takes_phi(self, capsys):
        argv = ["compare", "--fn", "lorentzian", "--phi", "1.0", "--x", "2.0",
                "--n-max", "30"]
        assert main(argv) == EXIT_OK
        assert "# phi=1.0" in capsys.readouterr().out.splitlines()

    def test_degree_zero_row_written_not_fitted(self, tmp_path, capsys):
        paths = {n_min: tmp_path / f"sweep{n_min}.csv" for n_min in (0, 1)}
        for n_min, path in paths.items():
            code = main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min",
                         str(n_min), "--n-max", "50", "--stride", "1",
                         "--out", str(path)])
            assert code == EXIT_OK
        texts = {n_min: path.read_text() for n_min, path in paths.items()}
        _, (trace,) = parse_sweep_csv(texts[0])
        assert trace.rows[0].N == 0
        fits = {n_min: [ln for ln in text.splitlines() if ln.startswith("# fit")]
                for n_min, text in texts.items()}
        assert fits[0] == fits[1]
        assert parse_meta(fits[0][0][1:])[1]["q_hat"] is not None
        assert main(["envelope", "--in", str(paths[0])]) == EXIT_OK
        assert main(["compare", "--fn", "sws", "--x", "1.9635", "--n-min", "0",
                     "--n-max", "50", "--filters", ",".join(VALID_KINDS)]) == EXIT_OK
        capsys.readouterr()

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
            ["compare", "--fn", "sws", "--x", "1.9", "--n-max", "30",
             "--filters", "euler,euler"],
            # poles so deep that their image overflows
            ["rho", "--fn", "lorentzian", "--resolution", "3", "--p", "1e-160"],
            ["rho", "--fn", "lorentzian", "--resolution", "3", "--p", "1e-320"],
            ["sweep", "--fn", "sws+lorentzian", "--x", "1", "--n-max", "30",
             "--p", "1e-200"],
        ],
    )
    def test_invalid_request_exit_code(self, args, capsys):
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and not captured.out

    @pytest.mark.parametrize(
        "args",
        [
            ["weights", "--M", str(10**15)],
            ["weights", "--filter", "euler", "--M", str(DEFAULT_N_MAX + 1)],
            ["rho", "--fn", "sws", "--resolution", str(10**15)],
            ["rho", "--fn", "lorentzian", "--resolution", str(DEFAULT_N_MAX + 1)],
        ],
    )
    def test_size_beyond_catalog_limit(self, args, capsys):
        # rejected before any array of that size is built
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and not captured.out
        assert str(DEFAULT_N_MAX) in captured.err

    @pytest.mark.parametrize(
        "x, message",
        [("inf", "not finite"), ("-inf", "not finite"), ("nan", "not finite"),
         ("0.0", "real singularity"), ("6.283185307179586", "real singularity")],
    )
    def test_envelope_rejects_bad_x(self, x, message, tmp_path, capsys):
        # the checks sweep and compare make on their x, by the same code
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(
            ln.replace("1.9635,", f"{x},", 1) if not ln.startswith("#") else ln
            for ln in lines
        ))
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and not captured.out
        assert message in captured.err

    def test_cli_import_loads_neither_scipy_nor_mpmath(self):
        # both are test-only dependencies; scipy.special alone would add
        # about 0.3 s and 25 MB to every CLI start
        src = str(Path(gibbsaccel.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, gibbsaccel.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_exit_status_of_the_module(self, tmp_path):
        # the process status, set by sys.exit(main()) under __main__
        src = str(Path(gibbsaccel.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def status(*args):
            return subprocess.run(
                [sys.executable, "-m", "gibbsaccel.cli", *args],
                capture_output=True, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": path},
            ).returncode

        assert status("weights", "--M", "2") == EXIT_OK
        assert status("sweep", "--fn", "sws", "--x", "0", "--n-max", "10") == EXIT_CONFIG
        assert status("sweep", "--fn", "nope") == EXIT_CONFIG
        assert status("sweep", "--fn", "sws", "--x", "1", "--n-min", "5",
                      "--n-max", "7", "--out", "short.csv") == EXIT_OK
        assert status("envelope", "--in", "short.csv") == EXIT_INSUFFICIENT

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

    def test_envelope_rejects_repeated_degree(self, tmp_path, capsys):
        # the README sweep with its N=7 row six times: one distinct N for
        # six hull points, which determines no rate
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        lines = out.read_text().splitlines()
        row = next(ln for ln in lines if ln.startswith("1.9635,euler,7,"))
        first = lines.index(row) + 1
        out.write_text("\n".join(lines[:first] + [row] * 5 + lines[first:]))
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"line {first + 1}: repeats N=7 of line {first}" in err
        with pytest.raises(ConfigError, match="repeats N=7"):
            parse_sweep_csv(out.read_text())

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

    def test_envelope_skips_infinite_error_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        lines = out.read_text().splitlines(keepends=True)
        (row,) = [ln for ln in lines if ln.startswith("1.9635,euler,20,")]
        reports = []
        for replacement in ("1.9635,euler,20,inf,0\n", ""):
            out.write_text("".join(replacement if ln == row else ln for ln in lines))
            capsys.readouterr()
            assert main(["envelope", "--in", str(out)]) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert math.isfinite(parse_meta(reports[0])[1]["q_hat"])

    def test_envelope_on_input_without_traces(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1.9635", "--n-max", "12",
              "--out", str(out)])
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(ln for ln in lines if ln.startswith("#"))
                       + ",".join(SWEEP_HEADER) + "\n")
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_INSUFFICIENT
        assert "no traces" in capsys.readouterr().err

    def test_envelope_next_to_the_singularity(self, tmp_path, capsys):
        # rho rounds to 1 at x = 1e-9; the predicted rate must not
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "sws", "--x", "1e-9", "--n-min", "5",
              "--n-max", "50", "--out", str(out)])
        capsys.readouterr()
        assert main(["envelope", "--in", str(out)]) == EXIT_OK
        _, fields = parse_meta(capsys.readouterr().out)
        assert fields["q_predicted"] == pytest.approx(1.25e-19, rel=1e-15)
        assert math.isfinite(fields["rel_gap"])

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

    @pytest.mark.parametrize("line", ["p=abc", "phi=north"])
    def test_envelope_non_numeric_parameter_in_input(self, line, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--fn", "lorentzian", "--x", "1.0", "--n-max", "30",
              "--out", str(out)])
        text = out.read_text().replace("# fn=lorentzian", f"# fn=lorentzian\n# {line}")
        out.write_text(text)
        assert main(["envelope", "--in", str(out)]) == EXIT_CONFIG
        assert f"non-numeric {line}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["rho", "--fn", "sws", "--resolution", "3", "--p", "7", "--phi", "nan"],
            ["rho", "--fn", "log2", "--resolution", "3", "--p", "0.5"],
            ["rho", "--fn", "sws+lorentzian", "--resolution", "3", "--phi", "0.5"],
            ["sweep", "--fn", "delta", "--x", "1", "--n-max", "30", "--p", "0.5"],
            ["sweep", "--fn", "sws", "--x", "1", "--n-max", "30", "--phi", "0.5"],
            ["compare", "--fn", "sws", "--x", "1", "--n-max", "30", "--p", "0.5"],
        ],
    )
    def test_parameter_the_function_lacks(self, args, capsys):
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "has no pole" in captured.err and not captured.out


def readme_block(fence: str, marker: str) -> list[str]:
    """The lines of the first README code block opened by ``fence`` after
    the ``## CLI`` heading that holds ``marker``."""
    cli = README.read_text().split("## CLI", 1)[1]
    blocks = [b.split("```", 1)[0] for b in cli.split(fence)[1:]]
    return next(b for b in blocks if marker in b).strip("\n").splitlines()


def readme_commands() -> list[list[str]]:
    """The argv of each ``gibbsaccel`` command in README's CLI block."""
    block = readme_block("```sh", "gibbsaccel sweep")
    return [line.split()[1:] for line in block if line.startswith("gibbsaccel ")]


class TestReadme:
    def test_comment_example_is_what_sweep_writes(self, tmp_path, monkeypatch):
        # README shows every comment line its sweep command writes, the
        # fit line included, byte for byte
        monkeypatch.chdir(tmp_path)
        (sweep,) = [argv for argv in readme_commands() if argv[0] == "sweep"]
        assert main(sweep) == EXIT_OK
        example = readme_block("```text", "# fit x=1.9635 filter=euler")
        written = (tmp_path / "sweep.csv").read_text().splitlines()
        assert example + [",".join(SWEEP_HEADER)] == written[: len(example) + 1]

    def test_envelope_output_of_the_readme_sweep(self, tmp_path, monkeypatch, capsys):
        # the readme-cli benchmark parses each token as key=value; the line
        # is pinned byte for byte, as the README's sweep comment lines are
        monkeypatch.chdir(tmp_path)
        commands = {argv[0]: argv for argv in readme_commands()}
        assert main(commands["sweep"]) == EXIT_OK
        assert main(commands["envelope"]) == EXIT_OK
        line = (
            "x=1.9635 filter=euler A=1.179725161946198 q_hat=0.5839226823204039 "
            "alpha=1.0 q_predicted=0.5877636816618133 "
            "rel_gap=0.006534938209433952 hull_points=28"
        )
        assert capsys.readouterr().out == line + "\n"
        assert f"`{line}`" in README.read_text()  # README quotes it

    def test_fits_and_commands_call_no_lapack(self, tmp_path, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in ("lstsq", "solve", "pinv"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        _, q_hat = fit_envelope(synthetic_trace(2.0, 0.5, range(5, 40)))
        assert q_hat == pytest.approx(0.5, rel=1e-12)
        b = [0.0] + [0.5**n / n for n in range(1, 200)]  # -log(1 - z/2)
        assert estimate_radius(PowerSeries(b)) == pytest.approx(2.0, rel=1e-9)
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [
            "weights", "sweep", "envelope", "rho", "compare"
        ]
        for argv in commands:
            assert main(argv) == EXIT_OK, argv
