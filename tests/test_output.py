"""CSV schema and determinism, SVG structure, plot placement."""

import hashlib
import io
import xml.dom.minidom

import numpy as np
import pytest

from joneses import (
    EnvySpec,
    Trajectory,
    constant_schedule,
    gamma_star,
    simulate,
    steady_capital,
    validate_params,
)
from joneses import output
from joneses.errors import DomainError
from joneses.output import (
    CSV_HEADER,
    fmt,
    render_phase_plot,
    render_savings_step_plot,
    trajectory_csv_lines,
    write_trajectory_csv,
)
from support import BASELINE, UNIT_ENVY


def _equal_start_traj(horizon=1):
    return simulate(
        [0.1] * 4, constant_schedule(1.0, BASELINE), horizon, BASELINE, UNIT_ENVY
    )


class TestFmt:
    def test_round_trips_float64(self):
        rng = np.random.default_rng(73)
        for x in rng.uniform(-1e6, 1e6, size=200):
            assert float(fmt(float(x))) == float(x)
        for x in (0.1, 1 / 3, 1e-300, 123456789.123456789):
            assert float(fmt(x)) == x


class TestTrajectoryCsv:
    def test_single_period_file_has_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_trajectory_csv(_equal_start_traj(1), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_first_row_values(self):
        lines = list(trajectory_csv_lines(_equal_start_traj(3)))
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["t"] == "0"
        assert float(row["k"]) == pytest.approx(0.1)
        assert float(row["gamma"]) == 0.0
        assert row["m_count"] == "4"
        assert float(row["savings_rate"]) == pytest.approx(0.225, abs=1e-10)
        assert float(row["tau_w"]) == pytest.approx(0.1, abs=1e-14)
        assert float(row["avg_consumption"]) == pytest.approx(
            0.675 * 0.1 ** (1 / 3), abs=1e-12
        )

    @pytest.mark.parametrize("per_agent", [False, True])
    def test_repeated_records_give_the_rows_of_distinct_ones(self, per_agent):
        traj = simulate(
            [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 60, BASELINE, UNIT_ENVY
        )
        assert len({id(r) for r in traj.records}) < 40  # the path repeats its fixed point
        got = list(trajectory_csv_lines(traj, per_agent=per_agent))
        assert len(got) == 61
        for t, r in enumerate(traj.records):
            alone = list(trajectory_csv_lines(Trajectory((r,)), per_agent=per_agent))[1]
            assert got[t + 1] == f"{t}," + alone.split(",", 1)[1]

    @pytest.mark.parametrize("per_agent", [False, True])
    def test_a_cycling_path_formats_each_distinct_record_once(self, per_agent, monkeypatch):
        # the equal start repeats an exact 4-cycle from period 30: its records recur four
        # periods apart, not in a run, and each is formatted once
        traj = _equal_start_traj(200)
        assert traj.records[34] is traj.records[30] and traj.records[33] is not traj.records[30]
        formatted, cells = [], output._record_cells

        def spy(r, per_agent):
            formatted.append(r)
            return cells(r, per_agent)

        monkeypatch.setattr(output, "_record_cells", spy)
        got = list(trajectory_csv_lines(traj, per_agent=per_agent))
        assert len(formatted) == len({id(r) for r in formatted}) == len({id(r) for r in traj.records}) == 34
        monkeypatch.undo()
        assert len(got) == 201
        for t, r in enumerate(traj.records):
            alone = list(trajectory_csv_lines(Trajectory((r,)), per_agent=per_agent))[1]
            assert got[t + 1] == f"{t}," + alone.split(",", 1)[1]

    def test_per_agent_columns(self):
        lines = list(trajectory_csv_lines(_equal_start_traj(1), per_agent=True))
        header = lines[0].split(",")
        assert header[-8:] == ["s_1", "c_1", "s_2", "c_2", "s_3", "c_3", "s_4", "c_4"]
        row = lines[1].split(",")
        assert float(row[header.index("s_1")]) == pytest.approx(
            0.225 * 0.1 ** (1 / 3), abs=1e-12
        )

    def test_identical_runs_hash_identically(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(_equal_start_traj(50), a, per_agent=True)
        write_trajectory_csv(_equal_start_traj(50), b, per_agent=True)
        ha = hashlib.sha256(a.read_bytes()).hexdigest()
        hb = hashlib.sha256(b.read_bytes()).hexdigest()
        assert ha == hb

    @pytest.mark.parametrize(
        "horizon, n_agents, per_agent",
        [(10_000, 4, False), (40, 4, True), (40, 2_000, True)],
        ids=["settled-long", "per-agent", "per-agent-wide"],
    )
    def test_the_file_is_the_lines_each_ended_by_a_newline(
        self, tmp_path, horizon, n_agents, per_agent
    ):
        # the writer joins chunks of lines: a settled path of more than two chunks, and
        # per-agent paths whose lines fit one chunk or fill six
        p = validate_params(alpha=BASELINE.alpha, delta=BASELINE.delta, phi=BASELINE.phi,
                            n_agents=n_agents)
        start = np.random.default_rng(n_agents).random(n_agents)
        traj = simulate(start, constant_schedule(1.0, p), horizon, p, UNIT_ENVY)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, per_agent=per_agent)
        want = "\n".join(trajectory_csv_lines(traj, per_agent=per_agent)) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        # an open text stream gets the file's text, and stays open
        stream = io.StringIO()
        write_trajectory_csv(traj, stream, per_agent=per_agent)
        assert stream.getvalue() == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("per_agent", [False, True])
    def test_an_empty_trajectory_is_named_and_leaves_no_file(self, tmp_path, per_agent):
        with pytest.raises(DomainError, match="^trajectory is empty$"):
            trajectory_csv_lines(Trajectory(()), per_agent=per_agent)
        path = tmp_path / "empty.csv"
        with pytest.raises(DomainError, match="^trajectory is empty$"):
            write_trajectory_csv(Trajectory(()), path, per_agent=per_agent)
        assert not path.exists()


class TestPhasePlot:
    def test_markers_sit_at_steady_capital(self, tmp_path):
        path = tmp_path / "phase.svg"
        result = render_phase_plot(BASELINE, [(0.0, 1.0, 1.0)], path)
        assert result.fixed_points[0][0] == "E1"
        assert result.fixed_points[0][1] == pytest.approx(0.225**1.5, rel=1e-13)
        xml.dom.minidom.parse(str(path))

    def test_three_regime_figure_ordering(self, tmp_path):
        # polarised at high tilt, egalitarian at low tilt, egalitarian at
        # high tilt: the last must out-accumulate the middle one
        nu_lo, nu_hi = 0.75, BASELINE.nu_upper
        curves = [(0.75, 0.25, nu_hi), (0.0, 1.0, nu_lo), (0.0, 1.0, nu_hi)]
        result = render_phase_plot(BASELINE, curves, tmp_path / "fig.svg")
        ks = dict(result.fixed_points)
        assert ks["E3"] > ks["E2"]
        assert ks["E3"] > ks["E1"]
        assert ks["E1"] == pytest.approx(
            steady_capital(0.75, 0.25, nu_hi, BASELINE), rel=1e-13
        )

    def test_empty_curve_list_yields_valid_axes_only_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        result = render_phase_plot(BASELINE, [], path)
        assert result.fixed_points == ()
        doc = xml.dom.minidom.parse(str(path))
        assert doc.documentElement.tagName == "svg"
        assert not doc.getElementsByTagName("circle")

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        curves = [(0.0, 1.0, 1.0), (0.75, 0.25, 1.0)]
        render_phase_plot(BASELINE, curves, a)
        render_phase_plot(BASELINE, curves, b)
        assert a.read_bytes() == b.read_bytes()


class TestSavingsStepPlot:
    def test_breakpoint_for_intermediate_inequality(self, tmp_path):
        result = render_savings_step_plot(
            0.7, BASELINE, UNIT_ENVY, 1, tmp_path / "s.svg"
        )
        assert result.breakpoint_nu == pytest.approx(2 / 0.7 - 2, abs=1e-9)
        assert result.egalitarian_span[0] == BASELINE.nu_lower
        assert result.polarised_span[1] == BASELINE.nu_upper
        xml.dom.minidom.parse(str(tmp_path / "s.svg"))

    def test_equal_start_has_single_egalitarian_branch(self, tmp_path):
        # weight of the equal distribution sits below every threshold
        result = render_savings_step_plot(
            0.0 + 1e-9, BASELINE, UNIT_ENVY, 1, tmp_path / "flat.svg"
        )
        assert result.breakpoint_nu is None
        assert result.egalitarian_span == (BASELINE.nu_lower, BASELINE.nu_upper)
        assert result.polarised_span is None

    @pytest.mark.parametrize("gamma0", [0.0, -0.0])
    def test_an_equal_start_draws_the_high_clamp(self, tmp_path, gamma0):
        # gamma0 = 0 lies below gamma_star(nu) > 0 everywhere: the figure a high clamp draws
        result = render_savings_step_plot(gamma0, BASELINE, UNIT_ENVY, 1, tmp_path / "zero.svg")
        clamped = render_savings_step_plot(1e-300, BASELINE, UNIT_ENVY, 1, tmp_path / "tiny.svg")
        assert result.breakpoint_nu is None and result.polarised_span is None
        assert result.egalitarian_span == (BASELINE.nu_lower, BASELINE.nu_upper)
        assert (tmp_path / "zero.svg").read_bytes() == (tmp_path / "tiny.svg").read_bytes()
        assert clamped.egalitarian_span == result.egalitarian_span

    @pytest.mark.parametrize("gamma0", [-1e-300, -1.0, float("inf"), float("nan")])
    def test_gamma0_outside_its_domain_is_named(self, tmp_path, gamma0):
        with pytest.raises(DomainError, match="gamma0 must be finite and >= 0"):
            render_savings_step_plot(gamma0, BASELINE, UNIT_ENVY, 1, tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    def test_high_inequality_is_polarised_everywhere(self, tmp_path):
        # gamma0 above gamma_star(nu_lower) = 0.7407
        result = render_savings_step_plot(
            0.75, BASELINE, UNIT_ENVY, 1, tmp_path / "pol.svg"
        )
        assert result.breakpoint_nu is None
        assert result.egalitarian_span is None
        assert result.polarised_span == (BASELINE.nu_lower, BASELINE.nu_upper)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_savings_step_plot(0.7, BASELINE, UNIT_ENVY, 1, a)
        render_savings_step_plot(0.7, BASELINE, UNIT_ENVY, 1, b)
        assert a.read_bytes() == b.read_bytes()


# A phi = 0 economy: its tilt segment is the single point nu = 1.
_POINT_SEGMENT = validate_params(alpha=0.3, delta=2.0, phi=0.0, n_agents=5)
_SEVEN_CURVES = [  # one more than the palette holds, so the seventh colour wraps
    (0.0, 1.0, 1.0), (0.75, 0.25, 1.0), (0.0, 1.0, 0.9), (0.5, 0.5, 1.1),
    (0.2, 1.0, 0.95), (0.6, 0.25, 1.05), (0.1, 0.75, 1.0),
]
_ALL_EGALITARIAN = "7d39a3e32780d880e7ca467969f2155bf0820002deee4f305923ecfdba97d944"


@pytest.mark.parametrize(
    "figure, args, digest",
    [
        pytest.param(  # the benchmark's phase.svg
            "phase", ([(0.0, 1.0, 1.0), (0.75, 0.25, 1.0)],),
            "e5c0a98de909832901f7553cdf80c8182233493651996d507729b107742a46ab",
            id="phase-two-curves",
        ),
        pytest.param(
            "phase", ([],),
            "2acd7a3f0e138e98646680b8b9d2c526a43c25aa3d71e5452b9dd64b4dc88aa0",
            id="phase-no-curve",
        ),
        pytest.param(
            "phase", (_SEVEN_CURVES,),
            "51ee9a5ac6665d979d6aaab76cf2d4377496bbbde042dfaa4a5d5fefb3e4c1fb",
            id="phase-seven-curves",
        ),
        pytest.param(  # the benchmark's savings.svg
            "savings", (0.7, BASELINE, UNIT_ENVY, 1),
            "5a7d7c976b812d15f98c149d74bb9aed5afb8058cbb71af7144ff35ebd687dbd",
            id="savings-breakpoint",
        ),
        pytest.param(
            "savings", (0.0, BASELINE, UNIT_ENVY, 1), _ALL_EGALITARIAN, id="savings-equal-start"
        ),
        pytest.param(
            "savings", (1e-9, BASELINE, UNIT_ENVY, 1), _ALL_EGALITARIAN, id="savings-clamped-high"
        ),
        pytest.param(
            "savings", (0.75, BASELINE, UNIT_ENVY, 1),
            "b4ce1fefaa9cf26ef4f25f5611b1d3303af5d774d422355074078adb4cec7bb1",
            id="savings-clamped-low",
        ),
        pytest.param(  # the egalitarian span is the single point nu_lower
            "savings", (gamma_star(BASELINE.nu_lower, BASELINE), BASELINE, UNIT_ENVY, 1),
            "49501ff670fe5ee7318925c69dcf1e5bb97f8920b19aa5cc6c34608caf125592",
            id="savings-snapped-low",
        ),
        pytest.param(  # the polarised span is the single point nu_upper
            "savings", (gamma_star(BASELINE.nu_upper, BASELINE), BASELINE, UNIT_ENVY, 1),
            "2e53d0951010f4ddfc89738d17966cdb49041d2d86a4cbb0491930aa8d167f16",
            id="savings-snapped-high",
        ),
        pytest.param(
            "savings", (0.5, BASELINE, EnvySpec(base=0.1, scale=0.8), 2),
            "a4fb8a06f3d30c43cd8abc2840cf48e58c49f06536831796734786e57f844123",
            id="savings-envy-two-rich",
        ),
        pytest.param(  # a zero-width x range puts every point mid-axis
            "savings", (0.5, _POINT_SEGMENT, UNIT_ENVY, 1),
            "1d6cb1883d7b874cc404c1a15d67bef22eae9c80b4d4576735c1b73523fa3ca0",
            id="savings-point-segment",
        ),
    ],
)
def test_figure_bytes_are_pinned(tmp_path, figure, args, digest):
    path = tmp_path / "fig.svg"
    if figure == "phase":
        render_phase_plot(BASELINE, *args, path)
    else:
        render_savings_step_plot(*args, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
