"""CSV and SVG emitters.

All numeric CSV cells use 17 significant digits so 64-bit floats round
trip losslessly; SVG output is assembled from text with fixed-precision
coordinates.  Identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from .core import EconomyParams, NuForGamma, nu_for_gamma, savings_rate, steady_capital, tax_rates
from .envy import EnvySpec, gamma_uniform_top
from .equilibrium import Trajectory, _once
from .errors import DomainError

CSV_HEADER = "t,k,y,gamma,gini,m_count,savings_rate,tau_w,tau_s,avg_consumption"


def fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def trajectory_csv_lines(traj: Trajectory, per_agent: bool = False) -> Iterator[str]:
    """The CSV lines of ``traj``, header first; an empty trajectory raises here, not on reading."""
    if not traj.records:
        raise DomainError("trajectory is empty")
    header = CSV_HEADER
    if per_agent:
        header += "".join(f",s_{j},c_{j}" for j in range(1, traj.records[0].bequests.size + 1))
    return chain((header,), _csv_rows(traj.records, per_agent))


def _csv_rows(records, per_agent: bool) -> Iterator[str]:
    cells, last = _once(partial(_record_cells, per_agent=per_agent)), None
    for t, r in enumerate(records):
        if r is not last:  # a repeated record, in a run or on a cycle, differs only in t
            row, last = cells(r), r
        yield f"{t},{row}"


def _record_cells(r, per_agent: bool) -> str:
    """The cells of a record's CSV row after ``t``, comma-joined."""
    cells = [
        fmt(r.k),
        fmt(r.output),
        fmt(r.gamma),
        fmt(r.gini),
        str(r.m_count),
        fmt(r.savings_realized),
        fmt(r.taxes.tau_w),
        fmt(r.taxes.tau_s),
        fmt(r.avg_consumption),
    ]
    if per_agent:  # a record recomputes its consumptions on each read: read them once
        for s, c in zip(r.bequests_next.tolist(), r.consumptions.tolist()):
            cells += (fmt(s), fmt(c))
    return ",".join(cells)


def write_trajectory_csv(traj: Trajectory, path, per_agent: bool = False) -> None:
    """The lines of :func:`trajectory_csv_lines`, each ended by a newline, one write per chunk."""
    lines = trajectory_csv_lines(traj, per_agent)  # an empty trajectory raises before the open
    cells = CSV_HEADER.count(",") + 1 + (2 * traj.records[0].bequests.size if per_agent else 0)
    rows = max(1, (1 << 15) // cells)  # 3,276 aggregate lines per write, or one of 16,384 dynasties
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(islice(lines, rows)):
            chunk.append("")  # the chunk's last newline
            fh.write("\n".join(chunk))


# ---------------------------------------------------------------------------
# SVG helpers

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _px(v: float) -> str:
    """A coordinate: an int as written, a float to two decimals."""
    return str(v) if isinstance(v, int) else format(v, ".2f")


class _Canvas:
    """Minimal deterministic SVG assembler with margins and data scaling."""

    def __init__(self, width, height, x_range, y_range, title, x_label, y_label):
        self.width, self.height = width, height
        self.left, self.right, self.top, self.bottom = 64.0, 18.0, 34.0, 48.0
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]
        self.text(width / 2, 20, 14, title, "middle")
        x0, y0 = self.left, height - self.bottom
        x1, y1 = width - self.right, self.top
        self.line(x0, y0, x1, y0)
        self.line(x0, y0, x0, y1)
        for i in range(6):
            fx = self.x_lo + (self.x_hi - self.x_lo) * i / 5
            fy = self.y_lo + (self.y_hi - self.y_lo) * i / 5
            px, py = self.x(fx), self.y(fy)
            self.line(px, y0, px, y0 + 4)
            self.text(px, y0 + 17, 10, format(fx, ".4g"), "middle")
            self.line(x0 - 4, py, x0, py)
            self.text(x0 - 7, py + 3, 10, format(fy, ".4g"), "end")
        self.text((x0 + x1) / 2, height - 10.0, 12, x_label, "middle")
        mid = (y0 + y1) / 2
        self.text(16, mid, 12, y_label, "middle", f' transform="rotate(-90 16 {_px(mid)})"')

    def x(self, v: float) -> float:
        span = self.x_hi - self.x_lo
        frac = (v - self.x_lo) / span if span else 0.5
        return self.left + frac * (self.width - self.left - self.right)

    def y(self, v: float) -> float:
        span = self.y_hi - self.y_lo
        frac = (v - self.y_lo) / span if span else 0.5
        return self.height - self.bottom - frac * (self.height - self.top - self.bottom)

    def line(self, x1, y1, x2, y2):
        """A black line between two pixel positions."""
        self.parts.append(
            f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            'stroke="black" stroke-width="1"/>'
        )

    def text(self, x, y, size, body, anchor=None, extra=""):
        """Text at a pixel position; ``extra`` holds further attributes, space-led."""
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        self.parts.append(
            f'<text x="{_px(x)}" y="{_px(y)}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>'
        )

    def polyline(self, xs, ys, color, dashed=False, width=1.5):
        pts = " ".join(f"{_px(self.x(a))},{_px(self.y(b))}" for a, b in zip(xs, ys))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash}/>'
        )

    def circle(self, x, y, r, color, filled=True):
        fill = color if filled else "white"
        self.parts.append(
            f'<circle cx="{_px(self.x(x))}" cy="{_px(self.y(y))}" r="{r}" '
            f'fill="{fill}" stroke="{color}" stroke-width="1.5"/>'
        )

    def label(self, x, y, text, color, dy=-6.0):
        self.text(self.x(x) + 6.0, self.y(y) + dy, 11, text, extra=f' fill="{color}"')

    def note(self, line_no, text, color):
        self.text(self.left + 8, self.top + 14 + 14 * line_no, 11, text, extra=f' fill="{color}"')

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(self.parts + ["</svg>"]) + "\n")


@dataclass(frozen=True)
class PhasePlotResult:
    path: str
    fixed_points: tuple[tuple[str, float], ...]  # (label, steady k)


def render_phase_plot(
    params: EconomyParams,
    curves: Sequence[tuple[float, float, float]],
    path,
) -> PhasePlotResult:
    """Plot the capital transition map k(t+1) = s(gamma, m, nu) * k(t)**alpha.

    One curve per (gamma, m, nu) triple, the 45-degree line, and a
    labelled marker E<i> where each curve crosses it (the steady state).
    A ``nu`` outside the admissible segment raises NuOutOfBounds.
    """
    points = []
    for i, (gamma, m, nu) in enumerate(curves):
        tax_rates(nu, params)  # the admissibility check
        points.append((f"E{i + 1}", steady_capital(gamma, m, nu, params)))
    k_max = 1.6 * max((k for _, k in points), default=0.625)
    canvas = _Canvas(
        720,
        520,
        (0.0, k_max),
        (0.0, k_max),
        "Capital transition map",
        "inherited capital intensity k(t)",
        "bequeathed capital intensity k(t+1)",
    )
    canvas.polyline([0.0, k_max], [0.0, k_max], "#888888", dashed=True, width=1.0)
    ks = np.linspace(k_max / 400.0, k_max, 400)
    for i, (gamma, m, nu) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        rate = savings_rate(gamma, m, nu, params)
        canvas.polyline(ks, rate * ks**params.alpha, color)
        label, k_star = points[i]
        canvas.circle(k_star, k_star, 3.5, color)
        canvas.label(k_star, k_star, label, color)
        canvas.note(
            i,
            f"{label}: gamma={format(gamma, '.4g')} m={format(m, '.4g')} "
            f"nu={format(nu, '.4g')} k*={format(k_star, '.6g')}",
            color,
        )
    canvas.write(path)
    return PhasePlotResult(path=str(path), fixed_points=tuple(points))


@dataclass(frozen=True)
class SavingsPlotResult:
    path: str
    breakpoint_nu: float | None  # None when one branch covers the whole segment
    egalitarian_span: tuple[float, float] | None
    polarised_span: tuple[float, float] | None


def render_savings_step_plot(
    gamma0: float,
    params: EconomyParams,
    envy: EnvySpec,
    rich_count: int,
    path,
) -> SavingsPlotResult:
    """Plot the long-run savings rate against the tilt nu for a given start.

    For tilts below the breakpoint nu(gamma0) (where the envy threshold
    equals gamma0) the economy ends egalitarian and saves
    s(G_N, 1, nu); above it, the top class of size ``rich_count`` takes
    over and the rate steps to s(G_L, L/N, nu).  The discontinuity is
    marked with a dashed vertical and open endpoints.  ``gamma0`` must be
    finite and >= 0; at 0 (an equal start) it lies below the threshold
    delta*xi/(xi + nu) > 0 on the whole segment, which ends egalitarian.
    """
    if not 0.0 <= gamma0 < float("inf"):
        raise DomainError(f"gamma0 must be finite and >= 0, got {gamma0}")
    n = params.n_agents
    lo, hi = params.nu_lower, params.nu_upper
    # at gamma0 = 0 the tilt delta*xi/gamma0 - xi of nu_for_gamma is +inf: a high clamp
    res = nu_for_gamma(gamma0, params) if gamma0 else NuForGamma(hi, True, float("inf"))
    breakpoint_nu = None if res.clamped else res.nu
    if breakpoint_nu is None:
        # clamped high: threshold exceeds gamma0 everywhere -> all egalitarian;
        # clamped low: gamma0 above threshold everywhere -> all polarised
        egal_span = (lo, hi) if res.raw > hi else None
        pol_span = (lo, hi) if res.raw < lo else None
    else:
        egal_span = (lo, breakpoint_nu)
        pol_span = (breakpoint_nu, hi)

    kinds = (  # (gamma, m, name) of each branch, in palette order
        (gamma_uniform_top(envy, n, n), 1.0, "egalitarian"),
        (gamma_uniform_top(envy, rich_count, n), rich_count / n, "polarised"),
    )
    branches = []  # a clamped start draws one branch, any other both: max() never sees none
    for (gamma, m, name), span, color in zip(kinds, (egal_span, pol_span), _PALETTE):
        if span:
            xs = np.linspace(*span, 200)
            ys = np.array([savings_rate(gamma, m, v, params) for v in xs])
            branches.append((xs, ys, color, f"{name} branch"))
    y_max = 1.2 * max(float(ys.max()) for _, ys, _, _ in branches)
    canvas = _Canvas(
        720,
        480,
        (lo, hi),
        (0.0, y_max),
        "Long-run savings rate by tax tilt",
        "nu = (1 - tau_s) / (1 - tau_w)",
        "long-run savings rate",
    )
    for i, (xs, ys, color, name) in enumerate(branches):
        canvas.polyline(xs, ys, color)
        canvas.note(i, name, color)
    if breakpoint_nu is not None:
        canvas.polyline([breakpoint_nu, breakpoint_nu], [0.0, y_max], "#555555", dashed=True, width=1.0)
        for (gamma, m, _), color in zip(kinds, _PALETTE):
            rate = savings_rate(gamma, m, breakpoint_nu, params)
            canvas.circle(breakpoint_nu, rate, 3.5, color, filled=False)
        canvas.label(breakpoint_nu, y_max, f"nu(gamma0)={format(breakpoint_nu, '.6g')}", "#555555", dy=12.0)
    canvas.write(path)
    return SavingsPlotResult(
        path=str(path),
        breakpoint_nu=breakpoint_nu,
        egalitarian_span=egal_span,
        polarised_span=pol_span,
    )
