"""CSV and SVG emitters.

All numeric CSV cells use 17 significant digits so 64-bit floats round
trip losslessly; SVG output is assembled from text with fixed-precision
coordinates.  Identical inputs therefore produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import EconomyParams, nu_for_gamma, savings_rate, steady_capital
from .envy import EnvySpec, gamma_uniform_top
from .equilibrium import Trajectory

CSV_HEADER = "t,k,y,gamma,gini,m_count,savings_rate,tau_w,tau_s,avg_consumption"


def fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def trajectory_csv_lines(traj: Trajectory, per_agent: bool = False) -> Iterator[str]:
    n = traj.records[0].bequests.size
    header = CSV_HEADER
    if per_agent:
        header += "".join(f",s_{j},c_{j}" for j in range(1, n + 1))
    yield header
    last = row = None
    for t, r in enumerate(traj.records):
        if r is not last:  # a repeated record differs from its last row only in t
            row = _record_cells(r, n, per_agent)
            last = r
        yield f"{t},{row}"


def _record_cells(r, n: int, per_agent: bool) -> str:
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
    if per_agent:
        for j in range(n):
            cells.append(fmt(r.bequests_next[j]))
            cells.append(fmt(r.consumptions[j]))
    return ",".join(cells)


def write_trajectory_csv(traj: Trajectory, path, per_agent: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trajectory_csv_lines(traj, per_agent):
            fh.write(line)
            fh.write("\n")


# ---------------------------------------------------------------------------
# SVG helpers

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _px(v: float) -> str:
    return format(v, ".2f")


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
            f'<text x="{_px(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
        ]
        self._axes(x_label, y_label)

    def x(self, v: float) -> float:
        span = self.x_hi - self.x_lo
        frac = (v - self.x_lo) / span if span else 0.5
        return self.left + frac * (self.width - self.left - self.right)

    def y(self, v: float) -> float:
        span = self.y_hi - self.y_lo
        frac = (v - self.y_lo) / span if span else 0.5
        return self.height - self.bottom - frac * (self.height - self.top - self.bottom)

    def _axes(self, x_label, y_label):
        x0, y0 = self.left, self.height - self.bottom
        x1, y1 = self.width - self.right, self.top
        self.parts.append(
            f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y0)}" '
            'stroke="black" stroke-width="1"/>'
        )
        self.parts.append(
            f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x0)}" y2="{_px(y1)}" '
            'stroke="black" stroke-width="1"/>'
        )
        for i in range(6):
            fx = self.x_lo + (self.x_hi - self.x_lo) * i / 5
            fy = self.y_lo + (self.y_hi - self.y_lo) * i / 5
            px, py = self.x(fx), self.y(fy)
            self.parts.append(
                f'<line x1="{_px(px)}" y1="{_px(y0)}" x2="{_px(px)}" '
                f'y2="{_px(y0 + 4)}" stroke="black" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{_px(px)}" y="{_px(y0 + 17)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{format(fx, ".4g")}</text>'
            )
            self.parts.append(
                f'<line x1="{_px(x0 - 4)}" y1="{_px(py)}" x2="{_px(x0)}" '
                f'y2="{_px(py)}" stroke="black" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{_px(x0 - 7)}" y="{_px(py + 3)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{format(fy, ".4g")}</text>'
            )
        self.parts.append(
            f'<text x="{_px((x0 + x1) / 2)}" y="{_px(self.height - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{_px((y0 + y1) / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_px((y0 + y1) / 2)})">{y_label}</text>'
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

    def label(self, x, y, text, color="black", dx=6.0, dy=-6.0, size=11):
        self.parts.append(
            f'<text x="{_px(self.x(x) + dx)}" y="{_px(self.y(y) + dy)}" '
            f'font-family="sans-serif" font-size="{size}" fill="{color}">{text}</text>'
        )

    def note(self, line_no, text, color="black"):
        self.parts.append(
            f'<text x="{_px(self.left + 8)}" y="{_px(self.top + 14 + 14 * line_no)}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{text}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


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
    """
    points = []
    for i, (gamma, m, nu) in enumerate(curves):
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canvas.render())
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
    marked with a dashed vertical and open endpoints.
    """
    n = params.n_agents
    lo, hi = params.nu_lower, params.nu_upper
    gamma_eq = gamma_uniform_top(envy, n, n)
    gamma_pol = gamma_uniform_top(envy, rich_count, n)
    res = nu_for_gamma(gamma0, params)
    breakpoint_nu = None if res.clamped else res.nu

    def egal(nu):
        return savings_rate(gamma_eq, 1.0, nu, params)

    def pol(nu):
        return savings_rate(gamma_pol, rich_count / n, nu, params)

    if breakpoint_nu is None:
        # clamped high: threshold exceeds gamma0 everywhere -> all egalitarian;
        # clamped low: gamma0 above threshold everywhere -> all polarised
        whole = (lo, hi)
        egal_span = whole if res.raw > hi else None
        pol_span = whole if res.raw < lo else None
    else:
        egal_span = (lo, breakpoint_nu)
        pol_span = (breakpoint_nu, hi)

    branches = []
    if egal_span:
        xs = np.linspace(egal_span[0], egal_span[1], 200)
        branches.append((xs, np.array([egal(v) for v in xs]), _PALETTE[0], "egalitarian branch"))
    if pol_span:
        xs = np.linspace(pol_span[0], pol_span[1], 200)
        branches.append((xs, np.array([pol(v) for v in xs]), _PALETTE[1], "polarised branch"))
    y_max = 1.2 * max(float(ys.max()) for _, ys, _, _ in branches) if branches else 1.0
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
        canvas.circle(breakpoint_nu, egal(breakpoint_nu), 3.5, _PALETTE[0], filled=False)
        canvas.circle(breakpoint_nu, pol(breakpoint_nu), 3.5, _PALETTE[1], filled=False)
        canvas.label(breakpoint_nu, y_max, f"nu(gamma0)={format(breakpoint_nu, '.6g')}", "#555555", dy=12.0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canvas.render())
    return SavingsPlotResult(
        path=str(path),
        breakpoint_nu=breakpoint_nu,
        egalitarian_span=egal_span,
        polarised_span=pol_span,
    )
