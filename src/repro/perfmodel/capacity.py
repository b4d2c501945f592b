"""Memory capacity and application feasibility (paper section VIII).

Section VIII.B argues the single-wafer memory limit (18 GB of SRAM) is
acceptable for a family of "spatially compact" high-value workloads and
will recede with process shrinks: "A technology shrink from the 16 nm
to 7 nm technology node will provide about 40 GB of SRAM on the wafer
and further increases (to 50 GB at 5 nm) will follow."

This module models that roadmap and the four concrete use cases the
paper cites:

* real-time pilot-in-the-loop ship/helicopter CFD (Oruc 2017: ~1 M
  cells suffice, real time is the hard part);
* wind-turbine rotor shape optimization (Madsen et al. 2019: 14-50 M
  cells, hundreds-thousands of *sequential* simulations);
* carbon-capture uncertainty quantification (Xu et al. 2017: 1,505
  simulations of ~600 s each);
* full-scale ship self-propulsion (Jasak et al. 2019: 11.7 M cells,
  up to 83 hours per case on an engineering cluster).
"""

from __future__ import annotations

from dataclasses import dataclass

from .simple_cycles import SimpleCostModel

__all__ = [
    "TechNode",
    "ROADMAP",
    "max_meshpoints",
    "max_cube_edge",
    "Application",
    "APPLICATIONS",
    "ApplicationAssessment",
    "assess_application",
]

#: fp16 words of tile memory consumed per meshpoint by a full SIMPLE
#: CFD state (fields, matrices, sources; the BiCGStab solve alone needs
#: 10 -- section VI notes formation adds substantially to memory).
CFD_WORDS_PER_POINT = 30
SOLVER_WORDS_PER_POINT = 10


@dataclass(frozen=True)
class TechNode:
    """One point on the wafer-scale SRAM roadmap."""

    name: str
    process_nm: int
    sram_bytes: float

    @property
    def sram_gb(self) -> float:
        return self.sram_bytes / 1e9


#: The paper's roadmap (section VIII.B).
ROADMAP = (
    TechNode("CS-1 (16 nm)", 16, 18e9),
    TechNode("7 nm shrink", 7, 40e9),
    TechNode("5 nm shrink", 5, 50e9),
)


def max_meshpoints(
    node: TechNode, words_per_point: int = CFD_WORDS_PER_POINT,
    bytes_per_word: int = 2,
) -> int:
    """Largest mesh a wafer generation holds at a memory intensity."""
    return int(node.sram_bytes // (words_per_point * bytes_per_word))


def max_cube_edge(
    node: TechNode, words_per_point: int = CFD_WORDS_PER_POINT
) -> int:
    """Edge of the largest cubic mesh that fits (floor)."""
    return int(max_meshpoints(node, words_per_point) ** (1.0 / 3.0))


@dataclass(frozen=True)
class Application:
    """A section VIII use case.

    Parameters
    ----------
    cells:
        Mesh size the cited study needs.
    simulations:
        Independent/sequential runs per campaign (1 for a single case).
    cluster_seconds_per_sim:
        The cited conventional-system time per simulation, where the
        paper gives one (None otherwise).
    realtime_steps_per_second:
        For in-the-loop uses: the physical timestep rate the simulation
        must sustain to run in real time (None when latency-insensitive).
    sequential:
        Whether the campaign's runs must execute one after another
        (optimization) rather than in parallel (UQ sweeps).
    """

    name: str
    citation: str
    cells: float
    simulations: int = 1
    cluster_seconds_per_sim: float | None = None
    realtime_steps_per_second: float | None = None
    sequential: bool = False


APPLICATIONS = (
    Application(
        name="helicopter/ship dynamic interface (pilot-in-the-loop)",
        citation="Oruc 2017 (paper section VIII.A)",
        cells=1e6,
        realtime_steps_per_second=30.0,
    ),
    Application(
        name="wind-turbine rotor shape optimization",
        citation="Madsen et al. 2019 (paper section VIII.B)",
        cells=30e6,           # mid of the 14-50M Richardson range
        simulations=500,      # "hundreds to thousands", sequential
        sequential=True,
    ),
    Application(
        name="carbon-capture UQ campaign (1 MW pilot)",
        citation="Xu et al. 2017 (paper section VIII.B)",
        cells=2e6,
        simulations=1505,
        cluster_seconds_per_sim=600.0,
    ),
    Application(
        name="full-scale ship self-propulsion",
        citation="Jasak et al. 2019 (paper section VIII.B)",
        cells=11.7e6,
        cluster_seconds_per_sim=83.0 * 3600.0,
    ),
)


@dataclass(frozen=True)
class ApplicationAssessment:
    """Feasibility verdict for one application on one wafer generation."""

    application: Application
    node: TechNode
    fits: bool
    mesh_edge: int
    steps_per_second: float
    realtime_factor: float | None
    campaign_seconds: float | None
    cluster_campaign_seconds: float | None

    @property
    def speedup(self) -> float | None:
        if self.campaign_seconds and self.cluster_campaign_seconds:
            return self.cluster_campaign_seconds / self.campaign_seconds
        return None


def assess_application(
    app: Application,
    node: TechNode = ROADMAP[0],
    model: SimpleCostModel | None = None,
    timesteps_per_sim: int = 2000,
) -> ApplicationAssessment:
    """Evaluate a use case on a wafer generation.

    The timestep rate comes from the SIMPLE cost model at the
    application's (cubified) mesh; memory feasibility from the roadmap;
    campaign time as ``simulations x timesteps x step time`` (a
    steady-state run is charged the same way via its iteration count).
    """
    model = model or SimpleCostModel()
    fits = app.cells <= max_meshpoints(node)
    edge = int(round(app.cells ** (1.0 / 3.0)))
    g = model.wafer.config.geometry
    mesh = (
        min(edge, g.fabric_width),
        min(edge, g.fabric_height),
        min(edge, model.wafer.max_z()),
    )
    steps = model.timesteps_per_second(mesh)
    realtime = (
        steps / app.realtime_steps_per_second
        if app.realtime_steps_per_second
        else None
    )
    campaign = app.simulations * timesteps_per_sim / steps if fits else None
    cluster_campaign = (
        app.simulations * app.cluster_seconds_per_sim
        if app.cluster_seconds_per_sim
        else None
    )
    return ApplicationAssessment(
        application=app,
        node=node,
        fits=fits,
        mesh_edge=edge,
        steps_per_second=steps,
        realtime_factor=realtime,
        campaign_seconds=campaign,
        cluster_campaign_seconds=cluster_campaign,
    )
