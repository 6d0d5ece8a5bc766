"""Numeric profiles: the full-scale constant set and desk-scale variants.

Every structural constraint in the construction is parametric in these
constants. The "full-scale" profile carries the constants under which the
construction is guaranteed to succeed; they are only satisfiable when the
minimum degree is astronomically large, so that profile exists for
analytic and unit checks. The "desk" profile is a tuned configuration
that keeps the same machinery feasible on graphs with degrees in the
hundreds. Desk values are configuration, not ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .errors import InfeasibleProfile
from .graph import Graph


@dataclass(frozen=True)
class ProfileConstants:
    p_u: float              # probability a vertex joins the adjustment core U
    eps_u: float            # relative tolerance on d_U(v)
    p_fw: float             # probability a boundary edge joins F_W
    eps_fw: float           # relative tolerance on d_FW
    m_levels: int           # number of per-core-vertex levels i_u
    eps_fu: float           # tolerance for F_U degrees (vs d(u) / d_F'(w))
    frac_nu: float          # bound factor for |N^U_<=(u)| relative to d_U(u)
    eps_loc: float          # near-location tolerance (relative to d_W(v))
    eps_len: float          # interval-length scale for l(v)
    frac_i: float           # interval occupancy bound factor
    modulus_m: int          # reserved-residue modulus
    min_delta_ratio: float  # required delta / ln(Delta)

    def __post_init__(self):
        for name in ("p_u", "p_fw"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {val}")
        for name in ("eps_u", "eps_fw", "eps_fu", "eps_loc", "eps_len"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.eps_u < self.p_u:
            raise ValueError("eps_u must be smaller than p_u")
        if self.m_levels < 2:
            raise ValueError("m_levels must be at least 2")
        if self.modulus_m < 4:
            raise ValueError("modulus_m must be at least 4")
        if not 0.0 < self.frac_i <= 1.0:
            raise ValueError("frac_i must be in (0, 1]")
        if not 0.0 < self.frac_nu <= 1.0:
            raise ValueError("frac_nu must be in (0, 1]")
        if self.min_delta_ratio < 0.0:
            raise ValueError("min_delta_ratio must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


# Residues mod modulus_m that core sums take and periphery sums avoid. The
# core's pair family {k*M, k*M + 1} hard-wires these two classes.
RESERVED_RESIDUES = (0, 1)


# Constants of the guaranteed regime (minimum degree >= 1e20 ln(max degree)).
FULL_SCALE = ProfileConstants(
    p_u=1e-4,
    eps_u=1e-6,
    p_fw=1e-4,
    eps_fw=1e-6,
    m_levels=1000,
    eps_fu=1e-5,
    frac_nu=2e-3,
    eps_loc=1e-9,
    eps_len=1e-9,
    frac_i=0.95,
    modulus_m=100,
    min_delta_ratio=1e20,
)

# Desk-scale configuration, tuned so that on graphs with degrees ~400-800
# the partition constraints concentrate (a few sigma of slack each) and the
# sum-addition stage's capacity requirement d_FW(v) >= a(v) holds: the
# interval length must absorb binomial noise (~sqrt(d)), which forces
# l ~ 2*sqrt(d) and hence d_FW ~ 4*l, i.e. p_fw * p_u * d ≳ 8*sqrt(d).
# eps_loc <= eps_len keeps the addition window nonempty whenever the
# near-location check holds.
DESK = ProfileConstants(
    p_u=0.50,
    eps_u=0.08,
    p_fw=0.85,
    eps_fw=0.10,
    m_levels=8,
    eps_fu=0.25,
    frac_nu=1.0,
    eps_loc=0.16,
    eps_len=0.19,
    frac_i=0.95,
    modulus_m=10,
    min_delta_ratio=30.0,
)

BUILTIN_PROFILES = {"full-scale": FULL_SCALE, "desk": DESK}


def check_field_names(names) -> None:
    unknown = sorted(set(names) - {f.name for f in fields(ProfileConstants)})
    if unknown:
        raise ValueError(f"unknown profile fields: {', '.join(unknown)}")


def profile_from_dict(data: dict) -> ProfileConstants:
    if not isinstance(data, dict):
        raise ValueError("a profile must be a JSON object")
    check_field_names(data)
    try:
        return ProfileConstants(**data)
    except TypeError as exc:  # a missing field or a value of the wrong type
        raise ValueError(f"bad profile: {exc}") from None


def load_profile(path: str | Path) -> ProfileConstants:
    return profile_from_dict(json.loads(Path(path).read_text()))


def resolve_profile(spec: str | None, overrides: dict | None = None) -> ProfileConstants:
    """Builtin name, JSON path, or None (desk); overrides win over the file."""
    if spec is None:
        profile = DESK
    elif spec in BUILTIN_PROFILES:
        profile = BUILTIN_PROFILES[spec]
    else:
        profile = load_profile(spec)
    if overrides:
        check_field_names(overrides)
        profile = replace(profile, **overrides)
    return profile


def feasibility_floor(profile: ProfileConstants) -> float:
    """Minimum degree below which some tolerance is sub-unit in expectation."""
    floors = [
        1.0 / profile.eps_u,
        1.0 / (profile.eps_fw * profile.p_u),
        1.0 / (profile.eps_fu * (1.0 - profile.p_fw) * profile.p_u),
    ]
    return max(floors)


def check_partition_feasible(g: Graph, profile: ProfileConstants) -> None:
    if g.edge_count == 0:
        return
    delta = g.min_degree()
    floor = feasibility_floor(profile)
    if delta < floor:
        raise InfeasibleProfile(
            f"minimum degree {delta} is below the profile feasibility floor "
            f"{floor:.1f}; some constraint tolerance is below one edge in expectation"
        )


def check_degree_regime(g: Graph, profile: ProfileConstants) -> None:
    """Required relation between minimum and maximum degree for the pipeline."""
    if g.edge_count == 0:
        return
    delta = g.min_degree()
    max_deg = g.max_degree()
    needed = profile.min_delta_ratio * math.log(max(max_deg, 2))
    if delta < needed:
        raise InfeasibleProfile(
            f"minimum degree {delta} is below min_delta_ratio * ln(max degree) "
            f"= {needed:.1f}"
        )
