import json
import math
from dataclasses import asdict, replace
from typing import get_type_hints

import pytest

from trisum.errors import InfeasibleProfile
from trisum.graph import gen_gnp
from trisum.profiles import (
    DESK,
    FULL_SCALE,
    RESERVED_RESIDUES,
    ProfileConstants,
    check_partition_feasible,
    feasibility_floor,
    level_separation,
    load_profile,
    profile_from_dict,
    resolve_profile,
)


def test_full_scale_profile_values():
    assert FULL_SCALE.p_u == 1e-4
    assert FULL_SCALE.eps_u == 1e-6
    assert FULL_SCALE.p_fw == 1e-4
    assert FULL_SCALE.eps_fw == 1e-6
    assert FULL_SCALE.m_levels == 1000
    assert FULL_SCALE.eps_fu == 1e-5
    assert FULL_SCALE.frac_nu == 2e-3
    assert FULL_SCALE.eps_loc == 1e-9
    assert FULL_SCALE.eps_len == 1e-9
    assert FULL_SCALE.frac_i == 0.95
    assert FULL_SCALE.modulus_m == 100
    assert FULL_SCALE.min_delta_ratio == 1e20


def test_desk_profile_valid():
    assert 0 < DESK.p_u < 1
    assert DESK.eps_u < DESK.p_u
    assert DESK.modulus_m == 10
    # the addition window stays nonempty whenever the near-location
    # check holds
    assert DESK.eps_loc <= DESK.eps_len


@pytest.mark.parametrize("field,value", [
    ("p_u", 0.0),
    ("p_u", 1.0),
    ("eps_u", -0.1),
    ("m_levels", 1),
    ("modulus_m", 3),
    ("frac_i", 0.0),
    ("min_delta_ratio", -1.0),
])
def test_validation_rejects(field, value):
    params = asdict(DESK)
    params[field] = value
    with pytest.raises(ValueError):
        ProfileConstants(**params)


def test_eps_u_must_be_below_p_u():
    params = asdict(DESK)
    params["eps_u"] = params["p_u"]
    with pytest.raises(ValueError):
        ProfileConstants(**params)


def test_reserved_residues_fixed():
    # the core's pair family {k*M, k*M + 1} fixes the residues; a profile
    # cannot name them
    assert RESERVED_RESIDUES == (0, 1)
    with pytest.raises(ValueError, match="unknown profile fields: reserved_residues"):
        resolve_profile("desk", {"reserved_residues": (0, 1)})


def test_json_round_trip(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(asdict(DESK)))
    back = load_profile(path)
    assert back == DESK
    # schema mirrors the field names
    data = json.loads(path.read_text())
    assert set(data) == set(asdict(DESK))


def test_resolve_profile_builtins_and_overrides(tmp_path):
    assert resolve_profile(None) == DESK
    assert resolve_profile("desk") == DESK
    assert resolve_profile("full-scale") == FULL_SCALE
    tuned = resolve_profile("desk", {"p_u": 0.25})
    assert tuned.p_u == 0.25
    path = tmp_path / "p.json"
    path.write_text(json.dumps(asdict(DESK)))
    assert resolve_profile(str(path)) == DESK


def test_unknown_fields_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown profile fields: bogus"):
        resolve_profile("desk", {"bogus": 1.0})
    with pytest.raises(ValueError, match="unknown profile fields: bogus"):
        profile_from_dict({**asdict(DESK), "bogus": 1})
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="unknown profile fields: bogus"):
        resolve_profile(str(path))


@pytest.mark.parametrize("data, name", [
    ({k: v for k, v in asdict(DESK).items() if k != "p_u"}, "p_u"),
    ({**asdict(DESK), "p_u": "x"}, "not supported"),
    ({**asdict(DESK), "reserved_residues": [0, 1]}, "unknown profile fields"),
    ([1, 2], "JSON object"),
])
def test_malformed_profile_rejected(tmp_path, data, name):
    with pytest.raises(ValueError, match=name):
        profile_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=name):
        resolve_profile(str(path))


FLOAT_FIELDS = [k for k, t in get_type_hints(ProfileConstants).items() if t is float]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_values_rejected(field, value):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        replace(DESK, **{field: value})


def test_non_finite_json_profile_rejected(tmp_path):
    # json reads the bare NaN token as a float
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**asdict(DESK), "eps_fw": math.nan}))
    assert "NaN" in path.read_text()
    with pytest.raises(ValueError, match="eps_fw must be finite, got nan"):
        resolve_profile(str(path))


def test_feasibility_floor_formula():
    floor = feasibility_floor(DESK)
    assert floor == max(
        1 / DESK.eps_u,
        1 / (DESK.eps_fw * DESK.p_u),
        1 / (DESK.eps_fu * (1 - DESK.p_fw) * DESK.p_u),
    )


def test_check_feasible_small_graph_rejected():
    g = gen_gnp(20, 0.5, seed=1)
    with pytest.raises(InfeasibleProfile):
        check_partition_feasible(g, DESK)


def test_check_feasible_accepts_large_degree():
    g = gen_gnp(300, 0.5, seed=1)
    check_partition_feasible(g, DESK)


def test_level_separation_values():
    # DESK's levels separate nothing: the widest level gap is 3 % of a J
    # interval's width. The sparse-core profile of the partition tests'
    # J filter case separates the outer levels.
    assert level_separation(DESK) == pytest.approx(0.0341, abs=1e-4)
    sparse = replace(DESK, p_u=0.1, eps_u=0.05, p_fw=0.1, eps_fw=0.5, eps_fu=0.1,
                     m_levels=8, min_delta_ratio=0.0)
    assert level_separation(sparse) == pytest.approx(1.446, abs=1e-3)
    assert level_separation(replace(sparse, eps_fu=0.06)) == pytest.approx(1.729, abs=1e-3)
