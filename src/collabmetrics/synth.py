"""Seeded synthetic academic systems with planted ground truth.

The generator builds a full corpus (universities, partner pools,
journals, staff rosters, publications) from a parameter set and a
64-bit seed.  Raw random draws are keyed by (seed, entity id) through
independent PCG64 streams, so enlarging the system leaves existing
entities' draws untouched.

Collaboration is planted by per-cell quotas: a cell with n
publications and propensity q gets exactly round(q*n) flagged ones,
which keeps realized shares tight around their targets.  Planted
correlations pair a per-university collaboration driver with a
productivity driver built by empirical rotation, so the sample
correlation of the drivers equals the requested value exactly (the
achieved value after range clipping is reported in the manifest).
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    Attribution,
    Corpus,
    Journal,
    Organization,
    OrgClass,
    Publication,
    SectorMap,
    StaffRoster,
    write_corpus,
)

CLASS_ORDER = ("other_university", "dpr", "enterprise", "foreign")
PLANTABLE_X = ("CI_share", "FCI", "DCI")
PLANTABLE_Y = ("P", "FP", "QP", "FQP")

FOREIGN_COUNTRIES = ("US", "FR", "DE", "GB", "CH", "JP")

# Driver-to-observable mappings for planted associations
X_CENTER = 0.5
X_AMPLITUDE = 0.15
Y_AMPLITUDE = 0.25

GROUND_TRUTH_FILENAME = "ground_truth.json"


class SynthParamsError(ValueError):
    pass


@dataclass(frozen=True)
class Propensities:
    """Per-class probability that a publication gains such a partner."""

    other_university: float = 0.25
    dpr: float = 0.20
    enterprise: float = 0.05
    foreign: float = 0.30

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CLASS_ORDER}

    def check(self, label: str) -> None:
        for name in CLASS_ORDER:
            q = getattr(self, name)
            if not 0.0 <= q <= 1.0:
                raise SynthParamsError(
                    f"{label}.{name} must be a probability, got {q}"
                )


@dataclass(frozen=True)
class PlantedAssociation:
    """Target correlation between a collaboration metric (X) and a
    performance indicator (Y) across one area's universities."""

    area: str
    x_metric: str
    y_indicator: str
    r: float
    noise: float = 0.0


@dataclass(frozen=True)
class SynthParams:
    seed: int = 0
    n_universities: int = 20
    n_areas: int = 4
    sds_per_area: int = 3
    years: int = 3
    start_year: int = 2001
    home_country: str = "IT"
    staff_range: tuple[int, int] = (6, 30)
    pubs_per_staff_mean: float = 0.9  # publications per staff member per period
    productivity_spread: float = 0.35  # lognormal sigma across universities
    collab_variation: float = 0.2  # lognormal sigma on per-university propensity
    collab_propensities: Propensities = Propensities()
    area_propensity_overrides: dict[str, Propensities] = field(default_factory=dict)
    sds_propensity_overrides: dict[str, Propensities] = field(default_factory=dict)
    if_lognormal: tuple[float, float] = (0.0, 0.6)  # (mu, sigma)
    sector_if_spread: float = 0.4
    n_journals_per_sds: int = 6
    n_dpr: int = 6
    n_enterprises: int = 6
    n_foreign: int = 10
    staff_overrides: dict[str, int] = field(default_factory=dict)
    planted_associations: tuple[PlantedAssociation, ...] = ()


@dataclass(frozen=True)
class GroundTruth:
    planted_shares: dict[str, dict[str, float]]
    planted_correlations: list[dict]
    staff_overrides: dict[str, int]


@dataclass(frozen=True)
class SynthResult:
    corpus: Corpus
    ground_truth: GroundTruth


def _key(part) -> int:
    digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _rng(seed: int, *parts) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [_key(p) for p in parts]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _check_params(params: SynthParams) -> None:
    counts = {
        "n_universities": params.n_universities,
        "n_areas": params.n_areas,
        "sds_per_area": params.sds_per_area,
        "years": params.years,
        "n_journals_per_sds": params.n_journals_per_sds,
        "n_dpr": params.n_dpr,
        "n_enterprises": params.n_enterprises,
        "n_foreign": params.n_foreign,
    }
    for name, value in counts.items():
        if value < 1:
            raise SynthParamsError(f"{name} must be at least 1, got {value}")
    for name in ("staff_range", "if_lognormal"):
        if len(getattr(params, name)) != 2:
            raise SynthParamsError(f"{name} must be a pair, got {getattr(params, name)!r}")
    lo, hi = params.staff_range
    if lo < 0 or hi < lo:
        raise SynthParamsError(f"invalid staff_range {params.staff_range}")
    if params.pubs_per_staff_mean < 0:
        raise SynthParamsError("pubs_per_staff_mean must be non-negative")
    for name in ("productivity_spread", "collab_variation", "sector_if_spread"):
        if getattr(params, name) < 0:
            raise SynthParamsError(f"{name} must be non-negative")
    if params.if_lognormal[1] < 0:
        raise SynthParamsError("if_lognormal sigma must be non-negative")
    params.collab_propensities.check("collab_propensities")
    for area, props in params.area_propensity_overrides.items():
        props.check(f"area_propensity_overrides[{area}]")
    for sds, props in params.sds_propensity_overrides.items():
        props.check(f"sds_propensity_overrides[{sds}]")
    for head in params.staff_overrides.values():
        if not isinstance(head, int) or head < 0:
            raise SynthParamsError(
                f"staff overrides must be non-negative integers, got {head!r}"
            )
    for assoc in params.planted_associations:
        if assoc.x_metric not in PLANTABLE_X:
            raise SynthParamsError(
                f"cannot plant x_metric '{assoc.x_metric}' (use {PLANTABLE_X})"
            )
        if assoc.y_indicator not in PLANTABLE_Y:
            raise SynthParamsError(
                f"cannot plant y_indicator '{assoc.y_indicator}' (use {PLANTABLE_Y})"
            )
        if not -1.0 <= assoc.r <= 1.0:
            raise SynthParamsError(f"target correlation {assoc.r} outside [-1, 1]")
        if assoc.noise < 0:
            raise SynthParamsError(f"noise must be non-negative, got {assoc.noise}")
        if abs(assoc.r) == 1.0 and assoc.noise > 0:
            raise SynthParamsError(
                "a perfect correlation cannot be planted with nonzero noise"
            )
    if params.planted_associations and params.n_universities < 3:
        raise SynthParamsError("planting correlations needs at least 3 universities")
    areas = {f"A{i:02d}" for i in range(1, params.n_areas + 1)}
    for assoc in params.planted_associations:
        if assoc.area not in areas:
            raise SynthParamsError(f"planted area '{assoc.area}' does not exist")
    planted_areas = [a.area for a in params.planted_associations]
    if len(planted_areas) != len(set(planted_areas)):
        raise SynthParamsError("at most one planted association per area")


def load_params(seed: int, params_path: Path | None) -> SynthParams:
    """The parameters of ``synth --seed --params``: defaults, overridden by
    the JSON object in ``params_path`` if given."""
    if params_path is None:
        return SynthParams(seed=seed)
    try:
        raw = json.loads(params_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SynthParamsError(f"{params_path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SynthParamsError("params file must hold a JSON object")
    return _from_json({"seed": seed} | raw, SynthParams, "")


_JSON_SCALARS = {int: (int, "an integer"), float: ((int, float), "a finite number"),
                 str: (str, "a string")}


def _from_json(value, kind, key: str):
    """``value``, read from JSON, as a ``kind``: a dataclass or ``dict[str, T]``
    from an object, a tuple from a list, else an int, float or str.  A value
    of the wrong type, a non-finite number, or a missing or unknown field
    fails naming its key."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if is_dataclass(kind) or origin is dict:
        if not isinstance(value, dict):
            raise SynthParamsError(f"{key} must be a JSON object")
        if origin is dict:
            return {k: _from_json(v, args[1], f"{key}[{k}]") for k, v in value.items()}
        hints = typing.get_type_hints(kind)
        required = {f.name for f in fields(kind)
                    if f.default is MISSING and f.default_factory is MISSING}
        field_key = (lambda name: f"{key}.{name}") if key else str
        for problem, names in (("unknown", value.keys() - hints.keys()),
                               ("missing", required - value.keys())):
            if names:
                raise SynthParamsError(f"{problem} key '{field_key(min(names))}'")
        return kind(**{name: _from_json(v, hints[name], field_key(name))
                       for name, v in value.items()})
    if origin is tuple:
        if not isinstance(value, list):
            raise SynthParamsError(f"{key} must be a JSON list")
        return tuple(_from_json(v, args[0], f"{key}[{i}]") for i, v in enumerate(value))
    accepted, what = _JSON_SCALARS[kind]
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or kind is float and not math.isfinite(value)):  # JSON allows NaN, Infinity
        raise SynthParamsError(f"{key} must be {what}, got {value!r}")
    return value


def _planted_drivers(
    params: SynthParams, assoc: PlantedAssociation, universities: list[str]
) -> tuple[dict[str, float], dict[str, float], float]:
    """Per-university (collaboration share, productivity multiplier) with an
    exact sample correlation between the underlying drivers."""
    n = len(universities)
    raw = np.empty((n, 2))
    for i, univ in enumerate(universities):
        raw[i] = _rng(params.seed, "plant", assoc.area, univ).standard_normal(2)
    x = raw[:, 0] - raw[:, 0].mean()
    e = raw[:, 1] - raw[:, 1].mean()
    e = e - (e @ x) / (x @ x) * x
    if x.std() == 0 or e.std() == 0:
        raise SynthParamsError("degenerate driver draw; change the seed")
    xhat = x / x.std()
    ehat = e / e.std()
    y = assoc.r * xhat + math.sqrt(1.0 - assoc.r**2) * ehat
    if assoc.noise > 0:
        y = y + assoc.noise * _rng(params.seed, "plant-noise", assoc.area).standard_normal(n)

    shares = np.clip(X_CENTER + X_AMPLITUDE * xhat, 0.03, 0.97)
    multipliers = np.clip(1.0 + Y_AMPLITUDE * y, 0.15, 1.85)
    achieved = float(np.corrcoef(shares, multipliers)[0, 1])
    return (
        dict(zip(universities, shares.tolist())),
        dict(zip(universities, multipliers.tolist())),
        achieved,
    )


def _fallback_class(base: Propensities, n_universities: int) -> str:
    """Partner class forced onto a quota-extramural publication that drew
    no class at all: the available class with the highest propensity."""
    available = [c for c in CLASS_ORDER if c != "other_university" or n_universities >= 2]
    return max(available, key=lambda c: (getattr(base, c), -CLASS_ORDER.index(c)))


def generate_corpus(params: SynthParams) -> SynthResult:
    """Build a synthetic corpus plus its ground-truth manifest."""
    _check_params(params)
    seed = params.seed
    period = (params.start_year, params.start_year + params.years - 1)

    areas = [f"A{i:02d}" for i in range(1, params.n_areas + 1)]
    sector_entries: dict[str, str] = {}
    for area in areas:
        for j in range(1, params.sds_per_area + 1):
            sector_entries[f"{area}S{j:02d}"] = area
    sectors = SectorMap(entries=sector_entries)

    universities = [f"U{i:03d}" for i in range(1, params.n_universities + 1)]
    organizations: dict[str, Organization] = {}
    for i, univ in enumerate(universities, start=1):
        organizations[univ] = Organization(
            univ, f"University {i}", OrgClass.UNIV_DOMESTIC, params.home_country
        )
    dpr_pool = [f"DPR{i:02d}" for i in range(1, params.n_dpr + 1)]
    for i, oid in enumerate(dpr_pool, start=1):
        organizations[oid] = Organization(
            oid, f"Research Institution {i}", OrgClass.DPR_DOMESTIC, params.home_country
        )
    enterprise_pool = [f"ENT{i:02d}" for i in range(1, params.n_enterprises + 1)]
    for i, oid in enumerate(enterprise_pool, start=1):
        organizations[oid] = Organization(
            oid, f"Enterprise {i}", OrgClass.ENTERPRISE_DOMESTIC, params.home_country
        )
    foreign_pool = [f"FOR{i:02d}" for i in range(1, params.n_foreign + 1)]
    for i, oid in enumerate(foreign_pool, start=1):
        organizations[oid] = Organization(
            oid,
            f"Foreign Organization {i}",
            OrgClass.FOREIGN,
            FOREIGN_COUNTRIES[(i - 1) % len(FOREIGN_COUNTRIES)],
        )

    mu0, sigma = params.if_lognormal
    journals: dict[str, Journal] = {}
    journals_by_sds: dict[str, list[str]] = {}
    for sds in sorted(sector_entries):
        mu = mu0 + params.sector_if_spread * float(
            _rng(seed, "sector-if", sds).standard_normal()
        )
        ids = [f"{sds}J{j}" for j in range(1, params.n_journals_per_sds + 1)]
        journals_by_sds[sds] = ids
        for jid in ids:
            rng = _rng(seed, "journal", jid)
            by_year = {}
            for year in range(period[0], period[1] + 1):
                value = round(float(np.exp(rng.normal(mu, sigma))), 4)
                by_year[year] = max(value, 0.0001)
            journals[jid] = Journal(jid, by_year)

    staff_entries: dict[tuple[str, str, int], int] = {}
    staff_of: dict[tuple[str, str], int] = {}
    lo, hi = params.staff_range
    for univ in universities:
        for sds in sorted(sector_entries):
            if univ in params.staff_overrides:
                head = params.staff_overrides[univ]
            else:
                head = int(_rng(seed, "staff", univ, sds).integers(lo, hi + 1))
            staff_of[(univ, sds)] = head
            for year in range(period[0], period[1] + 1):
                staff_entries[(univ, sds, year)] = head
    roster = StaffRoster(entries=staff_entries)

    planted_by_area = {a.area: a for a in params.planted_associations}
    planted_shares_by_area: dict[str, dict[str, float]] = {}
    planted_prod_by_area: dict[str, dict[str, float]] = {}
    planted_records: list[dict] = []
    for area in areas:
        assoc = planted_by_area.get(area)
        if assoc is None:
            continue
        shares, multipliers, achieved = _planted_drivers(params, assoc, universities)
        planted_shares_by_area[area] = shares
        planted_prod_by_area[area] = multipliers
        planted_records.append(
            {
                "area": area,
                "x": assoc.x_metric,
                "y": assoc.y_indicator,
                "r": assoc.r,
                "r_driver": achieved,
            }
        )

    def base_propensities(sds: str, area: str) -> Propensities:
        if sds in params.sds_propensity_overrides:
            return params.sds_propensity_overrides[sds]
        return params.area_propensity_overrides.get(area, params.collab_propensities)

    publications: list[Publication] = []
    for univ in universities:
        univ_index = universities.index(univ)
        partners_other = universities[:univ_index] + universities[univ_index + 1:]
        for sds in sorted(sector_entries):
            area = sector_entries[sds]
            assoc = planted_by_area.get(area)
            base = base_propensities(sds, area)

            if assoc is not None:
                pps = params.pubs_per_staff_mean * planted_prod_by_area[area][univ]
            else:
                spread = params.productivity_spread
                pps = params.pubs_per_staff_mean * float(
                    np.exp(_rng(seed, "prod", univ, area).normal(0.0, spread))
                )
            n = int(round(staff_of[(univ, sds)] * pps))
            if n <= 0:
                continue

            rng = _rng(seed, "cell", univ, sds)
            years = rng.integers(period[0], period[1] + 1, size=n)
            journal_ids = journals_by_sds[sds]
            journal_idx = rng.integers(0, len(journal_ids), size=n)

            if params.collab_variation > 0:
                collab_mult = float(
                    np.exp(_rng(seed, "collab", univ, area).normal(0.0, params.collab_variation))
                )
            else:
                collab_mult = 1.0

            def effective(name: str) -> float:
                q = getattr(base, name) * collab_mult
                if name == "other_university" and params.n_universities < 2:
                    return 0.0
                return min(q, 0.97)

            flags: dict[str, np.ndarray] = {}
            if assoc is not None and assoc.x_metric == "CI_share":
                share = planted_shares_by_area[area][univ]
                k = int(round(share * n))
                extramural = np.zeros(n, dtype=bool)
                if k:
                    extramural[rng.permutation(n)[:k]] = True
                for name in CLASS_ORDER:
                    w = getattr(base, name) / X_CENTER
                    if name == "other_university" and params.n_universities < 2:
                        w = 0.0
                    flags[name] = extramural & (rng.random(n) < min(w, 1.0))
                uncovered = extramural & ~np.logical_or.reduce(
                    [flags[name] for name in CLASS_ORDER]
                )
                if uncovered.any():
                    flags[_fallback_class(base, params.n_universities)] |= uncovered
            else:
                planted_class = None
                if assoc is not None:
                    planted_class = {"FCI": "foreign", "DCI": "enterprise"}[assoc.x_metric]
                for name in CLASS_ORDER:
                    if name == planted_class:
                        q = planted_shares_by_area[area][univ]
                    else:
                        q = effective(name)
                    k = int(round(q * n))
                    members = np.zeros(n, dtype=bool)
                    if k:
                        members[rng.permutation(n)[:k]] = True
                    flags[name] = members

            # partner picks, one batched draw per class
            partner_idx = {
                "other_university": rng.integers(0, max(len(partners_other), 1), size=n),
                "dpr": rng.integers(0, len(dpr_pool), size=n),
                "enterprise": rng.integers(0, len(enterprise_pool), size=n),
                "foreign": rng.integers(0, len(foreign_pool), size=n),
            }

            for i in range(n):
                orgs = {univ}
                if flags["other_university"][i] and partners_other:
                    orgs.add(partners_other[partner_idx["other_university"][i]])
                if flags["dpr"][i]:
                    orgs.add(dpr_pool[partner_idx["dpr"][i]])
                if flags["enterprise"][i]:
                    orgs.add(enterprise_pool[partner_idx["enterprise"][i]])
                if flags["foreign"][i]:
                    orgs.add(foreign_pool[partner_idx["foreign"][i]])
                publications.append(
                    Publication(
                        pub_id=f"{univ}-{sds}-{i + 1:04d}",
                        year=int(years[i]),
                        journal_id=journal_ids[int(journal_idx[i])],
                        org_ids=frozenset(orgs),
                        attributions=(Attribution(university=univ, sds=sds),),
                    )
                )

    corpus = Corpus(
        publications=tuple(publications),
        organizations=organizations,
        journals=journals,
        staff=roster,
        sectors=sectors,
        home_country=params.home_country,
        period=period,
    )
    ground_truth = GroundTruth(
        planted_shares={
            area: base_propensities_area.as_dict()
            for area, base_propensities_area in (
                (a, params.area_propensity_overrides.get(a, params.collab_propensities))
                for a in areas
            )
        },
        planted_correlations=planted_records,
        staff_overrides=dict(params.staff_overrides),
    )
    return SynthResult(corpus=corpus, ground_truth=ground_truth)


def write_ground_truth(ground_truth: GroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(ground_truth), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_synthetic(result: SynthResult, out_dir) -> dict[str, Path]:
    """Write the five corpus files plus the ground-truth manifest."""
    out = Path(out_dir)
    paths = write_corpus(result.corpus, out)
    gt_path = out / GROUND_TRUTH_FILENAME
    write_ground_truth(result.ground_truth, gt_path)
    paths["ground_truth"] = gt_path
    return paths
