"""Seeded synthetic academic systems with planted ground truth.

The generator builds a full corpus (universities, partner pools,
journals, staff rosters, publications) from a parameter set and a
64-bit seed.  Raw random draws are keyed by (seed, entity id) through
independent PCG64 streams, so enlarging the system leaves existing
entities' draws untouched.  Each key's stream is built once: the
productivity and collaboration multipliers are drawn once per
(university, area) and shared by the area's sectors, and each cell
(university, sector) draws its years, journals, partner flags and
partner picks from its own stream.

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


def _layout(params: SynthParams) -> tuple[list[str], list[str], dict[str, str]]:
    """The generated university ids, area ids and ``{sds: area}`` sector map."""
    areas = [f"A{i:02d}" for i in range(1, params.n_areas + 1)]
    sectors = {f"{area}S{j:02d}": area for area in areas
               for j in range(1, params.sds_per_area + 1)}
    return [f"U{i:03d}" for i in range(1, params.n_universities + 1)], areas, sectors


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
    scales = ("pubs_per_staff_mean", "productivity_spread", "collab_variation",
              "sector_if_spread")
    floats = {name: getattr(params, name) for name in scales}
    floats |= {f"if_lognormal[{i}]": value for i, value in enumerate(params.if_lognormal)}
    floats |= {f"planted_associations[{i}].{name}": getattr(assoc, name)
               for i, assoc in enumerate(params.planted_associations)
               for name in ("r", "noise")}
    for name, value in floats.items():
        if not math.isfinite(value):
            raise SynthParamsError(f"{name} must be a finite number, got {value}")
    lo, hi = params.staff_range
    if lo < 0 or hi < lo:
        raise SynthParamsError(f"invalid staff_range {params.staff_range}")
    for name in scales:
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
    universities, areas, sectors = _layout(params)
    for name, known, what in (("staff_overrides", universities, "university"),
                              ("area_propensity_overrides", areas, "area"),
                              ("sds_propensity_overrides", sectors, "sector")):
        unknown = getattr(params, name).keys() - set(known)
        if unknown:
            raise SynthParamsError(f"{name}[{min(unknown)}] names no generated {what}")
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
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


def _quota(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    """A mask over n publications with round(q*n) of them set at random."""
    members = np.zeros(n, dtype=bool)
    k = int(round(q * n))
    if k:
        members[rng.permutation(n)[:k]] = True
    return members


def generate_corpus(params: SynthParams) -> SynthResult:
    """Build a synthetic corpus plus its ground-truth manifest."""
    _check_params(params)
    seed = params.seed
    period = (params.start_year, params.start_year + params.years - 1)
    universities, areas, sector_entries = _layout(params)
    sectors = sorted(sector_entries)

    organizations = {
        univ: Organization(univ, f"University {i}", OrgClass.UNIV_DOMESTIC, params.home_country)
        for i, univ in enumerate(universities, start=1)
    }
    external_pools: dict[str, list[str]] = {}  # the partner classes after other_university
    for name, prefix, size, label, org_class in (
        ("dpr", "DPR", params.n_dpr, "Research Institution", OrgClass.DPR_DOMESTIC),
        ("enterprise", "ENT", params.n_enterprises, "Enterprise", OrgClass.ENTERPRISE_DOMESTIC),
        ("foreign", "FOR", params.n_foreign, "Foreign Organization", OrgClass.FOREIGN),
    ):
        external_pools[name] = [f"{prefix}{i:02d}" for i in range(1, size + 1)]
        for i, oid in enumerate(external_pools[name]):
            country = (FOREIGN_COUNTRIES[i % len(FOREIGN_COUNTRIES)]
                       if org_class is OrgClass.FOREIGN else params.home_country)
            organizations[oid] = Organization(oid, f"{label} {i + 1}", org_class, country)

    mu0, sigma = params.if_lognormal
    journals: dict[str, Journal] = {}
    journals_by_sds: dict[str, list[str]] = {}
    for sds in sectors:
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

    planted_by_area = {a.area: a for a in params.planted_associations}
    # area -> (association, collaboration share and productivity multiplier by university)
    planted: dict[str, tuple[PlantedAssociation, dict[str, float], dict[str, float]]] = {}
    planted_records: list[dict] = []
    for area in areas:
        assoc = planted_by_area.get(area)
        if assoc is None:
            continue
        shares, multipliers, achieved = _planted_drivers(params, assoc, universities)
        planted[area] = (assoc, shares, multipliers)
        planted_records.append(
            {
                "area": area,
                "x": assoc.x_metric,
                "y": assoc.y_indicator,
                "r": assoc.r,
                "r_driver": achieved,
            }
        )

    no_peers = params.n_universities < 2
    lo, hi = params.staff_range
    staff_entries: dict[tuple[str, str, int], int] = {}
    publications: list[Publication] = []
    for u, univ in enumerate(universities):
        pools = {"other_university": universities[:u] + universities[u + 1:], **external_pools}
        # (publications per staff member, propensity multiplier), shared by an area's sectors
        multipliers: dict[str, tuple[float, float]] = {}
        for area in areas:
            if area in planted:
                prod = planted[area][2][univ]
            else:
                prod = float(np.exp(
                    _rng(seed, "prod", univ, area).normal(0.0, params.productivity_spread)
                ))
            collab_mult = 1.0
            if params.collab_variation > 0:
                collab_mult = float(np.exp(
                    _rng(seed, "collab", univ, area).normal(0.0, params.collab_variation)
                ))
            multipliers[area] = (params.pubs_per_staff_mean * prod, collab_mult)

        for sds in sectors:
            if univ in params.staff_overrides:
                head = params.staff_overrides[univ]
            else:
                head = int(_rng(seed, "staff", univ, sds).integers(lo, hi + 1))
            for year in range(period[0], period[1] + 1):
                staff_entries[(univ, sds, year)] = head
            area = sector_entries[sds]
            pps, collab_mult = multipliers[area]
            n = int(round(head * pps))
            if n <= 0:
                continue

            rng = _rng(seed, "cell", univ, sds)
            years = rng.integers(period[0], period[1] + 1, size=n)
            journal_ids = journals_by_sds[sds]
            journal_idx = rng.integers(0, len(journal_ids), size=n)

            base = params.sds_propensity_overrides.get(
                sds, params.area_propensity_overrides.get(area, params.collab_propensities)
            )
            assoc, shares, _ = planted.get(area, (None, {}, {}))
            flags: dict[str, np.ndarray] = {}
            if assoc is not None and assoc.x_metric == "CI_share":
                extramural = _quota(rng, n, shares[univ])
                for name in CLASS_ORDER:
                    w = getattr(base, name) / X_CENTER
                    if name == "other_university" and no_peers:
                        w = 0.0
                    flags[name] = extramural & (rng.random(n) < min(w, 1.0))
                uncovered = extramural & ~np.logical_or.reduce(list(flags.values()))
                if uncovered.any():
                    flags[_fallback_class(base, params.n_universities)] |= uncovered
            else:
                planted_class = assoc and {"FCI": "foreign", "DCI": "enterprise"}[assoc.x_metric]
                for name in CLASS_ORDER:
                    if name == planted_class:
                        q = shares[univ]
                    elif name == "other_university" and no_peers:
                        q = 0.0
                    else:
                        q = min(getattr(base, name) * collab_mult, 0.97)
                    flags[name] = _quota(rng, n, q)

            # partner picks, one batched draw per class in CLASS_ORDER
            picks = [
                (flags[name].tolist(), pool,
                 rng.integers(0, max(len(pool), 1), size=n).tolist())
                for name, pool in pools.items()
            ]
            credit = (Attribution(university=univ, sds=sds),)
            for i, (year, j) in enumerate(zip(years.tolist(), journal_idx.tolist())):
                partners = [pool[idx[i]] for flag, pool, idx in picks if flag[i]]
                publications.append(
                    Publication(
                        pub_id=f"{univ}-{sds}-{i + 1:04d}",
                        year=year,
                        journal_id=journal_ids[j],
                        org_ids=frozenset([univ, *partners]),
                        attributions=credit,
                    )
                )

    corpus = Corpus(
        publications=tuple(publications),
        organizations=organizations,
        journals=journals,
        staff=StaffRoster(entries=staff_entries),
        sectors=SectorMap(entries=sector_entries),
        home_country=params.home_country,
        period=period,
    )
    ground_truth = GroundTruth(
        planted_shares={
            area: asdict(params.area_propensity_overrides.get(area, params.collab_propensities))
            for area in areas
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
