"""Seeded synthetic academic systems with planted ground truth.

The generator builds a full corpus (universities, partner pools,
journals, staff rosters, publications) from a parameter set and a
seed.  Random draws come from standard-library ``random.Random``
streams, each seeded from a digest of its key (seed, entity ids), so
enlarging the system leaves existing entities' draws untouched.  There
is one stream per journal, per sector (its impact-factor level) and per
(university, area): the last draws the area's productivity and
collaboration multipliers, then for each of the area's sectors in
sorted order the staff headcount and the cell's partner flags, years,
journals and partner picks.

Every draw goes through ``random()``, the one method whose sequence
Python promises to repeat for a given seed across versions: normals
invert ``NormalDist.inv_cdf``, integers scale ``random()``, and a quota
takes the indices with the smallest ``random()`` keys.  So a seed's
corpus rests on no library's unpinned method streams, and the package
needs no numpy.

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
import random
import statistics
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .corpus import (
    Attribution,
    Corpus,
    CorpusConfig,
    Organization,
    OrgClass,
    Publication,
    SectorMap,
    StaffRoster,
    write_corpus,
)
from .stats import associate

CLASS_ORDER = ("other_university", "dpr", "enterprise", "foreign")
PLANTABLE_X = ("CI_share", "FCI", "DCI")
PLANTABLE_Y = ("P", "FP", "QP", "FQP")

FOREIGN_COUNTRIES = ("US", "FR", "DE", "GB", "CH", "JP")
JOURNALS_PER_SDS = 6
MAX_STAFF_ROWS = 10**8  # checked before any per-row loop; 350 paper-scale universities: 189,000

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
    staff_range: tuple[int, int] = (6, 30)
    pubs_per_staff_mean: float = 0.9  # publications per staff member per period
    productivity_spread: float = 0.35  # lognormal sigma across universities
    collab_variation: float = 0.2  # lognormal sigma on per-university propensity
    collab_propensities: Propensities = Propensities()
    area_propensity_overrides: dict[str, Propensities] = field(default_factory=dict)
    sds_propensity_overrides: dict[str, Propensities] = field(default_factory=dict)
    if_lognormal: tuple[float, float] = (0.0, 0.6)  # (mu, sigma)
    sector_if_spread: float = 0.4
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


def _rng(seed: int, *parts) -> random.Random:
    """The stream of one key, seeded from a digest of the whole key."""
    key = json.dumps([seed, *parts]).encode("utf-8")
    return random.Random(int.from_bytes(hashlib.blake2b(key).digest(), "big"))


_STANDARD_NORMAL = statistics.NormalDist()


def _normal(rng: random.Random) -> float:
    """A standard normal draw: the inverse CDF of one ``random()`` value."""
    u = rng.random()
    while u == 0.0:  # the inverse CDF is undefined at 0
        u = rng.random()
    return _STANDARD_NORMAL.inv_cdf(u)


def _pick(rng: random.Random, options):
    """One item of a sequence or range, by scaling one ``random()`` value."""
    return options[int(rng.random() * len(options))]


def _exp(x: float, cause: str) -> float:
    """``math.exp(x)``; a result beyond the largest float fails naming ``cause``."""
    try:
        if (value := math.exp(x)) < math.inf:  # not from an exponent that is inf or nan
            return value
    except OverflowError:
        pass
    raise SynthParamsError(f"{cause} beyond the largest float")


def _layout(params: SynthParams) -> tuple[list[str], list[str], dict[str, str]]:
    """The generated university ids, area ids and ``{sds: area}`` sector map."""
    areas = [f"A{i:02d}" for i in range(1, params.n_areas + 1)]
    sectors = {f"{area}S{j:02d}": area for area in areas
               for j in range(1, params.sds_per_area + 1)}
    return [f"U{i:03d}" for i in range(1, params.n_universities + 1)], areas, sectors


def _check_params(params: SynthParams) -> None:
    counts = ("n_universities", "n_areas", "sds_per_area", "years")
    for name in counts:
        if getattr(params, name) < 1:
            raise SynthParamsError(f"{name} must be at least 1, got {getattr(params, name)}")
    if (rows := math.prod(getattr(params, name) for name in counts)) > MAX_STAFF_ROWS:
        raise SynthParamsError(
            f"{' * '.join(counts)} gives {rows} staff rows, above {MAX_STAFF_ROWS}")
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
        if not abs(value) <= sys.float_info.max:  # also an integer no float can hold
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
    sizes = {f"staff_range[{i}]": bound for i, bound in enumerate(params.staff_range)}
    sizes |= {f"staff_overrides[{univ}]": head for univ, head in params.staff_overrides.items()}
    for name, size in sizes.items():
        if size >= sys.maxsize:  # a headcount range needs a length, head * rate a float
            raise SynthParamsError(f"{name} must be below {sys.maxsize}, got {size}")
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
    the JSON object in ``params_path`` if given (it may not name the seed)."""
    if params_path is None:
        return SynthParams(seed=seed)
    try:
        raw = json.loads(params_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise SynthParamsError(f"{params_path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SynthParamsError("params file must hold a JSON object")
    if "seed" in raw:  # the seed is --seed's alone, so the manifest records the one used
        raise SynthParamsError("unknown key 'seed'")
    return _from_json({"seed": seed} | raw, SynthParams, "")


_JSON_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"),
                 str: (str, "a string")}


def _from_json(value, kind, key: str):
    """``value``, read from JSON, as a ``kind``: a dataclass or ``dict[str, T]``
    from an object, a tuple from a list, else an int, float or str.  A value
    of the wrong type, or a missing or unknown field, fails naming its key
    (``_check_params`` rejects a non-finite number, which JSON allows)."""
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
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise SynthParamsError(f"{key} must be {what}, got {value!r}")
    return value


def _standardized(values: list[float]) -> list[float]:
    """``values`` centred and scaled to a population standard deviation of 1."""
    mean = math.fsum(values) / len(values)
    centred = [v - mean for v in values]
    std = math.sqrt(math.fsum(c * c for c in centred) / len(values))
    if std == 0:
        raise SynthParamsError("degenerate driver draw; change the seed")
    return [c / std for c in centred]


def _planted_drivers(
    params: SynthParams, assoc: PlantedAssociation, universities: list[str]
) -> tuple[dict[str, float], dict[str, float], float | None]:
    """Per-university (collaboration share, productivity multiplier) with an
    exact sample correlation between the underlying drivers."""
    streams = [_rng(params.seed, "plant", assoc.area, univ) for univ in universities]
    draws = [(_normal(rng), _normal(rng)) for rng in streams]
    xhat = _standardized([a for a, _ in draws])
    e = _standardized([b for _, b in draws])
    slope = math.fsum(a * b for a, b in zip(e, xhat)) / len(xhat)  # len = xhat's sum of squares
    ehat = _standardized([a - slope * b for a, b in zip(e, xhat)])
    y = [assoc.r * a + math.sqrt(1.0 - assoc.r**2) * b for a, b in zip(xhat, ehat)]
    rng = _rng(params.seed, "plant-noise", assoc.area)
    y = [v + assoc.noise * _normal(rng) for v in y]

    shares = [min(max(X_CENTER + X_AMPLITUDE * v, 0.03), 0.97) for v in xhat]
    multipliers = [min(max(1.0 + Y_AMPLITUDE * v, 0.15), 1.85) for v in y]
    fit = associate(shares, multipliers)  # None if clipping left a side constant
    return dict(zip(universities, shares)), dict(zip(universities, multipliers)), fit and fit.r


def _quota(rng: random.Random, n: int, q: float) -> list[bool]:
    """A mask over n publications with round(q*n) of them set: the indices
    with the smallest ``random()`` keys."""
    members = [False] * n
    k = round(q * n)
    if k:
        draw = rng.random
        keys = [draw() for _ in range(n)]
        for i in sorted(range(n), key=keys.__getitem__)[:k]:
            members[i] = True
    return members


def generate_corpus(params: SynthParams) -> SynthResult:
    """Build a synthetic corpus plus its ground-truth manifest."""
    _check_params(params)
    seed = params.seed
    config = CorpusConfig()  # the default home country, and the first year of its period
    period = (config.period[0], config.period[0] + params.years - 1)
    years = tuple(range(period[0], period[1] + 1))  # _pick returns one shared int per year
    universities, areas, sector_entries = _layout(params)
    sectors = sorted(sector_entries)

    organizations = {
        univ: Organization(univ, f"University {i}", OrgClass.UNIV_DOMESTIC, config.home_country)
        for i, univ in enumerate(universities, start=1)
    }
    external_pools: dict[str, list[str]] = {}  # the partner classes after other_university
    for name, prefix, size, label, org_class in (
        ("dpr", "DPR", 6, "Research Institution", OrgClass.DPR_DOMESTIC),
        ("enterprise", "ENT", 6, "Enterprise", OrgClass.ENTERPRISE_DOMESTIC),
        ("foreign", "FOR", 10, "Foreign Organization", OrgClass.FOREIGN),
    ):
        external_pools[name] = [f"{prefix}{i:02d}" for i in range(1, size + 1)]
        for i, oid in enumerate(external_pools[name]):
            country = (FOREIGN_COUNTRIES[i % len(FOREIGN_COUNTRIES)]
                       if org_class is OrgClass.FOREIGN else config.home_country)
            organizations[oid] = Organization(oid, f"{label} {i + 1}", org_class, country)

    mu0, sigma = params.if_lognormal
    journals: dict[str, dict[int, float]] = {}
    journals_by_sds: dict[str, list[str]] = {}
    for sds in sectors:
        mu = mu0 + params.sector_if_spread * _normal(_rng(seed, "sector-if", sds))
        ids = [f"{sds}J{j}" for j in range(1, JOURNALS_PER_SDS + 1)]
        journals_by_sds[sds] = ids
        for jid in ids:
            rng = _rng(seed, "journal", jid)
            cause = f"if_lognormal and sector_if_spread give journal {jid} an impact factor"
            journals[jid] = {year: max(round(_exp(mu + sigma * _normal(rng), cause), 4), 0.0001)
                             for year in years}

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
    headcounts = range(params.staff_range[0], params.staff_range[1] + 1)
    sectors_of = {area: [sds for sds in sectors if sector_entries[sds] == area] for area in areas}
    staff_entries: dict[tuple[str, str], dict[int, int]] = {}
    year_maps: dict[int, dict[int, int]] = {}  # headcount -> its one read-only year map
    org_sets: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct set
    publications: list[Publication] = []
    for u, univ in enumerate(universities):
        for area in areas:
            rng = _rng(seed, "area", univ, area)
            assoc, shares, planted_prod = planted.get(area, (None, {}, {}))
            prod = planted_prod[univ] if assoc else _exp(
                params.productivity_spread * _normal(rng),
                f"productivity_spread gives {univ}/{area} a productivity multiplier")
            collab_mult = 1.0
            if params.collab_variation > 0:
                collab_mult = _exp(
                    params.collab_variation * _normal(rng),
                    f"collab_variation gives {univ}/{area} a collaboration multiplier")
            pps = params.pubs_per_staff_mean * prod
            draw = rng.random  # each pick below is _pick's, inlined: seq[int(draw() * len)]

            for sds in sectors_of[area]:
                head = params.staff_overrides.get(univ)
                if head is None:
                    head = _pick(rng, headcounts)
                if (heads := year_maps.get(head)) is None:
                    heads = year_maps[head] = dict.fromkeys(years, head)
                staff_entries[(univ, sds)] = heads
                if not head * pps < sys.maxsize:  # a cell's count must fit in an index
                    raise SynthParamsError(
                        f"pubs_per_staff_mean and productivity_spread give {univ}/{sds} "
                        f"{head * pps} publications, not below {sys.maxsize}")
                n = round(head * pps)

                base = params.sds_propensity_overrides.get(
                    sds, params.area_propensity_overrides.get(area, params.collab_propensities)
                )
                flags: dict[str, list[bool]] = {}
                if assoc is not None and assoc.x_metric == "CI_share":
                    extramural = _quota(rng, n, shares[univ])
                    for name in CLASS_ORDER:
                        w = min(getattr(base, name) / X_CENTER, 1.0)
                        flags[name] = [e and draw() < w for e in extramural]
                    # a quota-extramural publication that drew no class gets the first class
                    # of highest propensity (planting needs 3 universities: every class has peers)
                    fallback = flags[max(CLASS_ORDER, key=lambda c: getattr(base, c))]
                    for i, e in enumerate(extramural):
                        if e and not any(flags[name][i] for name in CLASS_ORDER):
                            fallback[i] = True
                else:
                    planted_class = assoc and dict(FCI="foreign", DCI="enterprise")[assoc.x_metric]
                    for name in CLASS_ORDER:
                        if name == planted_class:
                            q = shares[univ]
                        elif name == "other_university" and no_peers:
                            q = 0.0
                        else:
                            q = min(getattr(base, name) * collab_mult, 0.97)
                        flags[name] = _quota(rng, n, q)

                sds_journals = journals_by_sds[sds]
                cell_years = [years[int(draw() * len(years))] for _ in range(n)]
                cell_journals = [sds_journals[int(draw() * JOURNALS_PER_SDS)] for _ in range(n)]
                credit = (Attribution(univ, sds),)
                prefix = f"{univ}-{sds}-"
                peer_flags = flags["other_university"]
                external = [(flags[name], pool, len(pool))
                            for name, pool in external_pools.items()]
                for i, (year, journal_id) in enumerate(zip(cell_years, cell_journals)):
                    members = [univ]
                    if peer_flags[i]:  # a pick from the others, without a copy
                        j = int(draw() * (len(universities) - 1))
                        members.append(universities[j + (j >= u)])
                    members += [pool[int(draw() * size)] for flag, pool, size in external
                                if flag[i]]
                    org_ids = frozenset(members)
                    publications.append(Publication(
                        f"{prefix}{i + 1:04d}", year, journal_id,
                        org_sets.setdefault(org_ids, org_ids), credit))

    corpus = Corpus(
        publications=tuple(publications),
        organizations=organizations,
        journals=journals,
        staff=StaffRoster(entries=staff_entries),
        sectors=SectorMap(entries=sector_entries),
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


def write_synthetic(result: SynthResult, out_dir) -> dict[str, Path]:
    """Write the five corpus files plus the ground-truth manifest."""
    out = Path(out_dir)
    paths = write_corpus(result.corpus, out)
    paths["ground_truth"] = out / GROUND_TRUTH_FILENAME
    with open(paths["ground_truth"], "w", encoding="utf-8") as fh:
        json.dump(asdict(result.ground_truth), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
