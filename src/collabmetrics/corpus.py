"""Corpus model and I/O: publications, organizations, journals, staff, sectors.

Each record invariant has one check, in the loaders: they fail fast on the
first broken record, with its file, line and field.  The references across
files have one check, ``validate_corpus``, which a checked ``load_corpus``
and the ``validate`` command run after the loaders (a loader does not, so
that a broken corpus can still be inspected).  A corpus built in code is
checked by writing it with ``write_corpus`` and loading it.  The stage
tables (indicators.csv, aggregates.csv) share one strict reader,
``_read_stage_table``.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps' string encoder
from pathlib import Path
from typing import Iterable, KeysView, Mapping, get_type_hints


class CorpusError(Exception):
    """Base class for corpus construction and consistency failures."""


class CorpusLoadError(CorpusError):
    """A malformed input file; the message names its file, line and field."""

    def __init__(self, path, line: int | None, message: str, field: str | None = None):
        where = str(path) if line is None else f"{path}:{line}"
        if field:
            message = f"field '{field}': {message}"
        super().__init__(f"{where}: {message}")


class CorpusValidationError(CorpusError):
    """Raised when a checked load finds referential errors."""

    def __init__(self, report: "ValidationReport"):
        lines = [issue.describe() for issue in report.errors]
        super().__init__(
            "corpus failed validation with "
            f"{len(report.errors)} error(s):\n" + "\n".join(lines)
        )


class OrgClass(str, enum.Enum):
    UNIV_DOMESTIC = "UNIV_DOMESTIC"
    DPR_DOMESTIC = "DPR_DOMESTIC"
    ENTERPRISE_DOMESTIC = "ENTERPRISE_DOMESTIC"
    FOREIGN = "FOREIGN"


@dataclass(frozen=True)
class Organization:
    org_id: str
    name: str
    org_class: OrgClass
    country: str


@dataclass(frozen=True, slots=True)
class Attribution:
    """One (university, sector) credit line of a publication."""

    university: str
    sds: str


@dataclass(frozen=True, slots=True)
class Publication:
    pub_id: str
    year: int
    journal_id: str
    org_ids: frozenset[str]
    attributions: tuple[Attribution, ...]

    def sds_codes(self) -> tuple[str, ...]:
        """The distinct sectors the publication credits, sorted."""
        atts = self.attributions
        if len(atts) == 1:
            return (atts[0].sds,)
        return tuple(sorted({a.sds for a in atts}))


@dataclass(frozen=True)
class StaffRoster:
    """Headcounts ``{(university, sds): {year: headcount}}``, as of 31 Dec of year-1."""

    entries: Mapping[tuple[str, str], Mapping[int, int]]

    def period_average(self, university: str, sds: str, period: tuple[int, int]) -> float:
        """Mean yearly headcount over the period; missing years count as 0."""
        heads = self.entries.get((university, sds), {})
        total = 0
        for year in range(period[0], period[1] + 1):
            total += heads.get(year, 0)
        return total / (period[1] - period[0] + 1)

    def pairs(self) -> KeysView[tuple[str, str]]:
        """The (university, sds) pairs with a roster entry: the keys."""
        return self.entries.keys()


@dataclass(frozen=True)
class SectorMap:
    """Assignment of disciplinary sectors (SDS) to macro areas."""

    entries: Mapping[str, str]

    def area_of(self, sds: str) -> str:
        return self.entries[sds]

    def areas(self) -> list[str]:
        return sorted(set(self.entries.values()))

    def sds_in_area(self, area: str) -> list[str]:
        return sorted(s for s, a in self.entries.items() if a == area)


@dataclass(frozen=True)
class Corpus:
    """The cross-linked input files.

    Three facts are derived once and cached: ``profiles`` (collaboration
    class of each publication, classified once per distinct organization
    set, so equal sets share one profile), ``publications_by_sds`` and
    ``normalized_ifs`` (sector-normalized impact factors).  Each depends
    only on fields that never change, so a cached value cannot go stale
    (``dataclasses.replace`` gives a fresh cache).  They assume a corpus
    that passed ``validate_corpus``: a broken reference raises ``KeyError``.
    """

    publications: tuple[Publication, ...]
    organizations: Mapping[str, Organization]
    journals: Mapping[str, Mapping[int, float]]  # journal id -> {year: impact factor}
    staff: StaffRoster
    sectors: SectorMap
    period: tuple[int, int]

    @cached_property
    def profiles(self) -> tuple[CollabProfile, ...]:
        """Collaboration profile of each publication, in input order."""
        by_org_set: dict[frozenset[str], CollabProfile] = {}
        for pub in self.publications:
            if pub.org_ids not in by_org_set:
                by_org_set[pub.org_ids] = classify_collaboration(pub, self.organizations)
        return tuple([by_org_set[pub.org_ids] for pub in self.publications])

    @cached_property
    def publications_by_sds(self) -> dict[str, list[Publication]]:
        """Publications of each sector (a publication once per sector it
        credits), sectors in order of first appearance."""
        out: dict[str, list[Publication]] = {}
        for pub in self.publications:
            for sds in pub.sds_codes():
                out.setdefault(sds, []).append(pub)
        return out

    @cached_property
    def normalized_ifs(self) -> dict[str, dict[tuple[str, int], float]]:
        """Impact factor of each (journal, year) used in each sector,
        divided by the publication-weighted sector mean, so the mean
        normalized value over the sector's publications is one."""
        table = {}
        for sds, pubs in self.publications_by_sds.items():
            keys = [(p.journal_id, p.year) for p in pubs]
            raws = {key: self.journals[key[0]][key[1]] for key in dict.fromkeys(keys)}
            try:
                # exact summation keeps the result independent of publication order
                mean = math.fsum(map(raws.__getitem__, keys)) / len(keys)
            except OverflowError as exc:  # finite impact factors too large to add up
                raise CorpusError(f"sector '{sds}', impact factor mean: {exc}") from None
            if mean == 0.0:
                raise CorpusError(f"sector '{sds}': all impact factors are zero, "
                                  "normalization undefined")
            table[sds] = {key: raw / mean for key, raw in raws.items()}
        return table


@dataclass(frozen=True)
class CorpusConfig:
    home_country: str = "IT"
    period: tuple[int, int] = (2001, 2003)

    def __post_init__(self):
        if self.period[0] > self.period[1]:
            raise ValueError(f"empty period {self.period}")


@dataclass(frozen=True, slots=True)
class CollabProfile:
    """Collaboration classification of one publication.  Every flag is
    viewpoint-free: ``has_other_university`` (two or more ``UNIV_DOMESTIC``
    organizations) means another domestic university to each one credited,
    since ``_check_publication`` puts a credited university in the set and
    ``validate_corpus`` checks that it is ``UNIV_DOMESTIC``."""

    is_extramural: bool
    has_other_university: bool
    has_dpr: bool
    has_foreign: bool
    has_domestic_enterprise: bool


def classify_collaboration(
    pub: Publication, organizations: Mapping[str, Organization]
) -> CollabProfile:
    """Collaboration flags of a publication in a corpus that passed
    ``validate_corpus``; an unknown organization raises ``KeyError``."""
    classes = []
    for oid in pub.org_ids:
        classes.append(organizations[oid].org_class)
    return CollabProfile(
        is_extramural=len(pub.org_ids) >= 2,
        has_other_university=classes.count(OrgClass.UNIV_DOMESTIC) >= 2,
        has_dpr=OrgClass.DPR_DOMESTIC in classes,
        has_foreign=OrgClass.FOREIGN in classes,
        has_domestic_enterprise=OrgClass.ENTERPRISE_DOMESTIC in classes,
    )


# ---------------------------------------------------------------------------
# Record invariants: the checks the loaders share, each raising a load error
# at its record's line


def _check_year(path, lineno: int, year: int, period: tuple[int, int]) -> None:
    if not period[0] <= year <= period[1]:
        raise CorpusLoadError(path, lineno, f"year {year} outside period {period[0]}-{period[1]}",
                              "year")


def _check_publication(path, lineno: int, pub: Publication, period: tuple[int, int],
                       seen: set[str]) -> None:
    """Check one publication; ``seen`` holds the ids of the publications
    before it and gains this one."""
    _check_year(path, lineno, pub.year, period)
    if pub.pub_id in seen:
        raise CorpusLoadError(path, lineno, f"duplicate publication id '{pub.pub_id}'", "id")
    seen.add(pub.pub_id)
    if not pub.org_ids:
        raise CorpusLoadError(path, lineno, "empty organization set", "orgs")
    if not pub.attributions:
        raise CorpusLoadError(path, lineno, "empty attribution list", "attributions")
    if len(pub.attributions) > 1:
        pairs = set()
        for att in pub.attributions:
            if (att.university, att.sds) in pairs:
                raise CorpusLoadError(path, lineno, f"duplicate attribution "
                                      f"({att.university}, {att.sds})", "attributions")
            pairs.add((att.university, att.sds))
    for att in pub.attributions:
        if att.university not in pub.org_ids:
            raise CorpusLoadError(path, lineno, f"attributed university '{att.university}' "
                                  "missing from organization set", "attributions")


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    location: str
    message: str

    def describe(self) -> str:
        return f"[{self.severity}] {self.location}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


# One row per reference across files, in report order: (severity, location,
# message).  Both are formatted with the faulty key's parts; the message also
# with ``n``, the number of records that hold the reference.
_REFERENCES = (
    ("error", "journals[{0}]", "dangling journal_id referenced by {n} publication(s)"),
    ("error", "organizations[{0}]", "dangling org_id referenced by {n} publication(s)"),
    ("error", "organizations[{0}]", "dangling university id in {n} attribution(s)"),
    ("error", "organizations[{0}]", "university in {n} attribution(s) has class {1}"),
    ("error", "organizations[{0}]", "dangling university id in {n} roster sector(s)"),
    ("error", "organizations[{0}]", "university in {n} roster sector(s) has class {1}"),
    ("error", "sectors[{0}]", "dangling sds referenced by {n} record(s)"),
    ("error", "journals[{0}]", "missing impact factor for year {1} ({n} publication(s))"),
    ("warning", "staff[{0},{1}]", "attribution without roster entry ({n} publication(s))"),
)
(_JOURNAL, _ORG, _UNIVERSITY, _CLASS, _STAFF_UNIVERSITY, _STAFF_CLASS, _SDS, _IMPACT,
 _ROSTER) = range(len(_REFERENCES))


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check the references across files, and that every sector's impact
    factors normalize.  The loaders have checked each record, so a checked
    ``load_corpus`` and the ``validate`` command run these checks alone.

    Faulty references are aggregated one issue per key (with a reference
    count) so one broken registry row yields one error.
    """
    issues: list[ValidationIssue] = []
    # (reference row, faulty key) -> number of records holding the reference
    faults: Counter[tuple[int, tuple]] = Counter()
    pubs = corpus.publications
    pubs_by_org_set = Counter(pub.org_ids for pub in pubs)
    # (university, sds) -> attributions
    attributions = Counter((att.university, att.sds) for pub in pubs for att in pub.attributions)
    roster_pairs = corpus.staff.pairs()
    organizations, sectors = corpus.organizations, corpus.sectors.entries

    for (_u, sds), heads in corpus.staff.entries.items():
        if sds not in sectors:
            faults[_SDS, (sds,)] += len(heads)  # staff rows, as the message says

    for pub in pubs:
        impacts = corpus.journals.get(pub.journal_id)
        if impacts is None:
            faults[_JOURNAL, (pub.journal_id,)] += 1
        elif pub.year not in impacts:
            faults[_IMPACT, (pub.journal_id, pub.year)] += 1

    attributed: Counter[str] = Counter()  # university -> attributions
    for (univ, sds), count in attributions.items():
        attributed[univ] += count
        if sds not in sectors:
            faults[_SDS, (sds,)] += count
        elif (univ, sds) not in roster_pairs:
            faults[_ROSTER, (univ, sds)] += count
    # each university is reported once: by its attributions, else by its roster sectors
    rostered = Counter(univ for univ, _sds in roster_pairs if univ not in attributed)
    for (dangling, misclassed), counts in (((_UNIVERSITY, _CLASS), attributed),
                                           ((_STAFF_UNIVERSITY, _STAFF_CLASS), rostered)):
        for univ, count in counts.items():
            org = organizations.get(univ)
            if org is None:
                faults[dangling, (univ,)] += count
            elif org.org_class is not OrgClass.UNIV_DOMESTIC:
                faults[misclassed, (univ, org.org_class.value)] += count

    for org_ids, count in pubs_by_org_set.items():
        for oid in org_ids:
            if oid not in organizations:
                faults[_ORG, (oid,)] += count

    for (ref, key), count in sorted(faults.items()):
        severity, location, message = _REFERENCES[ref]
        issues.append(
            ValidationIssue(severity, location.format(*key), message.format(*key, n=count))
        )
    if not any(ref in (_JOURNAL, _IMPACT) for ref, _key in faults):
        try:
            corpus.normalized_ifs  # cached: the indicators and reports use it next
        except CorpusError as exc:  # an all-zero or overflowing sector mean
            issues.append(ValidationIssue("error", "journals", str(exc)))
    return ValidationReport(issues=tuple(issues))


# ---------------------------------------------------------------------------
# Loading

PUBLICATION_FIELDS = ("id", "year", "journal", "orgs", "attributions")
ORG_HEADER = ["org_id", "name", "class", "country"]
JOURNAL_HEADER = ["journal_id", "year", "impact_factor"]
STAFF_HEADER = ["university", "sds", "year", "headcount"]
SECTOR_HEADER = ["sds", "area"]


def _read_csv(path, expected_header: list[str]):
    """Yield (line_number, row) for a strict-header CSV file; a row's line is
    its first, also when a quoted field spans several; a parse failure (such
    as a field over the csv size limit) is a load error where the reader stopped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(_utf8_lines(path, fh))
        try:
            header = next(reader, None)
            if header is None:
                raise CorpusLoadError(path, 1, "missing header row")
            if header != expected_header:
                raise CorpusLoadError(
                    path, 1, f"expected header {','.join(expected_header)}, got {','.join(header)}"
                )
            end = reader.line_num  # the last line read
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise CorpusLoadError(
                        path, lineno, f"expected {len(expected_header)} fields, got {len(row)}"
                    )
                yield lineno, row
        except csv.Error as exc:
            raise CorpusLoadError(path, reader.line_num, str(exc)) from None


def _utf8_lines(path, fh):
    """The lines of ``fh``, with a decoding failure raised as a load error
    at the first line of ``path`` that is not valid UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
            line = None  # the file changed since it was read
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusLoadError(path, line, "not valid UTF-8") from None


def _parse_int(path, lineno, field_name, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CorpusLoadError(path, lineno, f"not an integer: {raw!r}", field_name) from None


def _cell(value) -> str:
    """A stage-table cell: full precision, undefined written empty."""
    return "" if value is None else repr(value)


def _read_stage_table(path, header: list[str], row_type: type):
    """Yield (line_number, row, record) for a stage table (indicators.csv,
    aggregates.csv).  The text cells before the numeric columns are
    non-empty, and their first two are a key that no row repeats.

    ``record`` is a ``row_type`` built from that key and the numeric
    columns: the fields after its two key fields, in row order, each
    annotated ``int``, ``float`` or ``float | None`` (undefined, written
    empty; the inverse of ``_cell``).  nan, inf and negative numbers are
    rejected: the writers emit only counts, staff, sums of non-negative
    terms and ratios of these."""
    kinds = {name: kind if kind in (int, float) else None
             for name, kind in list(get_type_hints(row_type).items())[2:]}
    start = header.index(next(iter(kinds)))
    numeric = slice(start, start + len(kinds))
    keys: set[tuple[str, str]] = set()
    for lineno, row in _read_csv(path, header):
        for name, cell in zip(header[:start], row):
            if not cell:
                raise CorpusLoadError(path, lineno, f"column '{name}': empty")
        if (row[0], row[1]) in keys:
            raise CorpusLoadError(path, lineno, f"duplicate row for {row[0]}/{row[1]}")
        keys.add((row[0], row[1]))
        numbers = []
        for (name, kind), cell in zip(kinds.items(), row[numeric]):
            if kind is None and cell == "":
                numbers.append(None)
                continue
            try:
                value = (kind or float)(cell)
            except ValueError:
                value = math.nan
            if not 0 <= value < math.inf:
                if not math.isfinite(value):  # unparsable, nan or inf
                    raise CorpusLoadError(path, lineno, f"column '{name}': not a number: {cell!r}")
                raise CorpusLoadError(path, lineno, f"column '{name}': negative number: {cell!r}")
            numbers.append(value)
        yield lineno, row, row_type(row[0], row[1], *numbers)


_raw_decode = json.JSONDecoder().raw_decode


def load_organizations(path, home_country: str) -> dict[str, Organization]:
    orgs: dict[str, Organization] = {}
    for lineno, (org_id, name, raw_class, country) in _read_csv(path, ORG_HEADER):
        if not org_id:
            raise CorpusLoadError(path, lineno, "empty org_id", "org_id")
        if org_id in orgs:
            raise CorpusLoadError(path, lineno, f"duplicate org_id '{org_id}'", "org_id")
        try:
            org_class = OrgClass(raw_class)
        except ValueError:
            raise CorpusLoadError(
                path, lineno, f"unknown organization class {raw_class!r}", "class"
            ) from None
        if (org_class is OrgClass.FOREIGN) != (country != home_country):
            raise CorpusLoadError(path, lineno, f"class {org_class.value} inconsistent with "
                                  f"country '{country}' (home country '{home_country}')", "class")
        orgs[org_id] = Organization(org_id, name, org_class, country)
    return orgs


def load_journals(path) -> dict[str, dict[int, float]]:
    by_journal: dict[str, dict[int, float]] = {}
    for lineno, (journal_id, raw_year, raw_if) in _read_csv(path, JOURNAL_HEADER):
        if not journal_id:
            raise CorpusLoadError(path, lineno, "empty journal_id", "journal_id")
        year = _parse_int(path, lineno, "year", raw_year)
        try:
            impact = float(raw_if)
        except ValueError:
            raise CorpusLoadError(
                path, lineno, f"not a number: {raw_if!r}", "impact_factor"
            ) from None
        if not 0 <= impact < math.inf:  # negative, nan or inf
            raise CorpusLoadError(path, lineno, f"negative or non-finite impact factor {impact} "
                                  f"for year {year}", "impact_factor")
        years = by_journal.setdefault(journal_id, {})
        if year in years:
            raise CorpusLoadError(
                path, lineno, f"duplicate row for journal '{journal_id}' year {year}"
            )
        years[year] = impact
    return by_journal


def load_staff(path, period: tuple[int, int]) -> StaffRoster:
    """The roster of ``path``; equal university and sds strings, years (parsed
    once per distinct text) and ``{year: headcount}`` maps are each one object."""
    entries: dict[tuple[str, str], dict[int, int]] = {}
    years: dict[str, int] = {}  # a raw year text -> its int
    names: dict[str, str] = {}
    for lineno, (university, sds, raw_year, raw_head) in _read_csv(path, STAFF_HEADER):
        year = years.get(raw_year)
        if year is None:  # a failed parse is not cached: a later bad row fails at its line
            year = years[raw_year] = _parse_int(path, lineno, "year", raw_year)
        headcount = _parse_int(path, lineno, "headcount", raw_head)
        _check_year(path, lineno, year, period)
        if headcount < 0:
            raise CorpusLoadError(path, lineno, f"non-integer or negative headcount {headcount!r}",
                                  "headcount")
        if headcount > sys.float_info.max:  # its period average could not be a float
            raise CorpusLoadError(path, lineno, "headcount too large for a float", "headcount")
        heads = entries.get((university, sds))
        if heads is None:
            university, sds = names.setdefault(university, university), names.setdefault(sds, sds)
            heads = entries[university, sds] = {}
        if year in heads:
            raise CorpusLoadError(path, lineno,
                                  f"duplicate staff row for {university}/{sds}/{year}")
        heads[year] = headcount
    maps: dict[frozenset[tuple[int, int]], dict[int, int]] = {}  # contents -> shared map
    return StaffRoster(entries={pair: maps.setdefault(frozenset(heads.items()), heads)
                                for pair, heads in entries.items()})


def load_sectors(path) -> SectorMap:
    entries: dict[str, str] = {}
    for lineno, (sds, area) in _read_csv(path, SECTOR_HEADER):
        if not sds:
            raise CorpusLoadError(path, lineno, "empty sds", "sds")
        if sds in entries:
            raise CorpusLoadError(path, lineno, f"duplicate sds '{sds}'", "sds")
        if not area:
            raise CorpusLoadError(path, lineno, "empty area", "area")
        entries[sds] = area
    return SectorMap(entries=entries)


def load_publications(path, period: tuple[int, int]) -> tuple[Publication, ...]:
    """The publications of ``path``; equal years, ids (journal, organization
    and sds), organization sets and attributions are each one shared object,
    and so are equal one-attribution tuples (taken from the attribution's own lookup)."""
    pubs: list[Publication] = []
    seen_ids: set[str] = set()
    years: dict[int, int] = {}
    names: dict[str, str] = {}  # journal, organization and sds ids
    shared: dict[tuple[str, str], tuple[Attribution]] = {}  # a pair -> its one-tuple
    org_sets: dict[frozenset[str], frozenset[str]] = {}
    org_lists: dict[tuple, frozenset[str]] = {}  # a checked org list -> its shared set
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_utf8_lines(path, fh), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _raw_decode(line)
            except (ValueError, RecursionError):
                end = 0
            if end < len(line):
                # json.loads' own error: raw_decode neither rejects a leading BOM
                # nor looks past the first value
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
                    message = getattr(exc, "msg", exc)  # a JSONDecodeError's, with no position
                    raise CorpusLoadError(path, lineno, f"invalid JSON: {message}") from None
            # the decoder builds exact dicts, lists, strs and ints, so type() tests
            # agree with isinstance (a bool is not an int here)
            if type(obj) is not dict:
                raise CorpusLoadError(path, lineno, "expected a JSON object")
            try:
                pub_id, year, journal = obj["id"], obj["year"], obj["journal"]
                orgs, raw_atts = obj["orgs"], obj["attributions"]
            except KeyError:
                missing = next(key for key in PUBLICATION_FIELDS if key not in obj)
                raise CorpusLoadError(path, lineno, "missing field", missing) from None

            if type(pub_id) is not str or not pub_id:
                raise CorpusLoadError(path, lineno, "must be a non-empty string", "id")
            if type(year) is not int:
                raise CorpusLoadError(path, lineno, "must be an integer", "year")
            if type(journal) is not str or not journal:
                raise CorpusLoadError(path, lineno, "must be a non-empty string", "journal")
            year, journal = years.setdefault(year, year), names.setdefault(journal, journal)

            if type(orgs) is not list:
                raise CorpusLoadError(path, lineno, "must be a list of strings", "orgs")
            try:
                org_ids = org_lists.get(tuple(orgs))
            except TypeError:  # an unhashable element
                org_ids = None
            if org_ids is None:
                if not all(type(o) is str for o in orgs):
                    raise CorpusLoadError(path, lineno, "must be a list of strings", "orgs")
                orgs = [names.setdefault(oid, oid) for oid in orgs]
                org_ids = frozenset(orgs)
                if len(org_ids) != len(orgs):
                    raise CorpusLoadError(path, lineno, "duplicate organization ids", "orgs")
                org_ids = org_lists[tuple(orgs)] = org_sets.setdefault(org_ids, org_ids)

            if type(raw_atts) is not list:
                raise CorpusLoadError(path, lineno, "must be a list", "attributions")
            attributions = []
            for raw in raw_atts:
                if (
                    type(raw) is not dict
                    or type(university := raw.get("university")) is not str
                    or type(sds := raw.get("sds")) is not str
                ):
                    raise CorpusLoadError(
                        path,
                        lineno,
                        "each attribution needs string fields 'university' and 'sds'",
                        "attributions",
                    )
                one = shared.get((university, sds))
                if one is None:
                    university = names.setdefault(university, university)
                    sds = names.setdefault(sds, sds)
                    one = shared[university, sds] = (Attribution(university, sds),)
                attributions += one

            atts = one if len(attributions) == 1 else tuple(attributions)
            pub = Publication(pub_id, year, journal, org_ids, atts)
            _check_publication(path, lineno, pub, period, seen_ids)
            pubs.append(pub)
    return tuple(pubs)


def load_corpus(
    pub_path,
    org_path,
    journal_path,
    staff_path,
    sector_path,
    config: CorpusConfig = CorpusConfig(),
    *,
    check: bool = True,
) -> Corpus:
    """Load and cross-link the five input files into a Corpus.

    The loaders raise on the first record that breaks an invariant.  With
    ``check`` (the default) ``validate_corpus`` then checks the references
    across files and a ``CorpusValidationError`` is raised on any error it
    reports; with ``check=False`` the possibly-inconsistent corpus is
    returned for the ``validate`` command to report on.
    """
    corpus = Corpus(
        publications=load_publications(pub_path, config.period),
        organizations=load_organizations(org_path, config.home_country),
        journals=load_journals(journal_path),
        staff=load_staff(staff_path, config.period),
        sectors=load_sectors(sector_path),
        period=config.period,
    )
    if check:
        report = validate_corpus(corpus)
        if not report.ok:
            raise CorpusValidationError(report)
    return corpus


# ---------------------------------------------------------------------------
# Writing (canonical forms; loading then re-writing is byte-stable).  The
# publications writer emits json.dumps' default layout, ASCII escapes
# included, itself: these two templates and json.dumps' string encoder.

_PUBLICATION_LINE = '{"id": %s, "year": %d, "journal": %s, "orgs": [%s], "attributions": [%s]}\n'
_ATTRIBUTION = '{"university": %s, "sds": %s}'

CORPUS_FILENAMES = {
    "publications": "publications.jsonl",
    "organizations": "organizations.csv",
    "journals": "journals.csv",
    "staff": "staff.csv",
    "sectors": "sectors.csv",
}


def _write_csv(path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Write the five corpus files in canonical order; returns their paths.

    A publications.jsonl line is byte for byte ``json.dumps`` of its record;
    a run of publications that share one attributions tuple formats it once."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in CORPUS_FILENAMES.items()}

    with open(paths["publications"], "w", encoding="utf-8", newline="") as fh:
        shared = None  # the last attributions tuple, formatted once per run of publications
        for pub in corpus.publications:
            if pub.attributions is not shared:
                shared = pub.attributions
                credits = ", ".join(_ATTRIBUTION % (_json_str(a.university), _json_str(a.sds))
                                    for a in shared)
            fh.write(_PUBLICATION_LINE % (
                _json_str(pub.pub_id), pub.year, _json_str(pub.journal_id),
                ", ".join(map(_json_str, sorted(pub.org_ids))), credits))

    _write_csv(
        paths["organizations"],
        ORG_HEADER,
        [
            [org.org_id, org.name, org.org_class.value, org.country]
            for org in sorted(corpus.organizations.values(), key=lambda o: o.org_id)
        ],
    )
    _write_csv(
        paths["journals"],
        JOURNAL_HEADER,
        (
            [jid, year, repr(impact)]
            for jid in sorted(corpus.journals)
            for year, impact in sorted(corpus.journals[jid].items())
        ),
    )
    _write_csv(
        paths["staff"],
        STAFF_HEADER,
        (
            [univ, sds, year, head]
            for (univ, sds), heads in sorted(corpus.staff.entries.items())
            for year, head in sorted(heads.items())
        ),
    )
    _write_csv(
        paths["sectors"],
        SECTOR_HEADER,
        [[sds, area] for sds, area in sorted(corpus.sectors.entries.items())],
    )
    return paths
