"""Independent brute-force oracles and random corpus builders.

Everything here recomputes results from first principles with its own
code paths (plain loops, no reuse of the library's accumulation
logic), so agreement with the library is a real check.
"""

from __future__ import annotations

import math
import random

from collabmetrics.corpus import (
    Attribution,
    Corpus,
    Organization,
    OrgClass,
    Publication,
    SectorMap,
    StaffRoster,
)


def make_random_corpus(rng: random.Random, max_pubs: int = 50) -> Corpus:
    """A small random but structurally valid corpus."""
    period = (2001, 2003)
    years = list(range(period[0], period[1] + 1))

    universities = [f"U{i}" for i in range(rng.randint(2, 5))]
    organizations = {
        u: Organization(u, f"University {u}", OrgClass.UNIV_DOMESTIC, "IT")
        for u in universities
    }
    dpr_pool = [f"DPR{i}" for i in range(rng.randint(0, 2))]
    for oid in dpr_pool:
        organizations[oid] = Organization(oid, oid, OrgClass.DPR_DOMESTIC, "IT")
    ent_pool = [f"ENT{i}" for i in range(rng.randint(0, 2))]
    for oid in ent_pool:
        organizations[oid] = Organization(oid, oid, OrgClass.ENTERPRISE_DOMESTIC, "IT")
    foreign_pool = [f"FOR{i}" for i in range(rng.randint(0, 2))]
    for oid in foreign_pool:
        organizations[oid] = Organization(oid, oid, OrgClass.FOREIGN, "US")

    sds_codes = [f"S{i}" for i in range(rng.randint(1, 4))]
    sectors = SectorMap(entries={s: f"AR{i % 2}" for i, s in enumerate(sds_codes)})

    journal_ids = [f"J{i}" for i in range(rng.randint(2, 5))]
    journals = {
        jid: {y: round(rng.uniform(0.05, 8.0), 3) for y in years}
        for jid in journal_ids
    }

    staff_entries = {}
    for u in universities:
        for s in sds_codes:
            if rng.random() < 0.85:
                staff_entries[(u, s)] = {y: rng.randint(0, 12) for y in years}

    candidates = [(u, s) for u in universities for s in sds_codes]
    publications = []
    for k in range(rng.randint(1, max_pubs)):
        atts = rng.sample(candidates, rng.randint(1, min(2, len(candidates))))
        org_ids = {u for u, _s in atts}
        if len(universities) > 1 and rng.random() < 0.3:
            org_ids.add(rng.choice(universities))
        for pool, prob in ((dpr_pool, 0.25), (ent_pool, 0.15), (foreign_pool, 0.3)):
            if pool and rng.random() < prob:
                org_ids.add(rng.choice(pool))
        publications.append(
            Publication(
                pub_id=f"P{k}",
                year=rng.choice(years),
                journal_id=rng.choice(journal_ids),
                org_ids=frozenset(org_ids),
                attributions=tuple(Attribution(u, s) for u, s in atts),
            )
        )

    return Corpus(
        publications=tuple(publications),
        organizations=organizations,
        journals=journals,
        staff=StaffRoster(entries=staff_entries),
        sectors=sectors,
        period=period,
    )


def naive_indicator_oracle(corpus: Corpus) -> dict[tuple[str, str], dict]:
    """Per-cell indicator values by direct per-publication enumeration."""
    years = list(range(corpus.period[0], corpus.period[1] + 1))

    def raw_if(pub):
        return corpus.journals[pub.journal_id][pub.year]

    sector_raws: dict[str, list[float]] = {}
    for pub in corpus.publications:
        for sds in {a.sds for a in pub.attributions}:
            sector_raws.setdefault(sds, []).append(raw_if(pub))
    sector_mean = {s: sum(v) / len(v) for s, v in sector_raws.items()}

    cells = set()
    for pub in corpus.publications:
        for a in pub.attributions:
            cells.add((a.university, a.sds))
    for (u, s) in corpus.staff.entries:
        cells.add((u, s))

    def has_class(pub, wanted):
        return any(
            corpus.organizations[oid].org_class is wanted for oid in pub.org_ids
        )

    out = {}
    for (u, s) in cells:
        pubs = [
            p
            for p in corpus.publications
            if any(a.university == u and a.sds == s for a in p.attributions)
        ]
        n_out = len(pubs)
        fo = sum(1.0 / len(p.org_ids) for p in pubs)
        ss = sum(raw_if(p) / sector_mean[s] for p in pubs)
        fss = sum(raw_if(p) / sector_mean[s] / len(p.org_ids) for p in pubs)
        heads = corpus.staff.entries.get((u, s), {})
        staff = sum(heads.get(y, 0) for y in years) / len(years)

        n_ext = sum(1 for p in pubs if len(p.org_ids) > 1)
        n_uni = sum(
            1
            for p in pubs
            if any(
                oid != u
                and corpus.organizations[oid].org_class is OrgClass.UNIV_DOMESTIC
                for oid in p.org_ids
            )
        )
        n_dpr = sum(1 for p in pubs if has_class(p, OrgClass.DPR_DOMESTIC))
        n_for = sum(1 for p in pubs if has_class(p, OrgClass.FOREIGN))
        n_ent = sum(1 for p in pubs if has_class(p, OrgClass.ENTERPRISE_DOMESTIC))

        out[(u, s)] = {
            "O": n_out,
            "FO": fo,
            "SS": ss,
            "FSS": fss,
            "QI": ss / n_out if n_out else None,
            "staff": staff,
            "P": n_out / staff if staff > 0 else None,
            "FP": fo / staff if staff > 0 else None,
            "QP": ss / staff if staff > 0 else None,
            "FQP": fss / staff if staff > 0 else None,
            "CI_ratio": n_out / fo if fo > 0 else None,
            "CI_share": n_ext / n_out if n_out else None,
            "CI_UNI": n_uni / n_out if n_out else None,
            "CI_DPR": n_dpr / n_out if n_out else None,
            "FCI": n_for / n_out if n_out else None,
            "DCI": n_ent / n_out if n_out else None,
        }
    return out


def close_or_both_none(a, b, tol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def naive_crosstab_oracle(corpus: Corpus, quartile_scope: str) -> list[list[int]] | None:
    """Cross-tab counts (intramural, extramural, foreign, enterprise) per
    quality quartile, worst first, by plain loops; ``None`` when a per-sector
    quartile split has fewer than 4 publications."""

    def raw_if(pub):
        return corpus.journals[pub.journal_id][pub.year]

    sector_pubs: dict[str, list[Publication]] = {}
    for pub in corpus.publications:
        for sds in sorted({a.sds for a in pub.attributions}):
            sector_pubs.setdefault(sds, []).append(pub)
    sector_mean = {s: math.fsum(raw_if(p) for p in ps) / len(ps) for s, ps in sector_pubs.items()}

    def quartiles(values):
        ordered = sorted(values)
        n = len(ordered)
        cuts = [ordered[math.ceil(k * n / 4) - 1] for k in (1, 2, 3)]
        # a value tied with a cut goes to the lower bin
        return [1 + sum(1 for cut in cuts if cut < v) for v in values]

    bin_of: dict[str, int] = {}
    if quartile_scope == "global":
        values = []
        for pub in corpus.publications:
            codes = {a.sds for a in pub.attributions}
            values.append(math.fsum(raw_if(pub) / sector_mean[s] for s in codes) / len(codes))
        for pub, b in zip(corpus.publications, quartiles(values)):
            bin_of[pub.pub_id] = b
    else:
        for sds, pubs in sector_pubs.items():
            if len(pubs) < 4:
                return None
            bins = quartiles([raw_if(p) / sector_mean[sds] for p in pubs])
            for pub, b in zip(pubs, bins):
                if pub.attributions[0].sds == sds:
                    bin_of[pub.pub_id] = b

    counts = [[0, 0, 0, 0] for _ in range(4)]
    for pub in corpus.publications:
        classes = {corpus.organizations[oid].org_class for oid in pub.org_ids}
        row = counts[bin_of[pub.pub_id] - 1]
        if len(pub.org_ids) < 2:
            row[0] += 1
        else:
            row[1] += 1
            row[2] += OrgClass.FOREIGN in classes
            row[3] += OrgClass.ENTERPRISE_DOMESTIC in classes
    return counts


def naive_area_profile_oracle(corpus: Corpus) -> dict[str, dict]:
    """Per-area output and pooled collaboration shares by plain loops: a
    publication counts once in each area that one of its sectors belongs to."""
    out = {}
    for area in sorted(set(corpus.sectors.entries.values())):
        pubs = [
            p for p in corpus.publications
            if any(corpus.sectors.entries[a.sds] == area for a in p.attributions)
        ]

        def share(has):
            if not pubs:
                return None
            return sum(1 for p in pubs if has(p)) / len(pubs)

        def classes(pub):
            return [corpus.organizations[oid].org_class for oid in pub.org_ids]

        out[area] = {
            "output": len(pubs),
            "CI": share(lambda p: len(p.org_ids) > 1),
            "CI_UNI": share(lambda p: classes(p).count(OrgClass.UNIV_DOMESTIC) >= 2),
            "CI_DPR": share(lambda p: OrgClass.DPR_DOMESTIC in classes(p)),
            "FCI": share(lambda p: OrgClass.FOREIGN in classes(p)),
            "DCI": share(lambda p: OrgClass.ENTERPRISE_DOMESTIC in classes(p)),
        }
    return out
