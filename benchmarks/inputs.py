"""Workload inputs, built from the benchmark's seed.

Corpus M is the paper-scale synthetic system (about 48k publications,
one attribution each).  The co-authored variant adds the attribution
shapes synth never produces: publications credited to several
domestic universities and to several sectors.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from collabmetrics import corpus as corpus_mod
from collabmetrics import synth

M_PARAMS = dict(
    n_universities=70, n_areas=9, sds_per_area=20,
    staff_range=(0, 6), pubs_per_staff_mean=1.2,
)
SECOND_SECTOR_SHARE = 0.3


def paper_scale(seed: int) -> synth.SynthParams:
    return synth.SynthParams(seed=seed, **M_PARAMS)


def domestic_universities(corpus: corpus_mod.Corpus) -> set[str]:
    return {oid for oid, org in corpus.organizations.items()
            if org.org_class is corpus_mod.OrgClass.UNIV_DOMESTIC}


def coauthored(corpus: corpus_mod.Corpus, seed: int) -> corpus_mod.Corpus:
    """Credit every co-authoring domestic university in the home sector,
    and a second sector of the home area for SECOND_SECTOR_SHARE of the
    publications (credited to the home university only)."""
    rng = random.Random(f"coauthored:{seed}")
    pubs = corpus.publications
    second = set(rng.sample(range(len(pubs)), round(SECOND_SECTOR_SHARE * len(pubs))))
    universities = domestic_universities(corpus)
    sds_by_area = {area: corpus.sectors.sds_in_area(area) for area in corpus.sectors.areas()}
    out = []
    for index, pub in enumerate(pubs):
        home = pub.attributions[0]
        attributions = list(pub.attributions)
        credited = {(a.university, a.sds) for a in attributions}
        for oid in sorted(pub.org_ids & universities):
            if (oid, home.sds) not in credited:
                attributions.append(corpus_mod.Attribution(oid, home.sds))
                credited.add((oid, home.sds))
        if index in second:
            others = [s for s in sds_by_area[corpus.sectors.area_of(home.sds)]
                      if (home.university, s) not in credited]
            if others:
                attributions.append(corpus_mod.Attribution(home.university, rng.choice(others)))
        out.append(dataclasses.replace(pub, attributions=tuple(attributions)))
    return dataclasses.replace(corpus, publications=tuple(out))


def build(seed: int, coauthor: bool, out_dir) -> corpus_mod.Corpus:
    """Generate corpus M (optionally co-authored) and write it to out_dir."""
    result = synth.generate_corpus(paper_scale(seed))
    if coauthor:
        result = dataclasses.replace(result, corpus=coauthored(result.corpus, seed))
    synth.write_synthetic(result, out_dir)
    return result.corpus


def load_problem(in_dir: Path) -> str | None:
    """Why the corpus written to in_dir fails a checked load, or None."""
    files = [in_dir / name for name in corpus_mod.CORPUS_FILENAMES.values()]
    try:
        corpus_mod.load_corpus(*files, check=True)
    except corpus_mod.CorpusError as exc:
        return str(exc)
    return None


def stats(corpus: corpus_mod.Corpus) -> dict:
    """Input shape plus the counts the output checks compare against."""
    universities = domestic_universities(corpus)
    pubs = corpus.publications
    attributions = sum(len(p.attributions) for p in pubs)
    cells = {(a.university, a.sds) for p in pubs for a in p.attributions}
    cells |= corpus.staff.pairs()
    return {
        "publications": len(pubs),
        "attributions": attributions,
        "cells": len(cells),
        "area_rows": len({(u, corpus.sectors.area_of(s)) for u, s in cells}),
        "attributions_per_publication": attributions / len(pubs),
        "multi_sector_share": sum(len(p.sds_codes()) > 1 for p in pubs) / len(pubs),
        "multi_university_share":
            sum(len(p.org_ids & universities) > 1 for p in pubs) / len(pubs),
    }
