"""The mutation probe's list of equivalent mutants stays current."""

from mutate import EQUIVALENT, MODULES, sites


def test_every_equivalent_mutant_names_a_current_site():
    current = {site.key for module in MODULES for site in sites(module)}
    assert sorted(set(EQUIVALENT) - current) == []
