"""The output contract: every output of a fixed command list on a frozen
corpus matches its committed digest (see golden/update.py)."""

from golden.update import differences


def test_every_output_matches_its_golden_digest(tmp_path):
    differing = differences(tmp_path)
    assert not differing, "outputs differ from tests/golden/digests.json:\n" + "\n".join(
        f"  {line}" for line in differing
    )
