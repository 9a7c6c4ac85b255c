"""The output contract: every output of a fixed command list on a frozen
corpus matches its committed digest (see golden/update.py)."""

import json

from golden.update import DIGESTS, run_commands


def test_every_output_matches_its_golden_digest(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_commands(tmp_path)
    differing = sorted(key for key in expected.keys() | got.keys()
                       if expected.get(key) != got.get(key))
    assert not differing, "outputs differ from tests/golden/digests.json:\n" + "\n".join(
        f"  {key}: " + ("missing" if key not in got else "unexpected" if key not in expected
                        else "changed")
        for key in differing
    )
