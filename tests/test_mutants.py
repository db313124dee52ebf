"""The hand mutants of tests/mutants.py still apply to src/.

Running the mutants takes minutes, so Tier-1 leaves it to its own CI step;
this only checks that each mutant's old text occurs exactly once in its
module, so that an edit to src/ that moves a mutant's text shows here."""

from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "sectorpack"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"mutant{i}" for i in range(len(MUTANTS))])
def test_old_text_found_once(mutant):
    assert (SRC / mutant.module).read_text().count(mutant.old) == 1
