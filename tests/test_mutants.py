"""The committed mutants (tests/mutants.py) still match the source they
mutate; ``python tests/mutants.py`` checks that their tests kill them."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_matches_its_source_once(mutant):
    text = (mutants.ROOT / mutant.file).read_text()
    assert mutants.mutated(mutant, text) != text  # raises unless the old text occurs exactly once
    assert mutant.tests
    for test in mutant.tests:  # a file, or a file::name id of a test the file defines
        file, _, name = test.partition("::")
        assert (mutants.ROOT / file).is_file(), test
        assert not name or f"\ndef {name}(" in (mutants.ROOT / file).read_text(), test
