"""The committed mutants (tests/mutants.py) still match the source they
mutate; ``python tests/mutants.py`` checks that their tests kill them."""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_matches_its_source_once(mutant):
    text = (mutants.ROOT / mutant.file).read_text()
    assert mutants.mutated(mutant, text) != text  # raises unless the old text occurs exactly once
    assert mutant.tests
    for test in mutant.tests:  # a file::name or file::Class::name id of a test the file defines
        assert "::" in test, f"{test}: name a test id, not a file"
        file, *classes, name = test.split("::")
        assert (mutants.ROOT / file).is_file(), test
        text = (mutants.ROOT / file).read_text()
        assert all(f"\nclass {cls}" in text for cls in classes), test
        assert re.search(rf"^\s*def {name}\(", text, re.MULTILINE), test
