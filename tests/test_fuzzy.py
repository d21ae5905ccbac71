"""Triangular fuzzy numbers."""

import pytest

from fuzzloc.errors import DomainError
from fuzzloc.fuzzy import TriFuzzy


class TestTriFuzzy:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            TriFuzzy(2.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            TriFuzzy(1.0, 3.0, 2.0)

    def test_from_seq_and_components(self):
        t = TriFuzzy.from_seq([1, 2, 3])
        assert t.as_tuple() == (1.0, 2.0, 3.0)
