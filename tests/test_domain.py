import pytest

from epiflow.domain import Domain, DomainError, Label, TERMINATION_MARK


class TestDomains:
    def test_boolean_enumeration_puts_tt_first(self):
        assert Domain.booleans().values == (True, False)

    def test_unsigned_window(self):
        dom = Domain.integers(4)
        assert dom.values == (0, 1, 2, 3)
        assert dom.normalize(-1) == 3
        assert dom.normalize(5) == 1

    def test_signed_window(self):
        dom = Domain.integers(8, signed=True)
        assert dom.values == (-4, -3, -2, -1, 0, 1, 2, 3)
        assert dom.normalize(4) == -4
        assert dom.normalize(-5) == 3
        assert -4 in dom and 4 not in dom

    def test_values_are_computed_once_per_domain(self):
        for dom in (Domain.booleans(), Domain.integers(8, signed=True)):
            assert dom.values is dom.values
        # the cached tuple is no field: equality and hashing ignore it
        a, b = Domain.integers(4), Domain.integers(4)
        assert a.values and "values" not in vars(b)
        assert a == b and hash(a) == hash(b)

    def test_truthiness(self):
        dom = Domain.integers(4)
        assert dom.truth(2) and not dom.truth(0)
        assert dom.bool_value(True) == 1
        assert Domain.booleans().bool_value(True) is True

    def test_default_hash(self):
        dom = Domain.integers(8)
        assert [dom.hash_value(v) for v in dom.values] == [0, 3, 6, 1, 4, 7, 2, 5]

    def test_configured_hash_table(self):
        dom = Domain.integers(4, hash_table=(1, 0, 3, 2))
        assert dom.hash_value(2) == 3

    def test_hash_table_validation(self):
        with pytest.raises(DomainError):
            Domain.integers(4, hash_table=(0, 1, 2))
        with pytest.raises(DomainError):
            Domain.integers(4, hash_table=(0, 1, 2, 9))
        # True == 1 in Python, yet booleans are no integer values, nor ints booleans
        with pytest.raises(DomainError, match="entry True outside"):
            Domain.integers(4, hash_table=(True, False, True, False))
        with pytest.raises(DomainError, match="entry 1 outside"):
            Domain("bool", 2, False, (1, 0))

    def test_bad_configs(self):
        with pytest.raises(DomainError):
            Domain.integers(1)
        with pytest.raises(DomainError):
            Domain.integers(2, signed=True)
        with pytest.raises(DomainError):
            Domain("bool", 3)

    def test_formatting(self):
        assert Domain.booleans().format_value(True) == "tt"
        assert Domain.integers(8, signed=True).format_value(-3) == "-3"
        assert Domain.integers(4).format_value(Label("ok")) == '"ok"'

    def test_termination_mark_is_not_a_value(self):
        dom = Domain.integers(4)
        assert TERMINATION_MARK not in dom
        assert TERMINATION_MARK != 0
