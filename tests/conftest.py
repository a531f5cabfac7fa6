"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest


@pytest.fixture
def count_fractions(monkeypatch):
    """A list that gets the arguments of every Fraction built from here on:
    Fraction(...) calls and, on Python 3.12 and later, the arithmetic
    results made through Fraction._from_coprime_ints."""
    built = []

    def counted(original):
        def wrapper(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counted(Fraction.__new__))
    if "_from_coprime_ints" in vars(Fraction):
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            counted(Fraction._from_coprime_ints.__func__)))
    return built
