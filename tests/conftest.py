"""Test settings shared by every test module.

Property tests draw the same examples on every run: hypothesis derives them
from each test's source (derandomize) and keeps no example database, so a
run never depends on what an earlier run found."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
