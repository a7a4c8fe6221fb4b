from hypothesis import settings

# The one settings profile of every property test: a fixed example sequence,
# no example database on disk and no per-example deadline, so that a run is
# reproducible. Hypothesis still writes its own caches under .hypothesis/
# (constants/ and unicode_data/), which .gitignore lists.
settings.register_profile("robocal", derandomize=True, database=None, deadline=None)
settings.load_profile("robocal")
