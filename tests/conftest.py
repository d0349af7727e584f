from hypothesis import settings

# property tests draw the same examples on every run and have no time limit,
# so the suite is reproducible and cannot fail on a slow machine
settings.register_profile("cadps", derandomize=True, deadline=None)
settings.load_profile("cadps")
