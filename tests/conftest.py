from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow shared machine neither changes nor fails them.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
