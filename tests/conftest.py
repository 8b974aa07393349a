from hypothesis import settings

# Seed every property from its test's name so that the suite draws the
# same examples on every run; the example counts stay as each test sets.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
