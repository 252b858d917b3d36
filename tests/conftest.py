from hypothesis import settings

# The property tests check results, not speed: a loaded machine must not
# fail an example for taking longer than Hypothesis' default 200 ms.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
