import signal

import pytest
from hypothesis import settings

# The property tests check results, not speed: a loaded machine must not
# fail an example for taking longer than Hypothesis' default 200 ms.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


@pytest.fixture(autouse=True)
def alarm():
    """Fail a test that runs past 60 s, about 20 times the slowest one,
    instead of letting a hang stall the suite."""
    def expire(signum, frame):
        raise TimeoutError("test ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
