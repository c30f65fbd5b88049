"""One Hypothesis profile for every generated test: each test draws the
same examples on every run (``derandomize``), and a slow example is not a
failure (no ``deadline``).  A test's ``@settings`` states only its
``max_examples``."""

from hypothesis import settings

settings.register_profile("bathtub", derandomize=True, deadline=None)
settings.load_profile("bathtub")
