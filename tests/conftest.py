"""One hypothesis profile for every property test.

Derandomized, so a run draws the same examples every time; no example
database and no deadline; and no shrink phase: a failing property reports
the first failing example at once, where shrinking it re-ran decodes for
many minutes.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mimo3d",
    derandomize=True,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("mimo3d")
