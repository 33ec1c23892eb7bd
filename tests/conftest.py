"""One hypothesis profile for every property test.

Derandomized, so a run draws the same examples every time; no example
database and no deadline; and no shrink phase: a failing property reports
the first failing example at once, where shrinking it re-ran decodes for
many minutes.

A derandomized property seeds its draws from a digest of its test
function's source from the ``def`` line on, its docstring included and its
comments, blank lines and decorators left out.  Editing a property's
signature, docstring or any code line of its body therefore silently
redraws every example it checks.  Editing a comment or a decorator keeps
the seed (though a changed ``@given`` strategy draws other examples from
it).  A change that edits a property's body says so in CHANGES.md.
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
