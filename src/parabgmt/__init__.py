"""parabgmt: computational parabolic geometric measure theory.

Modules:
    geometry   exact parabolic metric algebra, planes, cones, graphs
    measure    discrete measures and covering-based estimators
    rectify    tangent detection, blow-ups, differentiability fits
    generators deterministic fractal example sets
    checks     the invariant check table that `verify` and the tests run
    cli        command line front end

The package root holds only __version__: import names from the module
that defines them, so a process loads only the modules it uses.
"""

from ._version import __version__
