"""Free bigraded chain complexes over F[U,V]/(UV) and their two-story form.

The package strips zero complexes off such a complex, builds vertically
and horizontally simplified bases with a scalar transition between them,
assembles the two-story complex and raises its depth to infinity.  All
arithmetic is over F[U,V]/(UV); a complex over F[U,V] enters it through
``complexes.reduce_mod_uv``.  The splitting into snake complexes and
local systems, and the invariants read off it, are not built yet.
"""

__version__ = "0.1.0"
