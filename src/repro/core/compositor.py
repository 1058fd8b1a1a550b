"""The retired per-view compositor switch.

Views keep no cached images: every repaint renders the damaged subtree
live.  Components that want to pre-compose an image draw into an
:class:`~repro.wm.base.OffscreenWindow` themselves.  ``enabled`` stays
as a constant for callers that report the drawing configuration.
"""

__all__ = ["enabled"]

#: Views never composite from a cache.
enabled = False
