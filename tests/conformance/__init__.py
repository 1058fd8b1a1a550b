"""Rendering-conformance harness.

Drives seeded randomized scenarios over a three-pane window and asserts
the rendered surface is byte-identical with and without the toolkit's
rendering gates (``ANDREW_METRICS``, ``ANDREW_QUARANTINE``) on both
backends, drawing immediately and recorded for replay (the ``batch``
arm), and that scroll shift-blits match the full-area repaint a port
without ``copy_area`` takes.  See ``driver`` for the scenario machinery
and ``test_matrix`` for the gate matrix itself.
"""
